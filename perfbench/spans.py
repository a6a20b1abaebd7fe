"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the traced
``spancomplex`` modules with a wrapper that records a span, at every
place the function is bound: its own module, each module that imported
it by name and the package namespace.  ``Tracer.uninstall`` puts the
originals back, so untraced passes run the unmodified program.

A span is ``[name, start, end, parent, op, counters, done]``: ``parent``
is the index of the enclosing span in the same pass (-1 at the top),
``op`` the id of the operation that caused it, and ``done`` the time
after the wrapper computed its counters.  Each traced pass keeps its
spans in its own list, in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "analysis", "multigraph", "spanning", "fvector", "ideal", "homology", "kernels")

# fvector.binomial runs about 10^6 times per large ladder layout; a span per
# call would dominate the run it measures.  Its time counts as self time of
# its caller.
UNTRACED = {"fvector.binomial"}

# Report rendering is a method, traced under its module's name.
METHODS = {"analysis": ("AnalysisReport", ("to_json_dict",))}


def _rank_counters(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows else 0, "rank_sum": result}


def _boundary_counters(args, kwargs, result):
    nonzeros = sum(len(r) - r.count(0) for r in result.rows)
    return {"cells": result.n_rows * result.n_cols, "nonzeros": nonzeros}


COUNTERS = {
    "kernels.matrix_rank": _rank_counters,
    "kernels.forest_masks": lambda a, k, r: {"forests": len(r)},
    "spanning.enumerate_spanning_trees_generic": lambda a, k, r: {"facets": len(r)},
    "homology.graded_faces": lambda a, k, r: {"faces": sum(r.sizes())},
    "homology.boundary_matrix": _boundary_counters,
    "ideal.minimal_vertex_covers_generic": lambda a, k, r: {"covers": len(r)},
}


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.passes: list[list[list]] = []
        self.stack: list[int] = []
        self.op = -1
        self.rank_fallbacks = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, spans):
        counter = COUNTERS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            span[6] = perf_counter()
            return result

        return wrapper

    def _count_fallback(self, fn, kernels):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernels.BACKEND == "cython":
                self.rank_fallbacks += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Start a traced pass, with a span list of its own."""
        spans: list[list] = []
        self.passes.append(spans)
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spancomplex.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    replacements[id(fn)] = self._wrap(name, fn, spans)
        kernels = importlib.import_module("spancomplex.kernels")
        pyref = importlib.import_module("spancomplex.kernels.pyref")
        replacements[id(pyref.matrix_rank)] = self._count_fallback(pyref.matrix_rank, kernels)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spancomplex" and not mod_name.startswith("spancomplex."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(f"spancomplex.{layer}"), cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                self._patched.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"{layer}.{method}", fn, spans))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(self.passes):
                for name, start, end, parent, op, counters, _ in spans:
                    rec = {"pass": k, "name": name, "start": start, "end": end,
                           "parent": parent, "op": op}
                    if counters:
                        rec["counters"] = counters
                    fh.write(json.dumps(rec) + "\n")


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and counters.

    Inclusive time counts only the outermost span of a name, so a
    function that re-enters itself is not counted twice.  Self time is a
    span's duration minus the time its children cover, counters
    included.
    """
    child_cover = [0.0] * len(spans)
    for name, start, end, parent, op, counters, done in spans:
        if parent >= 0:
            child_cover[parent] += done - start
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op, counters, done) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child_cover[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["s"] += end - start
        for key, value in (counters or {}).items():
            t[key] += value
    return {name: dict(t) for name, t in totals.items()}


def forests_under(spans, ancestor_name: str) -> int:
    """Forests enumerated by forest_masks calls made inside ``ancestor_name``."""
    total = 0
    for name, start, end, parent, op, counters, done in spans:
        if name != "kernels.forest_masks":
            continue
        while parent >= 0 and spans[parent][0] != ancestor_name:
            parent = spans[parent][3]
        if parent >= 0:
            total += counters["forests"]
    return total

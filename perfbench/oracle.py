"""Expected answers from a graph's class sizes, by routes of the benchmark's own.

The spanning complex of a multigraph is the independence complex of its
graphic matroid, which factors over the parallel classes (Brylawski and
Oxley, 1992).  For a uni-cyclic layout that gives the face polynomial

    f(t) = prod_classes (1 + s_c t) - (prod_cycle s_i) t^m prod_outside (1 + s_c t)

whose coefficient of t^(i+1) is f_i and whose top coefficient counts the
spanning trees.  A matroid complex has homology only in its top
dimension (Bjorner, 1992), so the Betti numbers are (1, 0, ..., 0, |chi~|).
Each ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, prod


@dataclass(frozen=True)
class Shape:
    """Class sizes of a uni-cyclic multigraph.

    ``cycle`` lists the size of every class on the cycle (1 for a single
    edge), ``outside`` the sizes of the multiple classes off the cycle,
    and ``v`` counts the single edges off the cycle.
    """

    cycle: tuple[int, ...]
    outside: tuple[int, ...] = ()
    v: int = 0

    @property
    def m(self) -> int:
        return len(self.cycle)

    @property
    def r_prime(self) -> int:
        return sum(1 for s in self.cycle if s > 1)

    @property
    def n(self) -> int:
        return sum(self.cycle) + sum(self.outside) + self.v


def _times_linear(poly: list[int], s: int) -> list[int]:
    """poly * (1 + s t)."""
    out = poly + [0]
    for i in range(len(poly)):
        out[i + 1] += s * poly[i]
    return out


def face_polynomial(shape: Shape) -> list[int]:
    """Coefficients c_0.. of f(t), trailing zeros removed."""
    outside = list(shape.outside) + [1] * shape.v
    full = [1]
    for s in list(shape.cycle) + outside:
        full = _times_linear(full, s)
    rest = [1]
    for s in outside:
        rest = _times_linear(rest, s)
    top = prod(shape.cycle)
    for k, c in enumerate(rest):
        full[shape.m + k] -= top * c
    while full[-1] == 0:
        full.pop()
    return full


def f_vector(shape: Shape) -> list[int]:
    """(f_0, ..., f_d): the coefficients of t^1 .. t^(d+1)."""
    return face_polynomial(shape)[1:]


def tree_count(shape: Shape) -> int:
    return face_polynomial(shape)[-1]


def euler(shape: Shape) -> int:
    return sum((-1) ** i * f for i, f in enumerate(f_vector(shape)))


def betti(shape: Shape) -> list[int]:
    """(1, 0, ..., 0, |chi - 1|) over dimensions 0..d."""
    d = len(f_vector(shape)) - 1
    out = [0] * (d + 1)
    out[0] = 1
    out[d] += abs(euler(shape) - 1)
    return out


def cover_count(shape: Shape) -> int:
    """v + r'(m - r') + C(m - r', 2) + C(r', 2) + r''."""
    m, rp = shape.m, shape.r_prime
    return shape.v + rp * (m - rp) + comb(m - rp, 2) + comb(rp, 2) + len(shape.outside)


def _strs(values) -> list[str]:
    return [str(x) for x in values]


def _expect(problems: list[str], what: str, expected, actual) -> None:
    if expected != actual:
        problems.append(f"{what}: expected {expected!r}, got {actual!r}")


def _layout_scalars(shape: Shape) -> dict:
    return {
        "n": shape.n,
        "m": shape.m,
        "r_prime": shape.r_prime,
        "r_dprime": len(shape.outside),
        "v": shape.v,
    }


def _is_spanning_tree(tree, ends: dict, n_vertices: int) -> bool:
    """A sorted list of |V|-1 edge ids that closes no cycle."""
    if len(tree) != n_vertices - 1 or list(tree) != sorted(tree):
        return False
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in tree:
        if eid not in ends:
            return False
        a, b = (find(x) for x in ends[eid])
        if a == b:
            return False
        parent[a] = b
    return True


def _tree_list_problems(shape: Shape, graph_text: str, trees) -> list[str]:
    """The list must hold every spanning tree of the graph, once each."""
    doc = json.loads(graph_text)
    index = {v: i for i, v in enumerate(doc["vertices"])}
    ends = {e["id"]: (index[e["ends"][0]], index[e["ends"][1]]) for e in doc["edges"]}
    problems = []
    _expect(problems, "spanning tree count", tree_count(shape), len(trees))
    if len(set(map(tuple, trees))) != len(trees):
        problems.append("spanning trees are not distinct")
    bad = next((t for t in trees if not _is_spanning_tree(t, ends, len(index))), None)
    if bad is not None:
        problems.append(f"not a spanning tree: {bad}")
    return problems


def check_analyze(shape: Shape, graph_text: str, stdout: str) -> list[str]:
    """``analyze --json``: every count against the face polynomial."""
    doc = json.loads(stdout)
    p: list[str] = []
    fv = f_vector(shape)
    d = len(fv) - 1
    trees = tree_count(shape)
    _expect(p, "discrepancies", [], doc["discrepancies"])
    layout = doc["layout"] or {}
    _expect(p, "layout", _layout_scalars(shape), {k: layout.get(k) for k in _layout_scalars(shape)})
    _expect(p, "dimension", d, doc["dimension"])
    st = doc["spanning_trees"]
    _expect(p, "spanning tree count", str(trees), st["count"])
    _expect(p, "closed-form tree count", str(trees), st["count_closed_form"])
    _expect(p, "f-vector closed form", _strs(fv), doc["f_vector"]["closed_form"])
    _expect(p, "f-vector brute force", _strs(fv), doc["f_vector"]["bruteforce"])
    chi = str(euler(shape))
    _expect(p, "euler characteristic", {"closed_form": chi, "bruteforce": chi, "betti": chi},
            doc["euler_characteristic"])
    hom = doc["homology"] or {}
    _expect(p, "betti numbers", _strs(betti(shape)), hom.get("betti"))
    _expect(p, "grade sizes", _strs(fv), hom.get("grade_sizes"))
    _expect(p, "cover count", cover_count(shape), len(doc["covers"] or []))
    return p + _tree_list_problems(shape, graph_text, st["facets"] or [])


def check_facets(shape: Shape, graph_text: str, stdout: str) -> list[str]:
    """``facets --json``: the spanning tree list."""
    return _tree_list_problems(shape, graph_text, json.loads(stdout))


def check_covers(shape: Shape, graph_text: str, stdout: str) -> list[str]:
    """``covers --json``: generators are the trees, components the minimal covers."""
    doc = json.loads(stdout)
    gens, comps = doc["generators"], doc["components"]
    p = _tree_list_problems(shape, graph_text, gens)
    _expect(p, "cover count", cover_count(shape), len(comps))
    edges = sorted({e for g in gens for e in g} | {e for c in comps for e in c})
    bit = {e: 1 << i for i, e in enumerate(edges)}
    gen_masks = [sum(bit[e] for e in g) for g in gens]
    comp_masks = [sum(bit[e] for e in c) for c in comps]
    for c, mask in zip(comps, comp_masks):
        if not all(mask & g for g in gen_masks):
            p.append(f"component {c} misses a generator")
            break
        if any(o != mask and o & mask == o for o in comp_masks):
            p.append(f"component {c} is not minimal")
            break
    return p


def check_ladder(shape: Shape, result: dict) -> list[str]:
    """Closed-form counting route: counts, zero tail and Euler characteristic."""
    p: list[str] = []
    fv = f_vector(shape)
    d = len(fv) - 1
    _expect(p, "layout", _layout_scalars(shape), result["layout"])
    _expect(p, "dimension", d, result["dimension"])
    _expect(p, "spanning tree count", tree_count(shape), result["count"])
    _expect(p, "spanning tree count is the top coefficient", fv[-1], result["count"])
    _expect(p, "f-vector closed form", fv, result["f_vector"])
    _expect(p, "closed-form tail", [0] * (shape.n - d - 1), result["tail"])
    _expect(p, "euler characteristic", euler(shape), result["euler"])
    return p

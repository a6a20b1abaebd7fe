"""Command-line interface.

Subcommands: ``analyze``, ``verify``, ``facets``, ``covers``,
``homology`` and ``random-suite``.  Exit codes: 0 success, 1 discrepancy
found, 2 input error, 3 enumeration budget exceeded, 4 internal error
(one JSON line on stderr, no traceback).  All output is deterministic
for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis import run_analyze, run_verify
from .errors import (
    BudgetExceededError,
    GraphValidationError,
    NotUnicyclicError,
    SchemaError,
)
from .homology import (
    betti_from_faces,
    boundary_matrix,
    coordinate_triples,
    euler_from_betti,
    graded_faces,
)
from .ideal import facet_ideal_generic, minimal_vertex_covers_generic, render_decomposition
from .kernels import require_budget
from .multigraph import Multigraph, load_graph_file, recognize_unicyclic
from .randomgraphs import random_suite
from .spanning import enumerate_spanning_trees_generic


def _emit_json(doc) -> None:
    # every document is a fresh tree built for this call, so the encoder
    # skips its per-container cycle bookkeeping; a cyclic one would end in
    # RecursionError, an internal error (exit 4)
    sys.stdout.write(json.dumps(doc, indent=2, ensure_ascii=False, check_circular=False) + "\n")


def _emit_discrepancies(discrepancies) -> None:
    if discrepancies:
        records = [asdict(d) for d in discrepancies]
        sys.stderr.write(json.dumps(records, indent=2, ensure_ascii=False) + "\n")


def cmd_analyze(args) -> int:
    g = load_graph_file(args.path)
    report = run_analyze(g, no_oracle=args.no_oracle, path=args.path)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        sys.stdout.write(report.render_text())
    _emit_discrepancies(report.discrepancies)
    return 1 if report.discrepancies else 0


def cmd_verify(args) -> int:
    discrepancies = run_verify(load_graph_file(args.path))
    if discrepancies:
        sys.stdout.write(f"verify: FAIL ({len(discrepancies)} discrepancies)\n")
    else:
        sys.stdout.write("verify: PASS\n")
    _emit_discrepancies(discrepancies)
    return 1 if discrepancies else 0


def cmd_facets(args) -> int:
    g = load_graph_file(args.path)
    require_budget(g.n_edges, "spanning tree enumeration")
    facets = enumerate_spanning_trees_generic(g)
    if args.json:
        _emit_json(facets)
    else:
        for f in facets:
            sys.stdout.write(" ".join(f) + "\n")
    return 0


def cmd_covers(args) -> int:
    g = load_graph_file(args.path)
    require_budget(g.n_edges, "spanning tree enumeration")
    if args.json:
        # the facet ideal: one generator per spanning tree, one prime per
        # minimal cover; only the JSON view lists the generators
        generators, components = facet_ideal_generic(g)
        _emit_json({"generators": generators, "components": components})
    else:
        covers = minimal_vertex_covers_generic(g)
        for c in covers:
            sys.stdout.write(" ".join(c) + "\n")
        sys.stdout.write("decomposition: " + render_decomposition(covers) + "\n")
    return 0


def cmd_homology(args) -> int:
    g = load_graph_file(args.path)
    if args.dump_matrices:
        # a uni-cyclic graph's dump follows its canonical labels, not the file's order
        with contextlib.suppress(NotUnicyclicError):
            ends = dict(g.edges)
            order = recognize_unicyclic(g).canonical_labels()
            g = Multigraph(g.vertices, tuple((e, ends[e]) for e in order))
    faces = graded_faces(g)
    betti = betti_from_faces(faces)
    if args.dump_matrices:
        outdir = Path(args.dump_matrices)
        outdir.mkdir(parents=True, exist_ok=True)
        for i in range(1, faces.dim + 1):
            target = outdir / f"boundary_{i}.txt"
            lines = coordinate_triples(boundary_matrix(faces, i))
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
            sys.stderr.write(f"wrote {target}\n")
    doc = {
        "grade_sizes": [str(s) for s in faces.sizes()],
        "boundary_ranks": [str(r) for r in betti.boundary_ranks],
        "betti": [str(b) for b in betti.ranks],
        "euler_characteristic": str(euler_from_betti(betti)),
    }
    if args.json:
        _emit_json(doc)
    else:
        sys.stdout.write("grade sizes: " + " ".join(doc["grade_sizes"]) + "\n")
        sys.stdout.write("boundary ranks: " + " ".join(doc["boundary_ranks"]) + "\n")
        sys.stdout.write("betti numbers: " + " ".join(doc["betti"]) + "\n")
        sys.stdout.write("euler characteristic: " + doc["euler_characteristic"] + "\n")
    return 0


def cmd_random_suite(args) -> int:
    graphs = random_suite(args.seed, args.count, args.max_edges)
    # every graph must fit the budget before any is verified
    for g in graphs:
        require_budget(g.n_edges, "spanning tree enumeration")
    failures = []
    for g in graphs:
        discrepancies = run_verify(g)
        if discrepancies:
            target = Path(f"counterexample-{g.fingerprint()}.json")
            target.write_text(
                json.dumps(g.to_json_dict(), indent=2) + "\n", encoding="utf-8"
            )
            sys.stdout.write(f"FAIL {g.fingerprint()}: wrote {target}\n")
            failures.extend(discrepancies)
    if args.json:
        _emit_json(
            {
                "seed": args.seed,
                "count": args.count,
                "max_edges": args.max_edges,
                "failures": len(failures),
            }
        )
    else:
        sys.stdout.write(
            f"random-suite: checked {args.count} graphs "
            f"(seed {args.seed}, max edges {args.max_edges}): "
            + (f"{len(failures)} discrepancies\n" if failures else "all checks agree\n")
        )
    _emit_discrepancies(failures)
    return 1 if failures else 0


def _int_in(low: int):
    """An argparse type: an int of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spancomplex",
        description="Spanning simplicial complexes of uni-cyclic multigraphs: "
        "exact enumeration, closed forms and their cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, with_path=True, with_json=True):
        p = sub.add_parser(name, help=summary)
        if with_path:
            p.add_argument("path", help="graph JSON file")
        if with_json:
            p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = add_command("analyze", "full report for one graph")
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="closed forms only; skip enumeration oracles (for large n)",
    )

    add_command("verify", "cross-check closed forms against oracles", with_json=False)
    add_command("facets", "spanning tree list")
    add_command("covers", "minimal vertex covers and facet ideal")

    p = add_command("homology", "boundary ranks and Betti numbers")
    p.add_argument(
        "--dump-matrices",
        metavar="DIR",
        help="write each boundary matrix as 'row col value' triples",
    )

    p = add_command("random-suite", "verify a seeded random graph family", with_path=False)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=_int_in(0), default=200)
    # the smallest uni-cyclic multigraph is the simple triangle
    p.add_argument("--max-edges", type=_int_in(3), default=12)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()  # once per process: building it costs more than parsing
    args = _parser.parse_args(argv)
    # looked up at call time, so a replaced module attribute is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (SchemaError, GraphValidationError, NotUnicyclicError, OSError) as exc:
        missing = isinstance(exc, (FileNotFoundError, NotADirectoryError))
        if missing and exc.filename == getattr(args, "path", None):
            # the graph file is opened once, with no existence check first
            exc = f"no such file: {exc.filename}"
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug, not a discrepancy: exit 1 stays reserved for those
        record = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, ensure_ascii=False) + "\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())

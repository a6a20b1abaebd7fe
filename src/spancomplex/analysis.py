"""Full pipeline assembly: analysis reports and cross-verification.

``run_analyze`` composes every module into one report; ``run_verify`` is
the anti-drift harness that compares each closed form against its
independent oracle and reports structured discrepancies.  Closed forms
are skipped with a notice for graphs that are not uni-cyclic; oracle
routes always run when the edge budget allows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import NotUnicyclicError
from .fvector import (
    DEFAULT_BUDGET,
    FVector,
    closed_form_terms,
    dimension,
    euler_characteristic,
    require_budget,
)
from .homology import BettiProfile, betti_from_faces, euler_from_betti, graded_faces
from .ideal import (
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
    render_decomposition,
)
from .multigraph import Multigraph, UnicyclicLayout, edge_sets, recognize_unicyclic
from .spanning import count_spanning_trees_layout, enumerate_spanning_trees_layout

EdgeSets = list[tuple[str, ...]]


@dataclass(frozen=True)
class Discrepancy:
    """One failed cross-check, with enough context to reproduce it."""

    check: str
    expected: object
    actual: object
    fingerprint: str

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "expected": self.expected,
            "actual": self.actual,
            "fingerprint": self.fingerprint,
        }


@dataclass
class AnalysisReport:
    """Everything the pipeline computed for one graph."""

    path: str | None
    fingerprint: str
    n_vertices: int
    n_edges: int
    budget: int
    oracle_enabled: bool
    layout: UnicyclicLayout | None = None
    layout_note: str | None = None
    dim: int | None = None
    count_closed_form: int | None = None
    facets_closed_form: EdgeSets | None = None
    facets_generic: EdgeSets | None = None
    f_closed_form: FVector | None = None
    f_bruteforce: FVector | None = None
    euler_closed_form: int | None = None
    euler_bruteforce: int | None = None
    euler_betti: int | None = None
    betti: BettiProfile | None = None
    covers_closed_form: EdgeSets | None = None
    covers_generic: EdgeSets | None = None
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def facets(self) -> EdgeSets | None:
        """Canonical facet list: the oracle's when it ran, else closed form."""
        return self.facets_generic if self.facets_generic is not None else self.facets_closed_form

    @property
    def covers(self) -> EdgeSets | None:
        return self.covers_generic if self.covers_generic is not None else self.covers_closed_form

    def to_json_dict(self) -> dict:
        layout = None
        if self.layout is not None:
            lay = self.layout
            labels = lay.canonical_labels()
            layout = {
                "n": lay.n,
                "m": lay.m,
                "r_prime": lay.r_prime,
                "r_dprime": lay.r_dprime,
                "r": lay.r,
                "alpha": lay.alpha,
                "beta": lay.beta,
                "v": lay.v,
                "cycle_classes": [
                    {"endpoints": list(c.endpoints), "members": list(c.members)}
                    for c in lay.cycle_classes
                ],
                "outside_multiple_classes": [
                    {"endpoints": list(c.endpoints), "members": list(c.members)}
                    for c in lay.outside_multiple_classes
                ],
                "outside_single_edges": list(lay.outside_single_edges),
                "canonical_labels": {e: labels[e] for e in lay.edge_order()},
            }
        facets = self.facets
        covers = self.covers
        return {
            "schema": "spancomplex/analysis-v2",
            "input": {
                "path": self.path,
                "fingerprint": self.fingerprint,
                "vertices": self.n_vertices,
                "edges": self.n_edges,
            },
            "settings": {
                "budget": self.budget,
                "oracle": self.oracle_enabled,
            },
            "layout": layout,
            "layout_note": self.layout_note,
            "dimension": self.dim,
            "spanning_trees": {
                "count": str(len(facets)) if facets is not None else None,
                "count_closed_form": (
                    str(self.count_closed_form) if self.count_closed_form is not None else None
                ),
                "facets": facets,
            },
            "f_vector": {
                "closed_form": _fv_json(self.f_closed_form),
                "bruteforce": _fv_json(self.f_bruteforce),
            },
            "euler_characteristic": {
                "closed_form": _int_json(self.euler_closed_form),
                "bruteforce": _int_json(self.euler_bruteforce),
                "betti": _int_json(self.euler_betti),
            },
            "homology": (
                None
                if self.betti is None
                else {
                    "betti": [str(b) for b in self.betti.ranks],
                    "boundary_ranks": [str(r) for r in self.betti.boundary_ranks],
                    "grade_sizes": _fv_json(self.f_bruteforce),
                }
            ),
            "covers": covers,
            "discrepancies": [d.to_json_dict() for d in self.discrepancies],
        }

    def render_text(self) -> str:
        lines = []
        src = self.path or "<memory>"
        lines.append(f"graph: {src} (fingerprint {self.fingerprint})")
        lines.append(f"vertices: {self.n_vertices}  edges: {self.n_edges}")
        if self.layout is not None:
            lay = self.layout
            lines.append(
                f"unicyclic layout: n={lay.n} m={lay.m} r'={lay.r_prime} "
                f"r''={lay.r_dprime} r={lay.r} alpha={lay.alpha} beta={lay.beta} v={lay.v}"
            )
        if self.layout_note:
            lines.append(f"note: {self.layout_note}")
        if self.dim is not None:
            lines.append(f"dimension: {self.dim}")
        facets = self.facets
        if facets is not None:
            cf = f" (closed form {self.count_closed_form})" if self.count_closed_form is not None else ""
            lines.append(f"spanning trees: {len(facets)}{cf}")
        if self.f_closed_form is not None:
            lines.append("f-vector (closed form): " + " ".join(str(c) for c in self.f_closed_form))
        if self.f_bruteforce is not None:
            lines.append("f-vector (brute force): " + " ".join(str(c) for c in self.f_bruteforce))
        euler_bits = [
            f"{name} {val}"
            for name, val in (
                ("closed-form", self.euler_closed_form),
                ("brute-force", self.euler_bruteforce),
                ("betti", self.euler_betti),
            )
            if val is not None
        ]
        if euler_bits:
            lines.append("euler characteristic: " + ", ".join(euler_bits))
        if self.betti is not None:
            lines.append("betti numbers: " + " ".join(str(b) for b in self.betti.ranks))
            ranks = " ".join(
                f"rank d{i}={r}" for i, r in enumerate(self.betti.boundary_ranks) if i >= 1
            )
            if ranks:
                lines.append("boundary ranks: " + ranks)
        covers = self.covers
        if covers is not None:
            rendered = " ".join("{" + ",".join(c) + "}" for c in covers)
            lines.append(f"minimal covers ({len(covers)}): {rendered}")
        if facets is not None and covers is not None:
            lines.append(f"facet ideal generators: {len(facets)}")
            lines.append("primary decomposition: " + render_decomposition(covers))
        if self.discrepancies:
            lines.append(f"discrepancies: {len(self.discrepancies)}")
            for d in self.discrepancies:
                lines.append(f"  FAIL {d.check}: expected {d.expected}, got {d.actual}")
        else:
            lines.append("discrepancies: none")
        return "\n".join(lines) + "\n"


def _fv_json(fv: FVector | None):
    return None if fv is None else [str(c) for c in fv.counts]


def _int_json(x: int | None):
    return None if x is None else str(x)


def run_analyze(
    g: Multigraph,
    *,
    budget: int = DEFAULT_BUDGET,
    no_oracle: bool = False,
    path: str | None = None,
) -> AnalysisReport:
    """Run every applicable route and cross-check them.

    When the oracle routes are enabled, first checks the budget: raises
    ``ValueError`` for a budget outside 1..``kernels.MAX_EDGES`` and
    ``BudgetExceededError`` when the graph exceeds it.
    """
    if not no_oracle:
        require_budget(g.n_edges, budget, "spanning tree enumeration")
    report = AnalysisReport(
        path=path,
        fingerprint=g.fingerprint(),
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        budget=budget,
        oracle_enabled=not no_oracle,
    )

    layout: UnicyclicLayout | None = None
    tail: list[int] = []
    try:
        layout = recognize_unicyclic(g)
    except NotUnicyclicError as exc:
        report.layout_note = f"closed forms skipped: {exc}"
    report.layout = layout

    if layout is not None:
        report.dim = dimension(layout)
        report.count_closed_form = count_spanning_trees_layout(layout)
        report.facets_closed_form = enumerate_spanning_trees_layout(layout)
        # one closed-form pass: the f-vector, then the terms that must vanish
        terms = closed_form_terms(layout)
        report.f_closed_form = FVector(tuple(terms[: report.dim + 1]))
        tail = terms[report.dim + 1 :]
        report.euler_closed_form = euler_characteristic(report.f_closed_form)
        report.covers_closed_form = minimal_vertex_covers_closed_form(layout)

    if not no_oracle:
        # canonical_edge_order(g), from the recognition above
        edge_order = layout.edge_order() if layout is not None else g.edge_ids()
        faces = graded_faces(g, budget=budget, edge_order=edge_order)
        # g is connected, so its largest forests are its spanning trees
        report.facets_generic = edge_sets(faces.names(f) for f in faces.grades[-1])
        report.f_bruteforce = FVector(faces.sizes())
        report.euler_bruteforce = euler_characteristic(report.f_bruteforce)
        report.betti = betti_from_faces(faces)
        report.euler_betti = euler_from_betti(report.betti)
        report.covers_generic = minimal_vertex_covers_generic(g)
        if report.dim is None:
            report.dim = len(report.facets_generic[0]) - 1

    report.discrepancies = _cross_checks(report, tail)
    return report


def run_verify(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> list[Discrepancy]:
    """Cross-verify all closed forms against their oracles for one graph."""
    return run_analyze(g, budget=budget).discrepancies


def _unmatched(sets: EdgeSets, others: EdgeSets) -> list[list[str]]:
    """The entries of ``sets`` left over once each entry of ``others`` has
    matched one equal entry, in the order of ``sets``."""
    left = Counter(others)
    out = []
    for s in sets:
        if left[s]:
            left[s] -= 1
        else:
            out.append(list(s))
    return out


def _cross_checks(report: AnalysisReport, tail: list[int]) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    fp = report.fingerprint

    def fail(check, expected, actual):
        out.append(Discrepancy(check=check, expected=expected, actual=actual, fingerprint=fp))

    if report.facets_closed_form is not None and report.facets_generic is not None:
        if report.facets_closed_form != report.facets_generic:
            fail(
                "facets:closed-form-vs-generic",
                _unmatched(report.facets_generic, report.facets_closed_form),
                _unmatched(report.facets_closed_form, report.facets_generic),
            )
    if report.count_closed_form is not None and report.facets_closed_form is not None:
        enumerated = len(report.facets_generic or report.facets_closed_form)
        if report.count_closed_form != enumerated:
            fail("count:closed-form-vs-enumeration", str(enumerated), str(report.count_closed_form))
    if report.f_closed_form is not None and report.f_bruteforce is not None:
        if report.f_closed_form.counts != report.f_bruteforce.counts:
            fail(
                "fvector:closed-form-vs-bruteforce",
                [str(c) for c in report.f_bruteforce.counts],
                [str(c) for c in report.f_closed_form.counts],
            )
    if any(tail):
        fail("fvector:tail-zero", ["0"] * len(tail), [str(t) for t in tail])
    if report.covers_closed_form is not None and report.covers_generic is not None:
        if report.covers_closed_form != report.covers_generic:
            fail(
                "covers:closed-form-vs-generic",
                _unmatched(report.covers_generic, report.covers_closed_form),
                _unmatched(report.covers_closed_form, report.covers_generic),
            )
    eulers = {
        name: val
        for name, val in (
            ("closed_form", report.euler_closed_form),
            ("bruteforce", report.euler_bruteforce),
            ("betti", report.euler_betti),
        )
        if val is not None
    }
    if len(set(eulers.values())) > 1:
        reference = report.euler_bruteforce
        fail("euler:all-routes-agree", _int_json(reference), {k: str(v) for k, v in eulers.items()})
    return out

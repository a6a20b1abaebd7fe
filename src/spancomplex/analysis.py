"""Full pipeline assembly: analysis reports and cross-verification.

``run_analyze`` composes every module into one report; ``run_verify`` is
the anti-drift harness that compares each closed form against its
independent oracle and reports structured discrepancies.  Closed forms
are skipped with a notice for graphs that are not uni-cyclic; oracle
routes always run when the graph fits ``kernels.EDGE_BUDGET``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field, fields

from .errors import NotUnicyclicError
from .fvector import (
    FVector,
    closed_form_tail,
    dimension,
    euler_characteristic,
    f_vector_closed_form,
)
from .homology import BettiProfile, betti_from_faces, euler_from_betti, graded_faces
from .ideal import (
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
    render_decomposition,
)
from .kernels import EDGE_BUDGET, require_budget
from .multigraph import (
    Multigraph,
    ParallelClass,
    UnicyclicLayout,
    mask_edge_sets,
    recognize_unicyclic,
)
from .spanning import count_spanning_trees_layout, enumerate_spanning_trees_layout

EdgeSets = list[tuple[str, ...]]

# check name -> (invariant, oracle route, closed-form route), in report
# order.  The oracle route's value is the record's ``expected``; a
# closed-form route of None checks every route against the oracle.
CHECKS = {
    "facets:closed-form-vs-generic": ("facets", "generic", "closed_form"),
    "count:closed-form-vs-enumeration": ("count", "enumeration", "closed_form"),
    "fvector:closed-form-vs-bruteforce": ("f_vector", "bruteforce", "closed_form"),
    "fvector:tail-zero": ("tail", "zero", "closed_form"),
    "covers:closed-form-vs-generic": ("covers", "generic", "closed_form"),
    "euler:all-routes-agree": ("euler", "bruteforce", None),
}

# the text report's name for each route it prints
LABELS = {"closed_form": "closed form", "bruteforce": "brute force", "betti": "betti"}

# the layout's derived scalars in declaration order, the order both reports
# list them in, each with its text label (r_dprime is r''); then the class
# tuples it derives them from
SCALARS = {
    f.name: f.name.replace("_dprime", "''").replace("_prime", "'")
    for f in fields(UnicyclicLayout)
    if not f.init
}
CLASS_TUPLES = tuple(f.name for f in fields(UnicyclicLayout) if f.init)


@dataclass(frozen=True)
class Discrepancy:
    """One failed cross-check, with enough context to reproduce it."""

    check: str
    expected: object
    actual: object
    fingerprint: str


@dataclass
class AnalysisReport:
    """Everything the pipeline computed for one graph.

    ``routes[invariant][route]`` holds each route's value: a list of edge
    sets, an ``FVector``, a tuple of counts or an int.  A route that did
    not run is absent.
    """

    path: str | None
    fingerprint: str
    n_vertices: int
    n_edges: int
    oracle_enabled: bool
    layout: UnicyclicLayout | None = None
    layout_note: str | None = None
    dim: int | None = None
    routes: dict[str, dict[str, object]] = field(default_factory=lambda: defaultdict(dict))
    betti: BettiProfile | None = None
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def facets(self) -> EdgeSets | None:
        """Canonical facet list: the oracle's when it ran, else closed form."""
        return _listed(self.routes["facets"])

    @property
    def covers(self) -> EdgeSets | None:
        return _listed(self.routes["covers"])

    def to_json_dict(self) -> dict:
        layout = None
        if self.layout is not None:
            lay = self.layout
            layout = {name: getattr(lay, name) for name in SCALARS}
            for name in CLASS_TUPLES:
                layout[name] = [
                    dict(vars(c)) if isinstance(c, ParallelClass) else c for c in getattr(lay, name)
                ]
            layout["canonical_labels"] = lay.canonical_labels()
        count, f, euler = self.routes["count"], self.routes["f_vector"], self.routes["euler"]
        return {
            "schema": "spancomplex/analysis-v2",
            "input": {
                "path": self.path,
                "fingerprint": self.fingerprint,
                "vertices": self.n_vertices,
                "edges": self.n_edges,
            },
            "settings": {
                "budget": EDGE_BUDGET,
                "oracle": self.oracle_enabled,
            },
            "layout": layout,
            "layout_note": self.layout_note,
            "dimension": self.dim,
            "spanning_trees": {
                "count": _show(count.get("enumeration")),
                "count_closed_form": _show(count.get("closed_form")),
                "facets": self.facets,
            },
            "f_vector": {r: _show(f.get(r)) for r in ("closed_form", "bruteforce")},
            "euler_characteristic": {
                r: _show(euler.get(r)) for r in ("closed_form", "bruteforce", "betti")
            },
            "homology": (
                None
                if self.betti is None
                else {
                    "betti": [str(b) for b in self.betti.ranks],
                    "boundary_ranks": [str(r) for r in self.betti.boundary_ranks],
                    "grade_sizes": _show(f.get("bruteforce")),
                }
            ),
            "covers": self.covers,
            "discrepancies": [asdict(d) for d in self.discrepancies],
        }

    def render_text(self) -> str:
        lines = []
        src = self.path or "<memory>"
        lines.append(f"graph: {src} (fingerprint {self.fingerprint})")
        lines.append(f"vertices: {self.n_vertices}  edges: {self.n_edges}")
        if self.layout is not None:
            scalars = (f"{label}={getattr(self.layout, name)}" for name, label in SCALARS.items())
            lines.append("unicyclic layout: " + " ".join(scalars))
        if self.layout_note:
            lines.append(f"note: {self.layout_note}")
        if self.dim is not None:
            lines.append(f"dimension: {self.dim}")
        count = self.routes["count"]
        if "enumeration" in count:
            cf = f" (closed form {count['closed_form']})" if "closed_form" in count else ""
            lines.append(f"spanning trees: {count['enumeration']}{cf}")
        for route, fv in self.routes["f_vector"].items():
            lines.append(f"f-vector ({LABELS[route]}): " + " ".join(_show(fv)))
        euler = self.routes["euler"]
        if euler:
            lines.append(
                "euler characteristic: "
                + ", ".join(f"{LABELS[r].replace(' ', '-')} {v}" for r, v in euler.items())
            )
        if self.betti is not None:
            lines.append("betti numbers: " + " ".join(str(b) for b in self.betti.ranks))
            ranks = " ".join(
                f"rank d{i}={r}" for i, r in enumerate(self.betti.boundary_ranks) if i >= 1
            )
            if ranks:
                lines.append("boundary ranks: " + ranks)
        facets, covers = self.facets, self.covers
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


def _listed(values: dict[str, object]) -> EdgeSets | None:
    """The oracle's list when it ran, else the closed form's."""
    return values.get("generic", values.get("closed_form"))


def _show(value, other=()):
    """A route's value as the report prints it: an int as a decimal string,
    a sequence of counts as a list of them, and a list of edge sets as its
    entries that ``other`` does not match."""
    if value is None:
        return None
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return _unmatched(value, other)
    return [str(c) for c in value]


def run_analyze(
    g: Multigraph,
    *,
    no_oracle: bool = False,
    path: str | None = None,
) -> AnalysisReport:
    """Run every applicable route and cross-check them.

    When the oracle routes are enabled, first raises
    ``BudgetExceededError`` for a graph of more than
    ``kernels.EDGE_BUDGET`` edges.
    """
    if not no_oracle:
        require_budget(g.n_edges, "spanning tree enumeration")
    report = AnalysisReport(
        path=path,
        fingerprint=g.fingerprint(),
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        oracle_enabled=not no_oracle,
    )
    routes = report.routes

    layout: UnicyclicLayout | None = None
    try:
        layout = recognize_unicyclic(g)
    except NotUnicyclicError as exc:
        report.layout_note = f"closed forms skipped: {exc}"
    report.layout = layout

    if layout is not None:
        report.dim = dimension(layout)
        routes["count"]["closed_form"] = count_spanning_trees_layout(layout)
        routes["facets"]["closed_form"] = enumerate_spanning_trees_layout(layout)
        fv = routes["f_vector"]["closed_form"] = f_vector_closed_form(layout)
        tail = routes["tail"]["closed_form"] = tuple(closed_form_tail(layout))
        routes["tail"]["zero"] = (0,) * len(tail)
        routes["euler"]["closed_form"] = euler_characteristic(fv)
        routes["covers"]["closed_form"] = minimal_vertex_covers_closed_form(layout)

    if not no_oracle:
        faces = graded_faces(g)
        # g is connected, so its largest forests are its spanning trees
        routes["facets"]["generic"] = mask_edge_sets(faces.grades[-1], faces.edge_order[::-1])
        fv = routes["f_vector"]["bruteforce"] = FVector(faces.sizes())
        routes["euler"]["bruteforce"] = euler_characteristic(fv)
        report.betti = betti_from_faces(faces)
        routes["euler"]["betti"] = euler_from_betti(report.betti)
        routes["covers"]["generic"] = minimal_vertex_covers_generic(g)
        if report.dim is None:
            report.dim = fv.dim

    if report.facets is not None:
        routes["count"]["enumeration"] = len(report.facets)
    report.discrepancies = _checks(report)
    return report


def run_verify(g: Multigraph) -> list[Discrepancy]:
    """Cross-verify all closed forms against their oracles for one graph."""
    return run_analyze(g).discrepancies


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


def _checks(report: AnalysisReport) -> list[Discrepancy]:
    """One record per ``CHECKS`` row whose routes ran and differ."""
    out: list[Discrepancy] = []
    fp = report.fingerprint
    for check, (invariant, oracle, closed) in CHECKS.items():
        values = report.routes[invariant]
        if oracle not in values:
            continue
        expected = values[oracle]
        if closed is None:
            if any(v != expected for v in values.values()):
                actual = {route: _show(v) for route, v in values.items()}
                out.append(Discrepancy(check, _show(expected), actual, fp))
        elif closed in values and values[closed] != expected:
            actual = values[closed]
            out.append(Discrepancy(check, _show(expected, actual), _show(actual, expected), fp))
    return out

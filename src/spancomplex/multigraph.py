"""Finite connected multigraphs with parallel edges.

Vertices and edge ids are opaque strings.  Edges are unordered pairs of
distinct vertices; several edges may join the same pair (a parallel class).
A multigraph is *uni-cyclic* when its class-level quotient graph (one node
per vertex, one arc per parallel class) contains exactly one cycle, which
then has length >= 3.  ``recognize_unicyclic`` produces the canonical
layout used by every closed-form computation in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import kernels
from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeIdError,
    EmptyGraphError,
    GraphValidationError,
    LoopEdgeError,
    NotUnicyclicError,
    SchemaError,
    UnknownEndpointError,
)

Edge = tuple[str, tuple[str, str]]


@dataclass(frozen=True)
class Multigraph:
    """A validated, connected, loop-free multigraph.

    ``vertices`` and ``edges`` keep their input order; that order drives
    every deterministic tie-break downstream.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": eid, "ends": list(ends)} for eid, ends in self.edges],
        }

    def fingerprint(self) -> str:
        """Short content hash, stable across runs; used in reports."""
        import hashlib

        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class ParallelClass:
    """All edges sharing one unordered endpoint pair."""

    endpoints: tuple[str, str]  # sorted pair
    members: tuple[str, ...]  # edge ids in input order

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_multiple(self) -> bool:
        return len(self.members) >= 2

    @property
    def min_member(self) -> str:
        return min(self.members)


@dataclass(frozen=True)
class UnicyclicLayout:
    """Canonical layout of a uni-cyclic multigraph.

    ``cycle_classes`` holds the m classes of the unique quotient cycle in
    position order: the r' multiple classes first (positions 1..r', in
    traversal order), then the m-r' single classes (positions r'+1..m, in
    traversal order).  ``outside_multiple_classes`` occupy positions
    m+1..m+r''; ``outside_single_edges`` are the remaining v single edges.

    The paper's scalars are derived once from the three class tuples, the
    only constructor fields: n counts every class member plus the single
    edges, alpha the members of the cycle's multiple classes, beta those
    of the outside ones, and r = r' + r'', so n = alpha + (m - r') + beta + v.
    Their declaration order is the order in which ``analyze`` reports them,
    in JSON and in text, before the class tuples.
    """

    cycle_classes: tuple[ParallelClass, ...]
    outside_multiple_classes: tuple[ParallelClass, ...]
    outside_single_edges: tuple[str, ...]
    n: int = field(init=False)
    m: int = field(init=False)
    r_prime: int = field(init=False)
    r_dprime: int = field(init=False)
    r: int = field(init=False)
    alpha: int = field(init=False)
    beta: int = field(init=False)
    v: int = field(init=False)

    def __post_init__(self):
        cycle = [len(c.members) for c in self.cycle_classes if c.is_multiple]
        outside = [len(c.members) for c in self.outside_multiple_classes]
        v = len(self.outside_single_edges)
        # frozen, so the derived fields bypass the dataclass's __setattr__
        self.__dict__.update(
            n=sum(len(c.members) for c in self.cycle_classes) + sum(outside) + v,
            m=len(self.cycle_classes), r_prime=len(cycle), r_dprime=len(outside),
            r=len(cycle) + len(outside), alpha=sum(cycle), beta=sum(outside), v=v,
        )

    @property
    def multiple_cycle_classes(self) -> tuple[ParallelClass, ...]:
        return self.cycle_classes[: self.r_prime]

    @property
    def single_cycle_classes(self) -> tuple[ParallelClass, ...]:
        return self.cycle_classes[self.r_prime :]

    def canonical_labels(self) -> dict[str, str]:
        """Map every edge id to its positional label, in canonical order.

        Edges of the class at position h get ``e_{h,k}`` with k the member
        index (both 1-based); the v single edges outside the cycle get
        ``e_{a}`` with a = 1..v.
        """
        labels: dict[str, str] = {}
        positioned = self.cycle_classes + self.outside_multiple_classes
        for h, cls in enumerate(positioned, start=1):
            for k, eid in enumerate(cls.members, start=1):
                labels[eid] = f"e_{{{h},{k}}}"
        for a, eid in enumerate(self.outside_single_edges, start=1):
            labels[eid] = f"e_{{{a}}}"
        return labels


def build_multigraph(vertices, edges) -> Multigraph:
    """Validate raw vertex/edge lists and return a ``Multigraph``.

    ``edges`` is any iterable of ``(id, (u, v))`` records.  Vertices, edge
    ids and both ends of each record become strings; a record that is not
    such a pair raises ``GraphValidationError``.  The string records then
    go through the checks that graph files go through too
    (``_validated``).
    """
    records = []
    for i, record in enumerate(edges):
        try:
            eid, ends = record
        except (TypeError, ValueError):
            raise GraphValidationError(f"edge record {i} must be a pair (id, ends)") from None
        eid = str(eid)
        try:
            u, v = ends
        except (TypeError, ValueError):
            raise GraphValidationError(f"edge {eid!r} must join exactly two vertices") from None
        records.append((eid, (str(u), str(v))))
    return _validated(tuple(str(v) for v in vertices), records)


def _validated(vertices: tuple[str, ...], edges: list[Edge]) -> Multigraph:
    """The ``Multigraph`` of string vertices and ``(id, (u, v))`` string
    records, validated.

    Raises a distinct error per defect, in this order:
    ``EmptyGraphError``, ``GraphValidationError`` (a repeated vertex),
    then per edge ``DuplicateEdgeIdError``, ``UnknownEndpointError`` or
    ``LoopEdgeError``, and last ``DisconnectedGraphError`` (from
    ``kernels._flood``).  One loop over the edges validates them and
    builds the neighbour masks that the connectivity flood reads.
    """
    if not vertices:
        raise EmptyGraphError("vertex list is empty")
    if not edges:
        raise EmptyGraphError("edge list is empty; no spanning structure possible")
    index = dict(zip(vertices, range(len(vertices))))
    if len(index) != len(vertices):
        raise GraphValidationError(f"duplicate vertex identifier {_first_repeat(vertices)!r}")

    seen_ids: set[str] = set()
    nbrs = [0] * len(vertices)
    for eid, (u, v) in edges:
        if eid in seen_ids:
            raise DuplicateEdgeIdError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        iu = index.get(u)
        if iu is None:
            raise UnknownEndpointError(f"edge {eid!r} names unknown vertex {u!r}")
        iv = index.get(v)
        if iv is None:
            raise UnknownEndpointError(f"edge {eid!r} names unknown vertex {v!r}")
        if iu == iv:
            raise LoopEdgeError(f"edge {eid!r} is a loop on vertex {u!r}")
        nbrs[iu] |= 1 << iv
        nbrs[iv] |= 1 << iu

    reached = kernels._flood(nbrs, 1, -1)
    if reached != (1 << len(vertices)) - 1:
        missing = next(v for i, v in enumerate(vertices) if not reached >> i & 1)
        raise DisconnectedGraphError(f"vertex {missing!r} is unreachable")
    return Multigraph(vertices=vertices, edges=tuple(edges))


def parallel_classes(g: Multigraph) -> list[ParallelClass]:
    """Partition the edges into parallel classes.

    Class order is order of first appearance; member order is input order.
    """
    order: list[tuple[str, str]] = []
    groups: dict[tuple[str, str], list[str]] = {}
    for eid, (u, v) in g.edges:
        key = (u, v) if u <= v else (v, u)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(eid)
    return [ParallelClass(endpoints=k, members=tuple(groups[k])) for k in order]


def _quotient_cycle(g: Multigraph, classes: list[ParallelClass]) -> list[ParallelClass]:
    """Return the classes of the unique quotient cycle, in traversal order
    starting from an arbitrary cycle class.

    Raises ``NotUnicyclicError`` when the quotient is a tree or has more
    than one independent cycle.  Otherwise the cycle is exactly the
    quotient's arcs that are not bridges (``kernels.bridge_mask``).
    """
    n_nodes = g.n_vertices
    n_arcs = len(classes)
    if n_arcs == n_nodes - 1:
        raise NotUnicyclicError("quotient graph is a tree: no cycle of length >= 3")
    if n_arcs != n_nodes:
        raise NotUnicyclicError(
            f"quotient graph has {n_arcs - n_nodes + 1} independent cycles; expected 1"
        )

    index = {v: i for i, v in enumerate(g.vertices)}
    us = [index[c.endpoints[0]] for c in classes]
    vs = [index[c.endpoints[1]] for c in classes]
    bridges = kernels.bridge_mask(us, vs, n_nodes)
    cycle = [i for i in range(n_arcs) if not bridges >> i & 1]
    cycle_arcs: dict[int, list[int]] = {}  # node -> its two cycle arcs
    for i in cycle:
        cycle_arcs.setdefault(us[i], []).append(i)
        cycle_arcs.setdefault(vs[i], []).append(i)

    arc = cycle[0]
    ordered = [arc]
    first, node = us[arc], vs[arc]
    while node != first:
        a, b = cycle_arcs[node]
        arc = b if a == arc else a
        ordered.append(arc)
        node = vs[arc] if us[arc] == node else us[arc]
    return [classes[i] for i in ordered]


def recognize_unicyclic(g: Multigraph) -> UnicyclicLayout:
    """Recognize a uni-cyclic multigraph and fix its canonical labeling.

    Tie-breaks: the traversal starts at the cycle class whose smallest
    member edge id is lexicographically minimal, in the direction whose
    next class has the smaller minimal member id.  Multiple cycle classes
    take positions 1..r' in traversal order, single cycle classes
    r'+1..m; classes and single edges outside the cycle are ordered by
    their smallest member id.
    """
    classes = parallel_classes(g)
    cycle = _quotient_cycle(g, classes)

    # rotate to the canonical start and direction
    start_pos = min(range(len(cycle)), key=lambda i: cycle[i].min_member)
    forward = cycle[start_pos:] + cycle[:start_pos]
    backward = [forward[0]] + list(reversed(forward[1:]))
    traversal = forward if forward[1].min_member < backward[1].min_member else backward

    cyc_multiple = [c for c in traversal if c.is_multiple]
    cyc_single = [c for c in traversal if not c.is_multiple]
    on_cycle = {c.endpoints for c in traversal}
    outside = [c for c in classes if c.endpoints not in on_cycle]
    out_multiple = sorted((c for c in outside if c.is_multiple), key=lambda c: c.min_member)
    out_single = sorted(c.members[0] for c in outside if not c.is_multiple)

    return UnicyclicLayout(
        cycle_classes=tuple(cyc_multiple + cyc_single),
        outside_multiple_classes=tuple(out_multiple),
        outside_single_edges=tuple(out_single),
    )


def edge_endpoint_indices(g: Multigraph) -> tuple[list[int], list[int]]:
    """Endpoints of every edge as vertex indices, in edge input order."""
    v_index = {v: i for i, v in enumerate(g.vertices)}
    us = [v_index[u] for _, (u, _) in g.edges]
    vs = [v_index[w] for _, (_, w) in g.edges]
    return us, vs


def edge_sets(sets) -> list[tuple[str, ...]]:
    """The one list format of facets and covers: each set becomes its
    sorted edge-id tuple, and the list goes by size, then lexicographically.
    Every facet of a connected graph has |V|-1 edges, so facets are simply
    lexicographic."""
    out = sorted(tuple(sorted(s)) for s in sets)
    out.sort(key=len)
    return out


def id_ordered_indices(g: Multigraph) -> tuple[list[int], list[int], list[str]]:
    """Endpoints of every edge as vertex indices, with the edges by id,
    descending, and the ids in that order.

    The k-th smallest of n ids is edge n-1-k, so the highest bit of an
    edge mask is its smallest id, and of two masks of one size the
    larger holds the smallest id in which they differ: descending int
    order is the lexicographic order of their sorted id tuples
    (``mask_edge_sets``).
    """
    v_index = {v: i for i, v in enumerate(g.vertices)}
    edges = sorted(g.edges, reverse=True)  # ids are distinct: the ends never compare
    us = [v_index[u] for _, (u, _) in edges]
    vs = [v_index[w] for _, (_, w) in edges]
    return us, vs, [eid for eid, _ in edges]


def mask_edge_sets(masks, ids) -> list[tuple[str, ...]]:
    """``edge_sets`` of edge masks over ``id_ordered_indices``, with no
    string sort: the masks go by descending int, then stably by size,
    and each is read from its highest bit down, so its tuple comes out
    sorted."""
    out = []
    for m in sorted(masks, reverse=True):
        edges = []
        while m:
            b = m.bit_length() - 1
            edges.append(ids[b])
            m ^= 1 << b
        out.append(tuple(edges))
    out.sort(key=len)
    return out


def _first_repeat(items):
    """The first item that equals an earlier one (the caller knows one does)."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = _first_repeat(key for key, _ in pairs)
        raise SchemaError(f"duplicate key {key!r} in JSON object")
    return obj


_EDGE_KEYS = frozenset(("id", "ends"))


def multigraph_from_json(text: str) -> Multigraph:
    """Parse the graph file format.

    Expected shape: ``{"vertices": ["a", ...], "edges": [{"id": "e1",
    "ends": ["a", "b"]}, ...]}``.  Array order is significant.  Schema
    violations raise ``SchemaError`` naming the offending field; the
    string records it checks go straight to ``_validated``, the checks
    that ``build_multigraph`` ends with.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    except SchemaError:
        raise
    except ValueError as exc:  # past Python's limit on digits in an int
        raise SchemaError("invalid JSON: an integer literal has too many digits") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    extra = set(doc) - {"vertices", "edges"}
    if extra:
        raise SchemaError(f"unexpected key {sorted(extra)[0]!r}")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SchemaError("'vertices' must be an array of strings")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("'edges' must be an array")
    edges = []
    for i, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise SchemaError(f"edges[{i}] must be an object")
        if rec.keys() != _EDGE_KEYS:
            raise SchemaError(f"edges[{i}] must have exactly the keys 'id' and 'ends'")
        if not isinstance(rec["id"], str):
            raise SchemaError(f"edges[{i}].id must be a string")
        ends = rec["ends"]
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not isinstance(ends[0], str)
            or not isinstance(ends[1], str)
        ):
            raise SchemaError(f"edges[{i}].ends must be an array of two vertex names")
        edges.append((rec["id"], (ends[0], ends[1])))
    return _validated(tuple(verts), edges)


def load_graph_file(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"graph file is not UTF-8: invalid byte at offset {exc.start}") from exc
    return multigraph_from_json(text)

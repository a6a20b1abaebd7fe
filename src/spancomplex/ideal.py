"""Facet ideal, minimal vertex covers and primary decomposition.

Vertices of the complex are the edges of the multigraph, so a vertex
cover is an edge set meeting every spanning tree, which is one whose
deletion disconnects the graph: the minimal covers are its bonds.  The
facet ideal has one squarefree generator per facet and one minimal prime
per minimal cover, which gives its primary decomposition combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .multigraph import Multigraph, UnicyclicLayout, edge_endpoint_indices


@dataclass(frozen=True, order=True)
class VertexCover:
    """An inclusion-minimal edge set meeting every facet."""

    edge_ids: tuple[str, ...]

    @staticmethod
    def of(ids) -> "VertexCover":
        return VertexCover(tuple(sorted(ids)))


@dataclass(frozen=True)
class MonomialIdealView:
    """Rendering-oriented view of the facet ideal.

    ``generators`` holds one sorted edge-id tuple per facet;
    ``components`` one per minimal prime (= minimal vertex cover).
    Either may be empty when only the other side was computed.
    """

    generators: tuple[tuple[str, ...], ...] = ()
    components: tuple[tuple[str, ...], ...] = ()

    def render_generators(self) -> str:
        mons = ["".join(_variable(e) for e in gen) for gen in self.generators]
        return "⟨" + ", ".join(mons) + "⟩"

    def render_decomposition(self) -> str:
        primes = ["(" + ",".join(_variable(e) for e in comp) + ")" for comp in self.components]
        return " ∩ ".join(primes)

    def to_json_dict(self) -> dict:
        return {
            "generators": [list(g) for g in self.generators],
            "components": [list(c) for c in self.components],
        }


def _variable(edge_id: str) -> str:
    return "x_{%s}" % edge_id


def _cover_sort_key(c: VertexCover):
    return (len(c.edge_ids), c.edge_ids)


def minimal_vertex_covers_generic(g: Multigraph) -> list[VertexCover]:
    """The minimal vertex covers of the complex: the bonds of ``g``, the
    cuts δ(S) with S and V∖S both connected, each re-verified on ``g``.

    S holds the first vertex; a neighbour of S is added to it or excluded
    for good (Tsukiyama, Shirakawa, Ozaki & Ariyoshi, JACM 1980).  A branch
    is kept only while every excluded vertex lies in one component of
    G − S.  One branch always passes, and a node with no neighbour left to
    decide is a bond, so the work is O(V·E) per bond.
    """
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    nbrs = _neighbour_masks(g.n_vertices, us, vs, removed=())
    covers: list[VertexCover] = []

    def one_component(s: int, excluded: int) -> bool:
        return not excluded & ~_flood(nbrs, excluded & -excluded, ~s)

    stack = [(1, nbrs[0], 0)]  # (S, its neighbours, excluded), as vertex masks
    while stack:
        s, reach, excluded = stack.pop()
        candidates = reach & ~s & ~excluded
        if candidates:
            u = candidates & -candidates
            if one_component(s, excluded | u):
                stack.append((s, reach, excluded | u))
            if one_component(s | u, excluded):
                stack.append((s | u, reach | nbrs[u.bit_length() - 1], excluded))
        elif excluded:
            cut = [e for e, (a, b) in enumerate(zip(us, vs)) if (s >> a ^ s >> b) & 1]
            _assert_bond(g.n_vertices, us, vs, cut, ids)
            covers.append(VertexCover.of(ids[e] for e in cut))
    return sorted(covers, key=_cover_sort_key)


def _neighbour_masks(n: int, us, vs, removed) -> list[int]:
    nbrs = [0] * n
    for e, (u, v) in enumerate(zip(us, vs)):
        if e not in removed:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    return nbrs


def _flood(nbrs: list[int], seen: int, allowed: int) -> int:
    """The vertices of ``allowed`` reachable from the mask ``seen``, with ``seen``."""
    frontier = seen
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen


def _assert_bond(n: int, us, vs, cut: list[int], ids) -> None:
    """An edge set is a minimal disconnecting set exactly when deleting it
    leaves two components and each of its edges joins them."""
    nbrs = _neighbour_masks(n, us, vs, removed=set(cut))
    side = _flood(nbrs, 1, -1)
    rest = (1 << n) - 1 & ~side
    if not rest or _flood(nbrs, rest & -rest, -1) != rest:
        raise AssertionError(f"{[ids[e] for e in cut]} does not leave exactly two components")
    for e in cut:
        if not (side >> us[e] ^ side >> vs[e]) & 1:
            raise AssertionError(f"{[ids[e] for e in cut]} is not minimal: {ids[e]} is redundant")


def minimal_vertex_covers_closed_form(layout: UnicyclicLayout) -> list[VertexCover]:
    """Minimal vertex covers of a uni-cyclic layout, by family.

    Five families, disjoint by what their covers hold: every single edge
    outside the cycle on its own; a full multiple cycle class plus one
    single cycle edge; a pair of single cycle edges; a pair of full
    multiple cycle classes; a full multiple class outside the cycle.  Each
    cover is built once, from its one choice in its one family.
    """
    singles = [c.members[0] for c in layout.single_cycle_classes]
    multis = [c.members for c in layout.multiple_cycle_classes]
    covers = [VertexCover((e,)) for e in layout.outside_single_edges]
    covers += [VertexCover.of(cls + (s,)) for cls in multis for s in singles]
    covers += [VertexCover.of(pair) for pair in combinations(singles, 2)]
    covers += [VertexCover.of(a + b) for a, b in combinations(multis, 2)]
    covers += [VertexCover.of(c.members) for c in layout.outside_multiple_classes]
    covers.sort(key=_cover_sort_key)
    return covers


def facet_ideal(facets) -> MonomialIdealView:
    """One squarefree monomial generator per facet, in canonical order."""
    facets = sorted(facets)
    if not facets:
        raise ValueError("facet set is empty")
    return MonomialIdealView(generators=tuple(f.edge_ids for f in facets))


def primary_decomposition(covers) -> MonomialIdealView:
    """One prime component per minimal vertex cover."""
    ordered = sorted(covers, key=_cover_sort_key)
    return MonomialIdealView(components=tuple(c.edge_ids for c in ordered))


def monomial_divisible_by_some_generator(edge_subset, view: MonomialIdealView) -> bool:
    """Squarefree membership test: some generator divides prod(x_e, e in subset)."""
    s = set(edge_subset)
    return any(set(gen) <= s for gen in view.generators)

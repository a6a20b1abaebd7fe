"""Minimal vertex covers, and the facet ideal's primary decomposition.

Vertices of the complex are the edges of the multigraph, so a vertex
cover is an edge set meeting every spanning tree, which is one whose
deletion disconnects the graph: the minimal covers are its bonds.  Each
bridge is a bond on its own and lies in no other bond, so the generic
route takes the bridges from one depth-first search
(``kernels.bridge_mask``), contracts them, and walks the bonds of what
is left; the walk and the re-check of every cover on the graph test
connectivity with ``kernels._flood``.  Both routes list covers, like
facets, through ``multigraph.edge_sets``.  The facet ideal has
one squarefree generator per facet and one minimal prime per minimal
cover, so its generators are the spanning tree list and its primary
decomposition is the cover list; ``render_decomposition`` writes the
latter as an intersection of primes.
"""

from __future__ import annotations

from itertools import combinations

from . import kernels
from .multigraph import Multigraph, UnicyclicLayout, edge_endpoint_indices, edge_sets


def render_decomposition(covers) -> str:
    """The primary decomposition, one prime (x_{a},x_{b},…) per cover, joined by ∩."""
    return " ∩ ".join("(" + ",".join("x_{%s}" % e for e in c) + ")" for c in covers)


def minimal_vertex_covers_generic(g: Multigraph) -> list[tuple[str, ...]]:
    """The minimal vertex covers of the complex: the bonds of ``g``, the
    cuts δ(S) with S and V∖S both connected, each re-verified on ``g``.

    A bridge is a bond on its own.  The other bonds are those of ``g``
    with its bridges contracted, the core, whose every edge lies on a
    cycle.  On the core, S holds the first vertex; a neighbour of S is
    added to it or excluded for good (Tsukiyama, Shirakawa, Ozaki &
    Ariyoshi, JACM 1980).  A branch is kept only while every excluded
    vertex lies in one component of G − S.  One branch always passes, and
    a node with no neighbour left to decide is a bond, so the work is
    O(V·E) per bond.
    """
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    bridges = kernels.bridge_mask(us, vs, g.n_vertices)
    core, cus, cvs, k = kernels.contract_bridges(us, vs, g.n_vertices, bridges)
    cuts = [[e] for e in range(g.n_edges) if bridges >> e & 1]
    nbrs = kernels._neighbour_masks(k, cus, cvs, removed=())

    def one_component(s: int, excluded: int) -> bool:
        return not excluded & ~kernels._flood(nbrs, excluded & -excluded, ~s)

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
            cuts.append([e for e, a, b in zip(core, cus, cvs) if (s >> a ^ s >> b) & 1])
    for cut in cuts:
        _assert_bond(g.n_vertices, us, vs, cut, ids)
    return edge_sets([ids[e] for e in cut] for cut in cuts)


def _assert_bond(n: int, us, vs, cut: list[int], ids) -> None:
    """An edge set is a minimal disconnecting set exactly when deleting it
    leaves two components and each of its edges joins them."""
    nbrs = kernels._neighbour_masks(n, us, vs, removed=set(cut))
    side = kernels._flood(nbrs, 1, -1)
    rest = (1 << n) - 1 & ~side
    if not rest or kernels._flood(nbrs, rest & -rest, -1) != rest:
        raise AssertionError(f"{[ids[e] for e in cut]} does not leave exactly two components")
    for e in cut:
        if not (side >> us[e] ^ side >> vs[e]) & 1:
            raise AssertionError(f"{[ids[e] for e in cut]} is not minimal: {ids[e]} is redundant")


def minimal_vertex_covers_closed_form(layout: UnicyclicLayout) -> list[tuple[str, ...]]:
    """Minimal vertex covers of a uni-cyclic layout, by family.

    Five families, disjoint by what their covers hold: every single edge
    outside the cycle on its own; a full multiple cycle class plus one
    single cycle edge; a pair of single cycle edges; a pair of full
    multiple cycle classes; a full multiple class outside the cycle.  Each
    cover is built once, from its one choice in its one family.
    """
    singles = [c.members[0] for c in layout.single_cycle_classes]
    multis = [c.members for c in layout.multiple_cycle_classes]
    covers = [(e,) for e in layout.outside_single_edges]
    covers += [cls + (s,) for cls in multis for s in singles]
    covers += combinations(singles, 2)
    covers += [a + b for a, b in combinations(multis, 2)]
    covers += [c.members for c in layout.outside_multiple_classes]
    return edge_sets(covers)


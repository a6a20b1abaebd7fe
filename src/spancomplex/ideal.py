"""Minimal vertex covers, and the facet ideal's primary decomposition.

Vertices of the complex are the edges of the multigraph, so a vertex
cover is an edge set meeting every spanning tree, which is one whose
deletion disconnects the graph: the minimal covers are its bonds.  A
bond holds every member of a parallel class or none, so the generic
route walks the bonds on the class quotient with its bridge arcs
contracted (``kernels._contracted_quotient``), the structure that the
tree lister branches on too.  Each class whose arc is a bridge of the
quotient is a bond on its own and lies in no other bond; one component
count certifies all of them at once, and each other bond is re-checked
on the graph; the walk and both checks test connectivity with
``kernels._flood``.

The facet ideal has one squarefree generator per facet and one minimal
prime per minimal cover, so its generators are the spanning tree list
and its primary decomposition is the cover list.
``facet_ideal_generic`` lists both from one contracted quotient, with
the edges by id, so both lists decode from masks already in order
(``multigraph.mask_edge_sets``); ``covers --json`` prints it.
``minimal_vertex_covers_generic`` lists the bonds alone, for ``analyze``
and text-mode ``covers``, with the edges in input order and through
``multigraph.edge_sets``, as the closed form lists its covers;
``render_decomposition`` writes the cover list as an intersection of
primes.
"""

from __future__ import annotations

from itertools import combinations

from . import kernels
from .multigraph import (
    Multigraph,
    UnicyclicLayout,
    edge_endpoint_indices,
    edge_sets,
    id_ordered_indices,
    mask_edge_sets,
)


def render_decomposition(covers) -> str:
    """The primary decomposition, one prime (x_{a},x_{b},…) per cover, joined by ∩."""
    return " ∩ ".join("(" + ",".join("x_{%s}" % e for e in c) + ")" for c in covers)


def minimal_vertex_covers_generic(g: Multigraph) -> list[tuple[str, ...]]:
    """The minimal vertex covers of the complex: the bonds of ``g``, the
    cuts δ(S) with S and V∖S both connected, each certified on ``g``
    (``_bonds``), with the edges in input order: for the bonds alone,
    the id-order decode of ``facet_ideal_generic`` measured no faster."""
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    bonds = _bonds(kernels._contracted_quotient(us, vs, g.n_vertices), g.n_vertices, us, vs, ids)
    return edge_sets([ids[e] for e in bond] for bond in bonds)


def facet_ideal_generic(g: Multigraph) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """The facet ideal's generators and its primary decomposition: the
    spanning trees and the bonds of ``g``, listed as
    ``spanning.enumerate_spanning_trees_generic`` and
    ``minimal_vertex_covers_generic`` list them, from one contracted
    class quotient (``kernels._contracted_quotient``).  The edges go by
    id (``id_ordered_indices``), so both lists decode from edge masks
    already in order."""
    us, vs, ids = id_ordered_indices(g)
    quotient = kernels._contracted_quotient(us, vs, g.n_vertices)
    bonds = [sum(1 << e for e in bond) for bond in _bonds(quotient, g.n_vertices, us, vs, ids)]
    return mask_edge_sets(kernels._tree_masks(quotient), ids), mask_edge_sets(bonds, ids)


def _bonds(quotient, n: int, us, vs, ids) -> list[list[int]]:
    """Every bond of the connected graph on ``n`` vertices whose edge i
    joins ``us[i]`` and ``vs[i]``, as a list of edge indices, walked on
    its contracted class quotient (``kernels._contracted_quotient``).

    Parallel edges fall on the same side of every cut, so a cut holds
    every member of each arc it crosses.  A class whose arc is a bridge
    of the quotient is a bond on its own; the other bonds are those of
    the core, the quotient with its bridge arcs contracted, whose every
    arc lies on a cycle.  On the core, S holds the first vertex; a
    neighbour of S is added to it or excluded for good (Tsukiyama,
    Shirakawa, Ozaki & Ariyoshi, JACM 1980).  A branch is kept only
    while every excluded vertex lies in one component of G − S.  One
    branch always passes, and a node with no neighbour left to decide is
    a bond, so the work is O(V·E) per bond.  The bridge classes are
    certified together (``_assert_bridge_classes``) and every core bond
    on its own (``_assert_bond``), on the graph itself; ``ids`` names
    the edges in their messages.
    """
    members, bridges, core, cus, cvs, nbrs = quotient
    edges = [[b.bit_length() - 1 for b in bits] for bits in members]
    classes = [edges[a] for a in range(len(edges)) if bridges >> a & 1]

    def one_component(s: int, excluded: int) -> bool:
        return not excluded & ~kernels._flood(nbrs, excluded & -excluded, ~s)

    cuts = []
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
            cuts.append(
                [e for a, x, y in zip(core, cus, cvs) if (s >> x ^ s >> y) & 1 for e in edges[a]]
            )
    _assert_bridge_classes(n, us, vs, classes, ids)
    for cut in cuts:
        _assert_bond(n, us, vs, cut, ids)
    return classes + cuts


def _assert_bridge_classes(n: int, us, vs, classes: list[list[int]], ids) -> None:
    """Certify that every edge set in ``classes`` is a bond, all at once.

    Each set must be one parallel class, its edges joining one vertex
    pair, and deleting all the sets from the connected graph must leave
    exactly ``len(classes) + 1`` components, counted with one flood per
    component.  Contracting those components then leaves a connected
    graph with ``len(classes)`` arcs on ``len(classes) + 1`` nodes: a
    tree, each of whose arcs is a bond.
    """
    for cls in classes:
        if len({(min(us[e], vs[e]), max(us[e], vs[e])) for e in cls}) != 1:
            raise AssertionError(f"{[ids[e] for e in cls]} is not one parallel class")
    nbrs = kernels._neighbour_masks(n, us, vs, removed={e for cls in classes for e in cls})
    rest = (1 << n) - 1
    components = 0
    while rest:
        rest &= ~kernels._flood(nbrs, rest & -rest, -1)
        components += 1
    if components != len(classes) + 1:
        raise AssertionError(
            f"{[[ids[e] for e in cls] for cls in classes]} leave {components} components, "
            f"not {len(classes) + 1}"
        )


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


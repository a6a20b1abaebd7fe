"""Minimal vertex covers, and the facet ideal's primary decomposition.

Vertices of the complex are the edges of the multigraph, so a vertex
cover is an edge set meeting every spanning tree, which is one whose
deletion disconnects the graph: the minimal covers are its bonds, the
blocker of the spanning trees.  Two routes check a cover list.

``is_blocker`` certifies a list of edge masks against the complete list
of spanning trees alone, completeness included, with one AND per (tree,
cover) pair; the rank is read off the trees.  ``certified_covers`` runs
it on a closed-form list, for ``analyze`` and ``verify`` on a uni-cyclic
graph, whose trees the face oracle has already listed, and decodes the
certified masks.

The bond walk lists the bonds itself, for the graphs that are not
uni-cyclic, for a closed-form list that fails the certificate, and for
``covers``.  A bond holds every member of a parallel class or none, so
it walks the bonds on the class quotient with its bridge arcs
contracted (``kernels._contracted_quotient``), the structure that the
tree lister branches on too, and carries each cut's edge mask as it
grows one side.  Each class whose arc is a bridge of the quotient is a
bond on its own and lies in no other bond; one component count
certifies all of them at once, and each other bond is re-checked on its
own.  Both checks read one view of the graph, its neighbour masks and
each edge's parallel class (``_graph``), built once per walk, and test
connectivity with ``kernels._flood``.

The facet ideal has one squarefree generator per facet and one minimal
prime per minimal cover, so its generators are the spanning tree list
and its primary decomposition is the cover list.
``minimal_vertex_covers_generic`` lists the bonds alone, for ``analyze``
and ``verify`` where the certificate does not stand in, and for text
``covers``; ``facet_ideal_generic`` lists both from one contracted
quotient, for ``covers --json``.  Every route takes the edges by id, so
each cover is an edge mask that decodes already in order
(``multigraph.mask_edge_sets``); ``render_decomposition`` writes the
cover list as an intersection of primes.
"""

from __future__ import annotations

from itertools import combinations

from . import kernels
from .multigraph import Multigraph, UnicyclicLayout, edge_sets, id_ordered_indices, mask_edge_sets


def render_decomposition(covers) -> str:
    """The primary decomposition, one prime (x_{a},x_{b},…) per cover, joined by ∩."""
    return " ∩ ".join("(" + ",".join("x_{%s}" % e for e in c) + ")" for c in covers)


def minimal_vertex_covers_generic(g: Multigraph) -> list[tuple[str, ...]]:
    """The minimal vertex covers of the complex: the bonds of ``g``, the
    cuts δ(S) with S and V∖S both connected, each certified on ``g``
    (``_bonds``), with the edges by id (``id_ordered_indices``), so the
    bond masks decode already in order: the bond half of
    ``facet_ideal_generic``."""
    us, vs, ids = id_ordered_indices(g)
    bonds = _bonds(kernels._contracted_quotient(us, vs, g.n_vertices), g.n_vertices, us, vs, ids)
    return mask_edge_sets(bonds, ids)


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
    bonds = _bonds(quotient, g.n_vertices, us, vs, ids)
    return mask_edge_sets(kernels._tree_masks(quotient), ids), mask_edge_sets(bonds, ids)


def certified_covers(covers, trees, ids) -> list[tuple[str, ...]] | None:
    """The edge sets ``covers``, listed as ``minimal_vertex_covers_generic``
    lists the bonds, when ``is_blocker`` proves them exactly the bonds of
    the connected graph whose spanning trees are the edge masks ``trees``;
    else None.

    Bit b of a mask is the edge ``ids[b]``, as ``id_ordered_indices``
    lays them out.  The list is decoded from the certified masks
    (``mask_edge_sets``), never passed through, so a list that holds the
    right sets in another order differs from what comes back.
    """
    bit = {e: 1 << b for b, e in enumerate(ids)}
    # the sum of a set of distinct bits is their OR, a repeated edge counted once
    masks = [sum({bit[e] for e in cover}) for cover in covers]
    if not is_blocker(trees, masks):
        return None
    return mask_edge_sets(masks, ids)


def is_blocker(trees, covers: list[int]) -> bool:
    """Whether the edge masks ``covers`` are exactly the bonds of a graph
    whose spanning trees are the edge masks ``trees``, all of them.

    The minimal edge sets that meet every spanning tree are the bonds, so
    the bonds are the blocker of the trees (Edmonds & Fulkerson,
    "Bottleneck extrema", 1970; Oxley, *Matroid Theory*, §2.1).  For a
    tree T and an edge e of T, exactly one bond C has T ∩ C = {e}, the
    fundamental cocircuit of e, and every bond is fundamental for some
    pair.  So the list is the bond list exactly when:

    - every tree meets every listed set, so each one holds a bond;
    - each edge e of each listed set C has a tree T with T ∩ C = {e},
      so C without e misses a tree, and C is a bond;
    - no set repeats, so no bond is counted twice;
    - the (tree, set) pairs that meet in one edge are as many as the
      trees have edges in all: one per fundamental cocircuit, so none is
      missing.

    One AND per (tree, set) pair checks all four; the rank is read off
    the trees.
    """
    if len(set(covers)) != len(covers):
        return False
    singles = 0
    for c in covers:
        witnessed = 0
        for t in trees:
            x = t & c
            if not x:
                return False
            if not x & (x - 1):
                witnessed |= x
                singles += 1
        if witnessed != c:
            return False
    return singles == sum(t.bit_count() for t in trees)


def _bonds(quotient, n: int, us, vs, ids) -> list[int]:
    """Every bond of the connected graph on ``n`` vertices whose edge i
    joins ``us[i]`` and ``vs[i]``, as an edge mask, walked on its
    contracted class quotient (``kernels._contracted_quotient``).

    Parallel edges fall on the same side of every cut, so a cut holds
    every member of each arc it crosses: a bond is the sum, the OR, of
    its arcs' disjoint member bits.  A class whose arc is a bridge of the
    quotient is a bond on its own; the other bonds are those of the
    core, the quotient with its bridge arcs contracted, whose every arc
    lies on a cycle.  On the core, S holds the first vertex; a neighbour
    of S is added to it or excluded for good (Tsukiyama, Shirakawa, Ozaki
    & Ariyoshi, JACM 1980).  A branch is kept only while every excluded
    vertex lies in one component of G − S.  One branch always passes,
    and a node with no neighbour left to decide is a bond, so the work is
    O(V·E) per bond.  Each branch carries δ(S) as an edge mask: ``star[x]``
    is the XOR of the member bits of the core arcs at vertex x, and x
    joining S XORs it in, so the arcs inside S cancel.

    Both checks read one view of the graph itself (``_graph``): the
    bridge classes are certified together (``_assert_bridge_classes``)
    and every core bond on its own (``_assert_bond``); ``ids`` names the
    edges in their messages, sorted.
    """
    members, bridges, core, cus, cvs, nbrs = quotient
    arcs = [sum(bits) for bits in members]
    classes = [arcs[a] for a in range(len(arcs)) if bridges >> a & 1]
    star = [0] * len(nbrs)
    for a, x, y in zip(core, cus, cvs):
        star[x] ^= arcs[a]
        star[y] ^= arcs[a]

    def one_component(s: int, excluded: int) -> bool:
        return not excluded & ~kernels._flood(nbrs, excluded & -excluded, ~s)

    cuts = []
    stack = [(1, nbrs[0], 0, star[0])]  # S, its neighbours, excluded as vertex masks; δ(S)
    while stack:
        s, reach, excluded, cut = stack.pop()
        candidates = reach & ~s & ~excluded
        if candidates:
            u = candidates & -candidates
            if one_component(s, excluded | u):
                stack.append((s, reach, excluded | u, cut))
            if one_component(s | u, excluded):
                x = u.bit_length() - 1
                stack.append((s | u, reach | nbrs[x], excluded, cut ^ star[x]))
        elif excluded:
            cuts.append(cut)
    graph = _graph(n, us, vs)
    _assert_bridge_classes(us, vs, classes, ids, graph)
    for cut in cuts:
        _assert_bond(us, vs, cut, ids, graph)
    return classes + cuts


def _assert_bridge_classes(us, vs, classes: list[int], ids, graph) -> None:
    """Certify that every edge mask in ``classes`` is a bond, all at once.

    Each set must lie in one parallel class (``graph``, from ``_graph``),
    and deleting all the sets from the connected graph must leave
    exactly ``len(classes) + 1`` components, counted with one flood per
    component.  Contracting those components then leaves a connected
    graph with ``len(classes)`` arcs on ``len(classes) + 1`` nodes: a
    tree, each of whose arcs is a bond.
    """
    nbrs, parallel = graph
    for cls in classes:
        if not cls or cls & ~parallel[cls.bit_length() - 1]:
            named = sorted(mask_edge_sets([cls], ids)[0])
            raise AssertionError(f"{named} is not one parallel class")
    nbrs = kernels._neighbour_masks(len(nbrs), us, vs, removed=sum(classes))
    rest = (1 << len(nbrs)) - 1
    components = 0
    while rest:  # from the highest vertex down, so ``rest`` narrows as it goes
        rest ^= kernels._flood(nbrs, 1 << rest.bit_length() - 1, rest)
        components += 1
    if components != len(classes) + 1:
        named = [sorted(mask_edge_sets([cls], ids)[0]) for cls in classes]
        raise AssertionError(f"{named} leave {components} components, not {len(classes) + 1}")


def _graph(n: int, us, vs) -> tuple[list[int], list[int]]:
    """The graph's neighbour masks, and for each edge the edge mask of its
    parallel class, the edges that join its two ends: the one view of the
    graph that both bond checks read."""
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
    classes = {}
    for e, pair in enumerate(pairs):
        classes[pair] = classes.get(pair, 0) | 1 << e
    return kernels._neighbour_masks(n, us, vs, removed=0), [classes[p] for p in pairs]


def _assert_bond(us, vs, cut: int, ids, graph) -> None:
    """An edge set is a minimal disconnecting set exactly when deleting it
    leaves two components and each of its edges joins them.

    Deleting it clears, in the graph's neighbour masks (``graph``, from
    ``_graph``), only the vertex pairs whose every edge it holds.
    """
    nbrs, parallel = graph
    edges = kernels._set_bits(cut)
    nbrs = nbrs[:]
    for e in edges:
        if not parallel[e] & ~cut:
            u, v = us[e], vs[e]
            nbrs[u] &= ~(1 << v)
            nbrs[v] &= ~(1 << u)
    side = kernels._flood(nbrs, 1, -1)
    rest = (1 << len(nbrs)) - 1 & ~side
    if not rest or kernels._flood(nbrs, rest & -rest, -1) != rest:
        named = sorted(mask_edge_sets([cut], ids)[0])
        raise AssertionError(f"{named} does not leave exactly two components")
    for e in edges:
        if not (side >> us[e] ^ side >> vs[e]) & 1:
            named = sorted(mask_edge_sets([cut], ids)[0])
            raise AssertionError(f"{named} is not minimal: {ids[e]} is redundant")


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


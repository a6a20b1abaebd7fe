"""Spanning tree enumeration and counting.

Two independent routes produce the facet set of the spanning simplicial
complex: a closed form over the canonical uni-cyclic layout, and a
generic backtracking enumeration of the spanning trees of any connected
multigraph, which uses no layout information.  Their agreement is a core
verification invariant of this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from . import kernels
from .multigraph import Multigraph, UnicyclicLayout, edge_endpoint_indices


@dataclass(frozen=True, order=True)
class Facet:
    """A spanning tree, as its canonically sorted edge-id tuple."""

    edge_ids: tuple[str, ...]

    @staticmethod
    def of(ids) -> "Facet":
        return Facet(tuple(sorted(ids)))


def enumerate_spanning_trees_layout(layout: UnicyclicLayout) -> list[Facet]:
    """All spanning trees of a uni-cyclic multigraph, by direct construction.

    Pick one representative from every multiple class (on and off the
    cycle), keep all single edges, then delete one edge of the resulting
    cycle; the deleted cycle edge must be the representative that was
    picked for its class.  Equal edge sets arising from different picks
    collapse.  Output is sorted lexicographically.
    """
    single_edges = [c.members[0] for c in layout.single_cycle_classes]
    single_edges += list(layout.outside_single_edges)
    cyc_multi = [c.members for c in layout.multiple_cycle_classes]
    out_multi = [c.members for c in layout.outside_multiple_classes]

    trees: set[tuple[str, ...]] = set()
    for cyc_pick in product(*cyc_multi):
        # cycle edges present before the deletion step
        cycle_edges = list(cyc_pick) + [c.members[0] for c in layout.single_cycle_classes]
        for out_pick in product(*out_multi):
            base = set(cyc_pick) | set(out_pick) | set(single_edges)
            for deleted in cycle_edges:
                trees.add(tuple(sorted(base - {deleted})))
    return [Facet(t) for t in sorted(trees)]


def enumerate_spanning_trees_generic(g: Multigraph) -> list[Facet]:
    """Oracle route: all spanning trees, by backtracking over the edges.

    Each edge is taken only if it closes no cycle and left out only if
    the rest still connects the graph (``kernels.spanning_tree_masks``),
    so no branch is a dead end and the work grows with the number of
    trees, not of forests.  Output is sorted lexicographically.
    """
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    facets = [
        Facet.of(ids[i] for i in range(g.n_edges) if mask >> i & 1)
        for mask in kernels.spanning_tree_masks(g.n_edges, us, vs, g.n_vertices)
    ]
    facets.sort()
    return facets


def count_spanning_trees_layout(layout: UnicyclicLayout) -> int:
    """Closed-form spanning tree count implied by the choice structure:
    (product of outside multiplicities) * sum over cycle positions w of
    the product of the other cycle multiplicities."""
    outside = prod(c.size for c in layout.outside_multiple_classes)
    sizes = layout.cycle_class_sizes()
    total = prod(sizes)
    per_deletion = sum(total // sizes[w] for w in range(layout.m))
    return outside * per_deletion

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

    A spanning tree leaves out one whole cycle class and keeps one edge of
    every other class, on and off the cycle; a single edge outside the
    cycle is a class of one.  Each choice of the omitted class and the kept
    edges builds one tree, and different choices build different trees.
    Output is sorted lexicographically.
    """
    cycle = [c.members for c in layout.cycle_classes]
    outside = [c.members for c in layout.outside_multiple_classes]
    outside += [(e,) for e in layout.outside_single_edges]
    facets = [
        Facet.of(pick)
        for w in range(layout.m)
        for pick in product(*cycle[:w], *cycle[w + 1 :], *outside)
    ]
    facets.sort()
    return facets


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

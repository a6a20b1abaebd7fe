"""Spanning tree enumeration and counting.

Two independent routes produce the facet set of the spanning simplicial
complex: a closed form over the canonical uni-cyclic layout, and a
generic backtracking enumeration of the spanning trees of any connected
multigraph, which uses no layout information.  Both list their trees
through ``multigraph.edge_sets``.  The backtracking route backs the
``facets`` and ``covers --json`` commands; ``analyze`` and ``verify``
read their oracle facets off the top grade of ``homology.graded_faces``
instead, so only the tests compare the backtracking route with the
closed form.
"""

from __future__ import annotations

from itertools import product
from math import prod

from . import kernels
from .multigraph import Multigraph, UnicyclicLayout, edge_endpoint_indices, edge_sets


def enumerate_spanning_trees_layout(layout: UnicyclicLayout) -> list[tuple[str, ...]]:
    """All spanning trees of a uni-cyclic multigraph, by direct construction.

    A spanning tree leaves out one whole cycle class and keeps one edge of
    every other class, on and off the cycle; a single edge outside the
    cycle is a class of one.  Each choice of the omitted class and the kept
    edges builds one tree, and different choices build different trees.
    """
    cycle = [c.members for c in layout.cycle_classes]
    outside = [c.members for c in layout.outside_multiple_classes]
    outside += [(e,) for e in layout.outside_single_edges]
    return edge_sets(
        pick for w in range(layout.m) for pick in product(*cycle[:w], *cycle[w + 1 :], *outside)
    )


def enumerate_spanning_trees_generic(g: Multigraph) -> list[tuple[str, ...]]:
    """Oracle route: all spanning trees, by backtracking over the edges.

    Each edge is taken only if it closes no cycle and left out only if
    the rest still connects the graph (``kernels.spanning_tree_masks``),
    so no branch is a dead end and the work grows with the number of
    trees, not of forests.
    """
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    return edge_sets(
        [ids[i] for i in range(g.n_edges) if mask >> i & 1]
        for mask in kernels.spanning_tree_masks(us, vs, g.n_vertices)
    )


def count_spanning_trees_layout(layout: UnicyclicLayout) -> int:
    """Closed-form spanning tree count implied by the choice structure:
    (product of outside multiplicities) * sum over cycle positions w of
    the product of the other cycle multiplicities."""
    outside = prod(c.size for c in layout.outside_multiple_classes)
    sizes = [c.size for c in layout.cycle_classes]
    total = prod(sizes)
    per_deletion = sum(total // sizes[w] for w in range(layout.m))
    return outside * per_deletion

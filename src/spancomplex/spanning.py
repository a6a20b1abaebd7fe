"""Spanning tree enumeration and counting.

Two independent routes produce the facet set of the spanning simplicial
complex: a closed form over the canonical uni-cyclic layout, and a
generic backtracking enumeration of the spanning trees of any connected
multigraph, which uses no layout information.  The closed form lists
its trees through ``multigraph.edge_sets``.  The backtracking route
indexes the edges by id (``multigraph.id_ordered_indices``), so sorting
its tree masks as ints puts them in lexicographic order, and each mask
decodes once into its sorted id tuple (``multigraph.mask_edge_sets``).
It backs the ``facets`` command; ``covers --json`` lists the same trees
from the class quotient it shares with the bonds
(``ideal.facet_ideal_generic``).  ``analyze`` and ``verify`` read their
oracle facets off the top grade of ``homology.graded_faces`` instead, so
only the tests compare the backtracking route with the closed form.
"""

from __future__ import annotations

from itertools import product
from math import prod

from . import kernels
from .multigraph import (
    Multigraph,
    UnicyclicLayout,
    edge_sets,
    id_ordered_indices,
    mask_edge_sets,
)


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
    """Oracle route: all spanning trees, by backtracking over the parallel
    classes.

    ``kernels.spanning_tree_masks`` branches on one edge per class that
    lies on a cycle of the class quotient, then swaps in the other
    members.  A class is taken only if it closes no cycle and left out
    only if the rest still connects the graph, so no branch is a dead end
    and the work grows with the number of trees, not of forests.  The
    edges go by id, so the masks decode in order (``mask_edge_sets``).
    """
    us, vs, ids = id_ordered_indices(g)
    return mask_edge_sets(kernels.spanning_tree_masks(us, vs, g.n_vertices), ids)


def count_spanning_trees_layout(layout: UnicyclicLayout) -> int:
    """Closed-form spanning tree count implied by the choice structure:
    (product of outside multiplicities) * sum over cycle positions w of
    the product of the other cycle multiplicities."""
    outside = prod(len(c.members) for c in layout.outside_multiple_classes)
    sizes = [len(c.members) for c in layout.cycle_classes]
    total = prod(sizes)
    per_deletion = sum(total // sizes[w] for w in range(layout.m))
    return outside * per_deletion

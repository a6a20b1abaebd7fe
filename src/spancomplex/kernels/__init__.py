"""The computational kernels: forest and spanning-tree enumeration, and
exact matrix rank.

All are pure Python with arbitrary-precision arithmetic (``pyref``).
``forest_masks`` lists every face of the complex, for the f-vector and
the graded faces.  ``spanning_tree_masks`` lists only the facets, the
spanning trees, with no detour through the other forests.

``matrix_rank`` is not on the ``analyze``/``homology`` path: Betti
numbers come from the sparse column reduction in ``homology``.  It ranks
dense boundary matrices in the tests, as the reference that reduction is
compared against.
"""

from . import pyref
from .pyref import MAX_EDGES, matrix_rank

BACKEND = "python"
_corex = None  # read by the benchmark harness, which records the backend


def forest_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all non-empty forests of the indexed edge list, sorted."""
    return pyref.forest_masks(n_edges, us, vs, n_vertices)


def spanning_tree_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all spanning trees of the indexed edge list, sorted."""
    return pyref.spanning_tree_masks(n_edges, us, vs, n_vertices)

"""The computational kernels: forest and spanning-tree enumeration.

Both are pure Python with arbitrary-precision arithmetic (``pyref``).
``forest_masks`` lists every face of the complex, for the f-vector and
the graded faces.  ``spanning_tree_masks`` lists only the facets, the
spanning trees, with no detour through the other forests.

``pyref.matrix_rank`` stays only as the tests' dense reference rank,
and because the benchmark's tracer (``perfbench/spans.py``) wraps it on
every ``--trace 1`` run.  The harness also records ``BACKEND`` and
``_corex``.  They go when the benchmark reads an in-package trace
instead (ROADMAP item 4).
"""

from . import pyref
from .pyref import MAX_EDGES

BACKEND = "python"
_corex = None


def forest_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all non-empty forests of the indexed edge list, sorted."""
    return pyref.forest_masks(n_edges, us, vs, n_vertices)


def spanning_tree_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all spanning trees of the indexed edge list, sorted."""
    return pyref.spanning_tree_masks(n_edges, us, vs, n_vertices)

"""The two computational kernels: forest enumeration and exact matrix rank.

Both are pure Python with arbitrary-precision arithmetic (``pyref``).
``forest_masks`` is the one forest enumeration behind the facets, the
f-vector and the graded faces.

``matrix_rank`` is not on the ``analyze``/``homology`` path: Betti
numbers come from the sparse column reduction in ``homology``.  It ranks
dense matrices for ``homology.matrix_rank_exact``, the reference the
tests compare that reduction against.
"""

from . import pyref
from .pyref import MAX_EDGES, matrix_rank

BACKEND = "python"
_corex = None  # read by the benchmark harness, which records the backend


def forest_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all non-empty forests of the indexed edge list, sorted."""
    return pyref.forest_masks(n_edges, us, vs, n_vertices)

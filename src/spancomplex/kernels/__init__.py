"""Kernel selection: compiled extension when available, pure Python otherwise.

The kernels are forest enumeration and exact integer matrix rank.
``_corex`` is their Cython build; ``pyref`` the pure reference.
Selection happens once at import; ``SPANCOMPLEX_PURE=1`` in the
environment forces the pure path.  The compiled rank kernel works in
guarded 64-bit arithmetic and transparently falls back to the
arbitrary-precision reference for any single matrix that trips the guard.

``matrix_rank`` is not on the ``analyze``/``homology`` path: Betti
numbers come from the sparse column reduction in ``homology``.  It ranks
dense matrices for ``homology.matrix_rank_exact``, the reference the
tests compare that reduction against.
"""

import os

from ..errors import KernelOverflowError
from . import pyref
from .pyref import MAX_EDGES

if os.environ.get("SPANCOMPLEX_PURE"):
    _corex = None
else:
    try:
        from . import _corex  # type: ignore[attr-defined]
    except ImportError:
        _corex = None

BACKEND = "cython" if _corex is not None else "python"


def forest_masks(n_edges: int, us, vs, n_vertices: int) -> list[int]:
    """Bitmasks of all non-empty forests of the indexed edge list, sorted."""
    if _corex is not None:
        return _corex.forest_masks(n_edges, us, vs, n_vertices)
    return pyref.forest_masks(n_edges, us, vs, n_vertices)


def matrix_rank(rows) -> int:
    """Exact rank over the rationals of an integer matrix (list of rows)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if _corex is not None:
        try:
            import numpy as np

            arr = np.array(rows, dtype=np.int64)
        except OverflowError:
            return pyref.matrix_rank(rows)
        try:
            return _corex.matrix_rank(arr)
        except KernelOverflowError:
            return pyref.matrix_rank(rows)
    return pyref.matrix_rank(rows)

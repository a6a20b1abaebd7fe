"""Simplicial chain complex of the spanning complex, over the integers.

Faces are graded by dimension, ordered by a fixed global edge order; the
boundary maps are the usual signed incidence matrices.  Betti numbers
are ranks of homology over the rationals.  ``betti_from_faces`` gets
every boundary rank from one sparse column reduction with clearing
(Chen & Kerber, "Persistent homology computation with a twist", 2011),
in exact integer arithmetic (no floating point), which is all the
alternating-sum identities here require.  One generator,
``_boundary_columns``, builds each boundary column as a sparse dict: the
reduction draws the columns it does not clear from it, and
``boundary_matrix`` collects them all for ``--dump-matrices`` and tests.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass
from math import gcd

from . import kernels
from .errors import NotUnicyclicError
from .fvector import DEFAULT_BUDGET, require_budget
from .multigraph import Multigraph, edge_endpoint_indices, recognize_unicyclic

Face = tuple[str, ...]


@dataclass(frozen=True)
class GradedFaces:
    """Faces per dimension, each face a tuple sorted by the global order."""

    edge_order: tuple[str, ...]
    grades: tuple[tuple[Face, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.grades) - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(gr) for gr in self.grades)


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed incidence matrix from grade i to grade i-1, by columns.

    Rows follow the (i-1)-face order, columns the i-face order;
    ``columns[c]`` maps the row of each non-zero entry of column c to its
    value, -1 or +1.
    """

    i: int
    n_rows: int
    n_cols: int
    columns: tuple[dict[int, int], ...]

    def coordinate_triples(self) -> list[str]:
        """Non-zero entries as "row col value" lines, row-major."""
        entries = sorted(
            (r, c, val) for c, col in enumerate(self.columns) for r, val in col.items()
        )
        return [f"{r} {c} {val}" for r, c, val in entries]


@dataclass(frozen=True)
class BettiProfile:
    """Homology ranks beta_0..beta_d plus the boundary ranks they came from.

    ``boundary_ranks[i]`` is rank of the i-th boundary map; index 0 is the
    zero map to the trivial group, so it is always 0.
    """

    ranks: tuple[int, ...]
    boundary_ranks: tuple[int, ...]


def canonical_edge_order(g: Multigraph) -> tuple[str, ...]:
    """Global vertex order of the complex: the canonical layout order when
    the graph is uni-cyclic, input edge order otherwise."""
    try:
        return recognize_unicyclic(g).edge_order()
    except NotUnicyclicError:
        return g.edge_ids()


def graded_faces(
    g: Multigraph, budget: int = DEFAULT_BUDGET, edge_order: tuple[str, ...] | None = None
) -> GradedFaces:
    """Enumerate all faces (forests), grouped and ordered by dimension.

    The edges are indexed in reverse global order, so bit b of a forest
    mask is ``edge_order[n - 1 - b]``: reading the set bits from high to
    low gives the face already sorted, and among faces of one size a
    larger mask is an earlier face.  Walking the ascending masks
    backwards thus yields every grade in order, with no sorting.
    """
    require_budget(g.n_edges, budget, "graded face enumeration")
    if edge_order is None:
        edge_order = canonical_edge_order(g)
    n = g.n_edges
    index = {e: i for i, e in enumerate(g.edge_ids())}
    us, vs = edge_endpoint_indices(g)
    perm = [index[e] for e in reversed(edge_order)]
    us = [us[i] for i in perm]
    vs = [vs[i] for i in perm]

    # g is connected, so its largest forests have |V| - 1 edges
    grades: list[list[Face]] = [[] for _ in range(g.n_vertices - 1)]
    for mask in reversed(kernels.forest_masks(n, us, vs, g.n_vertices)):
        face = []
        while mask:
            top = mask.bit_length()
            face.append(edge_order[n - top])
            mask ^= 1 << (top - 1)
        grades[len(face) - 1].append(tuple(face))
    return GradedFaces(edge_order=tuple(edge_order), grades=tuple(map(tuple, grades)))


def boundary_matrix(faces: GradedFaces, i: int) -> BoundaryMatrix:
    """The i-th boundary map: each i-face maps to the alternating sum of
    its (i-1)-subfaces, signs by position of the omitted vertex."""
    if not 1 <= i <= faces.dim:
        raise ValueError(f"boundary index {i} out of range 1..{faces.dim}")
    return BoundaryMatrix(
        i=i,
        n_rows=len(faces.grades[i - 1]),
        n_cols=len(faces.grades[i]),
        columns=tuple(_boundary_columns(faces, i, ())),
    )


def _boundary_columns(
    faces: GradedFaces, i: int, skip: Collection[int]
) -> Iterator[dict[int, int]]:
    """Yield the column ``{row: +-1}`` of each i-face not in ``skip``, in
    order; the row index and the signs are built once per grade."""
    row_index = {f: r for r, f in enumerate(faces.grades[i - 1])}
    signs = [-1 if p % 2 else 1 for p in range(i + 1)]
    for c, face in enumerate(faces.grades[i]):
        if c not in skip:
            yield {row_index[face[:p] + face[p + 1 :]]: signs[p] for p in range(i + 1)}


def betti_numbers(g: Multigraph, budget: int = DEFAULT_BUDGET) -> BettiProfile:
    """Betti numbers beta_i = nullity(d_i) - rank(d_{i+1}) for i = 0..d.

    The 0-th boundary map is zero, so nullity(d_0) = f_0 and beta_0
    counts connected components of the complex.
    """
    faces = graded_faces(g, budget=budget)
    return betti_from_faces(faces)


def betti_from_faces(faces: GradedFaces) -> BettiProfile:
    """Betti numbers from the graded faces, without materialising any
    boundary matrix.

    The boundary maps are reduced from the top dimension down.  Each
    pivot row of the reduced d_{i+1} is an i-face whose column in d_i is
    a combination of earlier columns (the reduced column is a cycle with
    that lowest row), so it is skipped: it would reduce to zero anyway.
    """
    d = faces.dim
    sizes = faces.sizes()
    boundary_ranks = [0] * (d + 1)
    pivots: dict[int, dict[int, int]] = {}
    for i in range(d, 0, -1):
        pivots = _reduce_boundary(faces, i, cleared=pivots.keys())
        boundary_ranks[i] = len(pivots)
    ranks = []
    for i in range(d + 1):
        nullity = sizes[i] - boundary_ranks[i]
        rank_next = boundary_ranks[i + 1] if i + 1 <= d else 0
        ranks.append(nullity - rank_next)
    return BettiProfile(ranks=tuple(ranks), boundary_ranks=tuple(boundary_ranks))


def _reduce_boundary(
    faces: GradedFaces, i: int, cleared: Collection[int]
) -> dict[int, dict[int, int]]:
    """Column-reduce the i-th boundary map by lowest row, skipping the
    columns in ``cleared``; the reduced non-zero columns keyed by their
    lowest row.  Their number is the rank of the map.

    A column is a ``{row: value}`` dict.  Updates are fraction-free,
    ``col <- (b/g) col - (a/g) pivot`` with ``g = gcd(a, b)``, followed by
    division by the content gcd, so entries stay exact Python integers.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in _boundary_columns(faces, i, cleared):
        low = max(col)
        while low in pivots:
            pivot = pivots[low]
            a, b = col[low], pivot[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                col = {r: b * v for r, v in col.items()}
            for r, v in pivot.items():
                x = col.get(r, 0) - a * v
                if x:
                    col[r] = x
                else:
                    del col[r]
            if not col:
                break
            content = gcd(*col.values())
            if content > 1:
                col = {r: v // content for r, v in col.items()}
            low = max(col)
        else:
            pivots[low] = col
    return pivots


def euler_from_betti(b: BettiProfile) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** i * r for i, r in enumerate(b.ranks))

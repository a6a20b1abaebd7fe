"""Simplicial chain complex of the spanning complex: signed boundary maps
and Betti numbers.

Faces are forests, kept as the kernel's bitmasks (``GradedFaces.names``
decodes one), graded by dimension and sorted by edge id, the one layout
of every edge mask (``multigraph.id_ordered_indices``); the boundary maps
are the usual signed incidence matrices.  The enumeration depends on the
graph alone, never on its uni-cyclic layout or its input order, so it
stays an independent oracle for the closed forms.
Betti numbers are ranks of homology over the rationals, read off boundary
ranks taken over GF(2).  The two agree on every complex built here: it is
the independence complex of a graphic matroid, which is shellable (Provan
& Billera 1980; Bjorner, "The homology and shellability of matroids and
geometric lattices", 1992), so its integer homology is free, every
boundary map has unit invariant factors, and its rank over GF(2) is its
rank over the rationals.  A hand-built ``GradedFaces`` of any other
complex gets only its GF(2) ranks.
``betti_from_faces`` gets every boundary rank from one sparse column
reduction with clearing (Chen & Kerber, "Persistent homology computation
with a twist", 2011): a column is the set of its rows and an update is a
symmetric difference.  Its rows are (i-1)-face masks, and a column's
pivot is its largest row: for an unreduced column, the face minus its
lowest bit (the rank does not depend on the row or column order that
defines pivots).  So the pivot is read off the face, and the column
itself is built only when another column lands on the same pivot
(Ripser's apparent pairs, Bauer 2021); a matroid complex is shellable,
so most columns pair off with no arithmetic.  One builder, ``_boundary``,
gives a face's column as ``{subface mask: +-1}``: the reduction uses its
keys, and ``boundary_matrix`` maps them to row numbers, with their
signs, for ``--dump-matrices`` and tests.  A boundary map is only its
columns; its shape is read off the faces, and ``coordinate_triples``
formats the dump.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from . import kernels
from .multigraph import Multigraph, id_ordered_indices


@dataclass(frozen=True)
class GradedFaces:
    """Faces per dimension, each a forest bitmask whose bit b is the edge
    ``edge_order[n - 1 - b]``, the global order being the ids ascending: so
    each grade, in descending mask order, is in the global face order."""

    edge_order: tuple[str, ...]
    grades: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.grades) - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(gr) for gr in self.grades)

    def names(self, face: int) -> tuple[str, ...]:
        """The face's edge ids, in global order."""
        n = len(self.edge_order)
        return tuple(e for k, e in enumerate(self.edge_order) if face >> (n - 1 - k) & 1)


@dataclass(frozen=True)
class BettiProfile:
    """Homology ranks beta_0..beta_d plus the boundary ranks they came from.

    ``boundary_ranks[i]`` is rank of the i-th boundary map; index 0 is the
    zero map to the trivial group, so it is always 0.
    """

    ranks: tuple[int, ...]
    boundary_ranks: tuple[int, ...]


def graded_faces(g: Multigraph) -> GradedFaces:
    """Enumerate all faces (forests), grouped and ordered by dimension.

    The global order is the edge ids ascending.  The edges are indexed by
    id (``id_ordered_indices``), so ``kernels.forest_grades``, which sorts
    each size in descending mask order, gives every grade in the global
    order, whatever the input order.  See ``GradedFaces``.
    """
    kernels.require_budget(g.n_edges, "graded face enumeration")
    us, vs, ids = id_ordered_indices(g)
    # g is connected, so none of the kernel's |V| - 1 grades is empty
    grades = kernels.forest_grades(us, vs, g.n_vertices)
    return GradedFaces(edge_order=tuple(reversed(ids)), grades=tuple(map(tuple, grades)))


def boundary_matrix(faces: GradedFaces, i: int) -> tuple[dict[int, int], ...]:
    """The i-th boundary map, by columns: column c maps the row of each
    (i-1)-subface of the c-th i-face, in the global face order, to its
    sign, -1 or +1 by position of the omitted vertex.  The map is
    ``len(faces.grades[i - 1])`` rows by ``len(faces.grades[i])`` columns."""
    if not 1 <= i <= faces.dim:
        raise ValueError(f"boundary index {i} out of range 1..{faces.dim}")
    row_index = {f: r for r, f in enumerate(faces.grades[i - 1])}
    return tuple(
        {row_index[f]: v for f, v in _boundary(face).items()} for face in faces.grades[i]
    )


def coordinate_triples(columns: tuple[dict[int, int], ...]) -> list[str]:
    """A boundary map's non-zero entries as "row col value" lines, row-major."""
    entries = sorted((r, c, val) for c, col in enumerate(columns) for r, val in col.items())
    return [f"{r} {c} {val}" for r, c, val in entries]


def _boundary(face: int) -> dict[int, int]:
    """The face's boundary column ``{subface mask: +-1}``.  Dropping the
    p-th edge in global order (the p-th set bit from the top) gives the
    subface with sign (-1)^p."""
    column, sign, rest = {}, 1, face
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        column[face ^ bit] = sign
        sign, rest = -sign, rest ^ bit
    return column


def betti_numbers(g: Multigraph) -> BettiProfile:
    """Betti numbers beta_i = nullity(d_i) - rank(d_{i+1}) for i = 0..d.

    The 0-th boundary map is zero, so nullity(d_0) = f_0 and beta_0
    counts connected components of the complex.
    """
    return betti_from_faces(graded_faces(g))


def betti_from_faces(faces: GradedFaces) -> BettiProfile:
    """Betti numbers from the graded faces, without materialising any
    boundary matrix.  The boundary ranks are taken over GF(2); for the
    faces of any graph they are the rational ranks, since a matroid
    complex has free integer homology, and for a hand-built
    ``GradedFaces`` of any other complex they are only the GF(2) ranks.

    The boundary maps are reduced from the top dimension down.  Each
    pivot of the reduced d_{i+1} is an i-face whose column in d_i is a
    combination of earlier columns (the reduced column is a cycle whose
    largest face is that pivot), so it is skipped: it would reduce to
    zero anyway.
    """
    d = faces.dim
    sizes = faces.sizes()
    boundary_ranks = [0] * (d + 1)
    pivots: dict[int, set[int] | int] = {}
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
) -> dict[int, set[int] | int]:
    """Column-reduce the i-th boundary map over GF(2), skipping the
    i-faces in ``cleared``; the reduced non-zero columns keyed by their
    low, the largest (i-1)-face mask among their rows.  Their number is
    the rank of the map over GF(2), which is its rank over the rationals
    for the faces of a graph (see the module docstring).

    Columns are taken in ascending mask order.  An unreduced column's
    low is its face minus the lowest bit, so it is read off the face: a
    column whose low is new is kept unbuilt, as its face mask, and the
    keys of its ``_boundary`` are built only when a later column lands
    on the same low.  A column is the set of its rows, and adding the
    pivot column is ``col ^= pivot``.
    """
    pivots: dict[int, set[int] | int] = {}
    for face in reversed(faces.grades[i]):
        if face in cleared:
            continue
        low = face ^ (face & -face)
        if low not in pivots:
            pivots[low] = face
            continue
        col = set(_boundary(face))
        while low in pivots:
            pivot = pivots[low]
            if isinstance(pivot, int):
                pivot = pivots[low] = set(_boundary(pivot))
            col ^= pivot
            if not col:
                break
            low = max(col)
        else:
            pivots[low] = col
    return pivots


def euler_from_betti(b: BettiProfile) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** i * r for i, r in enumerate(b.ranks))

import tracemalloc

import pytest

from spancomplex import (
    betti_numbers,
    boundary_matrix,
    build_multigraph,
    euler_characteristic,
    euler_from_betti,
    f_vector_bruteforce,
    graded_faces,
)
from spancomplex.homology import BettiProfile, betti_from_faces
from spancomplex.kernels.pyref import matrix_rank

import bruteforce
from bruteforce import dense
from conftest import SIX_PENDANTS, make_doubled_six_cycle


def test_graded_sizes(fig1, triangle, c211):
    assert graded_faces(fig1).sizes() == (7, 17, 14)
    assert graded_faces(triangle).sizes() == (3, 3)
    assert graded_faces(c211).sizes() == (4, 5)


def test_global_order_uses_canonical_labels(fig1):
    faces = graded_faces(fig1)
    assert faces.edge_order == ("e11", "e12", "e13", "e21", "e31", "e41", "e42")


def test_grades_hold_every_forest_in_global_order(fig1, triangle, c211, theta, suite_graphs):
    # each face sorted by the global order, each grade sorted as positions
    for g in [fig1, triangle, c211, theta] + suite_graphs[:40]:
        faces = graded_faces(g)
        assert faces.sizes() == bruteforce.forest_counts(g)
        pos = {e: i for i, e in enumerate(faces.edge_order)}
        for grade in faces.grades:
            keys = [tuple(pos[e] for e in face) for face in grade]
            assert all(list(key) == sorted(key) for key in keys)
            assert keys == sorted(set(keys))


def test_boundary_2_column_fig1(fig1):
    faces = graded_faces(fig1)
    bm = boundary_matrix(faces, 2)
    col = faces.grades[2].index(("e21", "e31", "e41"))
    rows = {f: r for r, f in enumerate(faces.grades[1])}
    column = bm.columns[col]
    assert column[rows[("e31", "e41")]] == 1
    assert column[rows[("e21", "e41")]] == -1
    assert column[rows[("e21", "e31")]] == 1
    assert len(column) == 3


def test_boundary_1_column_fig1(fig1):
    faces = graded_faces(fig1)
    bm = boundary_matrix(faces, 1)
    col = faces.grades[1].index(("e11", "e21"))
    rows = {f: r for r, f in enumerate(faces.grades[0])}
    column = bm.columns[col]
    assert column[rows[("e21",)]] == 1
    assert column[rows[("e11",)]] == -1
    assert len(column) == 2


def test_boundary_single_one_face():
    g = build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c"))])
    faces = graded_faces(g)
    bm = boundary_matrix(faces, 1)
    assert bm.n_cols == 1
    assert [bm.columns[0].get(r, 0) for r in range(bm.n_rows)] == [-1, 1]


def test_boundary_index_out_of_range(fig1):
    faces = graded_faces(fig1)
    with pytest.raises(ValueError):
        boundary_matrix(faces, 0)
    with pytest.raises(ValueError):
        boundary_matrix(faces, 3)


def test_boundary_column_signs(suite_graphs):
    for g in suite_graphs[:10]:
        faces = graded_faces(g)
        for i in range(1, faces.dim + 1):
            bm = boundary_matrix(faces, i)
            for col in bm.columns:
                signs = [col[r] for r in sorted(col)]
                assert len(signs) == i + 1
                # ascending row order lists the omitted positions descending
                assert signs == [(-1) ** p for p in range(i, -1, -1)]


def test_rank_fig1_boundaries(fig1):
    faces = graded_faces(fig1)
    assert matrix_rank(dense(boundary_matrix(faces, 1))) == 6
    assert matrix_rank(dense(boundary_matrix(faces, 2))) == 11


def test_betti_fig1(fig1):
    profile = betti_numbers(fig1)
    assert profile.ranks == (1, 0, 3)
    assert profile.boundary_ranks == (0, 6, 11)


def test_betti_triangle(triangle):
    assert betti_numbers(triangle).ranks == (1, 1)


def test_betti_c211(c211):
    assert betti_numbers(c211).ranks == (1, 2)


def test_betti_tree_is_contractible():
    g = build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c"))])
    assert betti_numbers(g).ranks == (1, 0)


@pytest.mark.parametrize(
    "ranks,expected", [((1, 0, 3), 4), ((1, 1), 0), ((1, 2), -1)]
)
def test_euler_from_betti(ranks, expected):
    profile = BettiProfile(ranks=ranks, boundary_ranks=(0,) * len(ranks))
    assert euler_from_betti(profile) == expected


def _compose_is_zero(a, b):
    # a: grade i-1 x grade i, b: grade i x grade i+1
    a_rows, b_rows = dense(a), dense(b)
    for r in range(a.n_rows):
        for c in range(b.n_cols):
            if sum(a_rows[r][k] * b_rows[k][c] for k in range(a.n_cols)):
                return False
    return True


def test_boundary_composition_vanishes(fig1, suite_graphs):
    for g in [fig1] + list(suite_graphs[:8]):
        faces = graded_faces(g)
        for i in range(2, faces.dim + 1):
            assert _compose_is_zero(
                boundary_matrix(faces, i - 1), boundary_matrix(faces, i)
            )


def test_boundary_ranks_match_fraction_oracle(suite_graphs):
    small = [g for g in suite_graphs if g.n_edges <= 8][:10]
    for g in small:
        faces = graded_faces(g)
        profile = betti_from_faces(faces)
        for i in range(1, faces.dim + 1):
            bm = boundary_matrix(faces, i)
            assert profile.boundary_ranks[i] == bruteforce.rank_over_rationals(dense(bm))


def test_betti_sanity_and_euler_poincare(suite_graphs):
    for g in suite_graphs[:25]:
        faces = graded_faces(g)
        sizes = faces.sizes()
        profile = betti_from_faces(faces)
        fv = f_vector_bruteforce(g)
        assert sizes == fv.counts
        for i in range(1, faces.dim + 1):
            rank = profile.boundary_ranks[i]
            assert 0 <= rank <= min(sizes[i], sizes[i - 1])
        assert profile.ranks[0] == 1
        assert all(b >= 0 for b in profile.ranks)
        assert euler_from_betti(profile) == euler_characteristic(fv)


def test_sparse_ranks_match_dense(fig1, triangle, c211, theta, suite_graphs):
    # theta has two independent cycles, so clearing is checked outside the
    # uni-cyclic class as well
    for g in [fig1, triangle, c211, theta] + list(suite_graphs[:40]):
        faces = graded_faces(g)
        profile = betti_from_faces(faces)
        assert profile.boundary_ranks[0] == 0
        for i in range(1, faces.dim + 1):
            assert profile.boundary_ranks[i] == matrix_rank(dense(boundary_matrix(faces, i)))


@pytest.mark.parametrize(
    "extra,n_faces,top_betti",
    [
        # six pendant edges: every facet holds them, so the complex is a cone
        (SIX_PENDANTS, 42559, 0),
        # three outside classes of two parallel edges
        ([(f"q{i}", 2 * i, 2) for i in range(3)], 17954, 63),
    ],
)
def test_betti_beyond_dense_reach(extra, n_faces, top_betti):
    # 18 edges: the dense boundary matrices would have up to 93M cells
    g = make_doubled_six_cycle(extra)
    assert g.n_edges == 18
    fv = f_vector_bruteforce(g)
    assert sum(fv.counts) == n_faces
    assert abs(euler_characteristic(fv) - 1) == top_betti
    profile = betti_from_faces(graded_faces(g))
    d = fv.dim
    expected = (1,) + (0,) * (d - 1) + (top_betti,)
    assert profile.ranks == expected
    ranks = profile.boundary_ranks + (0,)
    for i in range(d + 1):
        assert ranks[i] + ranks[i + 1] == fv.counts[i] - expected[i]


def test_coordinate_triples(fig1):
    faces = graded_faces(fig1)
    bm = boundary_matrix(faces, 1)
    triples = bm.coordinate_triples()
    assert len(triples) == 2 * bm.n_cols
    row, col, val = triples[0].split()
    assert int(val) in (-1, 1)
    assert 0 <= int(row) < bm.n_rows
    assert 0 <= int(col) < bm.n_cols


def test_boundary_matrix_beyond_dense_reach():
    # d_6 of the 18-edge pendant layout has 8925 x 10452 cells: a dense
    # table of it took over 700 MB
    faces = graded_faces(make_doubled_six_cycle(SIX_PENDANTS))
    tracemalloc.start()
    try:
        bm = boundary_matrix(faces, 6)
        triples = bm.coordinate_triples()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (bm.n_rows, bm.n_cols) == (8925, 10452)
    assert peak < 64 * 2**20
    assert len(triples) == 7 * 10452
    keys = [tuple(map(int, t.split()[:2])) for t in triples]
    assert keys == sorted(keys)

import tracemalloc
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spancomplex import (
    betti_numbers,
    boundary_matrix,
    build_multigraph,
    euler_characteristic,
    euler_from_betti,
    graded_faces,
    homology,
    run_analyze,
)
from spancomplex.fvector import FVector
from spancomplex.homology import BettiProfile, betti_from_faces, coordinate_triples
from spancomplex.kernels.pyref import matrix_rank

import bruteforce
from bruteforce import dense
from conftest import (
    SIX_PENDANTS,
    connected_multigraphs,
    layout_graph,
    make_doubled_six_cycle,
    make_fig1,
    make_theta,
    unicyclic_multigraphs,
)


def _dense(faces, i):
    return dense(boundary_matrix(faces, i), len(faces.grades[i - 1]))


def test_graded_sizes(fig1, triangle, c211):
    assert graded_faces(fig1).sizes() == (7, 17, 14)
    assert graded_faces(triangle).sizes() == (3, 3)
    assert graded_faces(c211).sizes() == (4, 5)


def test_global_order_uses_canonical_labels(fig1):
    faces = graded_faces(fig1)
    assert faces.edge_order == ("e11", "e12", "e13", "e21", "e31", "e41", "e42")


def test_global_order_is_edge_id_order(fig1):
    # the reversed list's input order is e42 e41 ... e11, and the shuffled
    # copy's ids go against its input order: both faces go by edge id
    reversed_fig1 = build_multigraph(fig1.vertices, reversed(fig1.edges))
    ids = ["e31", "e12", "e42", "e11", "e41", "e21", "e13"]
    shuffled = build_multigraph(fig1.vertices, [(e, ends) for e, (_, ends) in zip(ids, fig1.edges)])
    for g in (reversed_fig1, shuffled):
        assert g.edge_ids() != tuple(sorted(g.edge_ids()))
        assert graded_faces(g).edge_order == tuple(sorted(g.edge_ids()))


def test_grades_hold_every_forest_in_global_order(fig1, triangle, c211, theta, suite_graphs):
    # each face sorted by the global order, each grade sorted as positions
    for g in [fig1, triangle, c211, theta] + suite_graphs[:40]:
        faces = graded_faces(g)
        assert faces.sizes() == bruteforce.forest_counts(g)
        pos = {e: i for i, e in enumerate(faces.edge_order)}
        for grade in faces.grades:
            keys = [tuple(pos[e] for e in faces.names(face)) for face in grade]
            assert all(list(key) == sorted(key) for key in keys)
            assert keys == sorted(set(keys))


def test_boundary_2_column_fig1(fig1):
    faces = graded_faces(fig1)
    columns = boundary_matrix(faces, 2)
    col = [faces.names(f) for f in faces.grades[2]].index(("e21", "e31", "e41"))
    rows = {faces.names(f): r for r, f in enumerate(faces.grades[1])}
    column = columns[col]
    assert column[rows[("e31", "e41")]] == 1
    assert column[rows[("e21", "e41")]] == -1
    assert column[rows[("e21", "e31")]] == 1
    assert len(column) == 3


def test_boundary_1_column_fig1(fig1):
    faces = graded_faces(fig1)
    columns = boundary_matrix(faces, 1)
    col = [faces.names(f) for f in faces.grades[1]].index(("e11", "e21"))
    rows = {faces.names(f): r for r, f in enumerate(faces.grades[0])}
    column = columns[col]
    assert column[rows[("e21",)]] == 1
    assert column[rows[("e11",)]] == -1
    assert len(column) == 2


def test_boundary_single_one_face():
    g = build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c"))])
    faces = graded_faces(g)
    columns = boundary_matrix(faces, 1)
    assert len(columns) == 1
    assert [columns[0].get(r, 0) for r in range(len(faces.grades[0]))] == [-1, 1]


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
            for col in boundary_matrix(faces, i):
                signs = [col[r] for r in sorted(col)]
                assert len(signs) == i + 1
                # ascending row order lists the omitted positions descending
                assert signs == [(-1) ** p for p in range(i, -1, -1)]


def test_rank_fig1_boundaries(fig1):
    faces = graded_faces(fig1)
    assert matrix_rank(_dense(faces, 1)) == 6
    assert matrix_rank(_dense(faces, 2)) == 11


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
    # a: grade i-1 x grade i, b: grade i x grade i+1, both by columns
    for col in b:
        entries = {}
        for k, v in col.items():
            for r, w in a[k].items():
                entries[r] = entries.get(r, 0) + v * w
        if any(entries.values()):
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
            assert profile.boundary_ranks[i] == bruteforce.rank_over_rationals(_dense(faces, i))


def test_betti_sanity_and_euler_poincare(suite_graphs):
    for g in suite_graphs[:25]:
        faces = graded_faces(g)
        sizes = faces.sizes()
        profile = betti_from_faces(faces)
        assert sizes == bruteforce.forest_counts(g)
        for i in range(1, faces.dim + 1):
            rank = profile.boundary_ranks[i]
            assert 0 <= rank <= min(sizes[i], sizes[i - 1])
        assert profile.ranks[0] == 1
        assert all(b >= 0 for b in profile.ranks)
        assert euler_from_betti(profile) == euler_characteristic(FVector(sizes))


def test_sparse_ranks_match_dense(fig1, triangle, c211, theta, suite_graphs):
    # theta has two independent cycles, so clearing is checked outside the
    # uni-cyclic class as well
    for g in [fig1, triangle, c211, theta] + list(suite_graphs[:40]):
        faces = graded_faces(g)
        profile = betti_from_faces(faces)
        assert profile.boundary_ranks[0] == 0
        for i in range(1, faces.dim + 1):
            assert profile.boundary_ranks[i] == matrix_rank(_dense(faces, i))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=8, max_rank=3))
def test_face_oracle_ignores_input_order(g):
    # the faces go by edge id, so reversing the edge list changes neither
    # them nor anything the analysis reads off them
    flipped = build_multigraph(g.vertices, reversed(g.edges))
    assert graded_faces(g) == graded_faces(flipped)
    report, flipped_report = run_analyze(g), run_analyze(flipped)
    for invariant in ("facets", "f_vector", "euler"):
        assert report.routes[invariant] == flipped_report.routes[invariant], invariant
    assert report.betti == flipped_report.betti


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=8, max_rank=3))
def test_homology_route_on_random_multigraphs(g):
    # reaches graphs that are not uni-cyclic
    faces = graded_faces(g)
    assert faces.sizes() == bruteforce.forest_counts(g)
    profile = betti_from_faces(faces)
    for i in range(1, faces.dim + 1):
        assert profile.boundary_ranks[i] == bruteforce.rank_over_rationals(_dense(faces, i))
    # a matroid complex is a wedge of |chi - 1| top spheres (Bjorner 1992)
    d = faces.dim
    if d == 0:
        assert profile.ranks == faces.sizes()
    else:
        chi = euler_characteristic(FVector(faces.sizes()))
        assert profile.ranks == (1,) + (0,) * (d - 1) + (abs(chi - 1),)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=14))
def test_betti_of_matroid_complexes_beyond_dense_reach(g):
    # any cycle rank, so no dense rank can check these reductions: the
    # matroid complex is a wedge of |chi - 1| top spheres (Bjorner 1992)
    sizes = bruteforce.forest_counts(g)
    chi = sum((-1) ** i * f for i, f in enumerate(sizes))
    profile = betti_from_faces(graded_faces(g))
    d = len(sizes) - 1
    expected = (1,) + (0,) * (d - 1) + (abs(chi - 1),) if d else sizes
    assert profile.ranks == expected
    ranks = profile.boundary_ranks + (0,)
    for i in range(d + 1):
        assert ranks[i] + ranks[i + 1] == sizes[i] - expected[i]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    cycle_sizes=st.lists(st.integers(1, 3), min_size=3, max_size=6),
    outside_sizes=st.lists(st.integers(2, 3), max_size=3),
    data=st.data(),
)
def test_betti_numbers_of_layouts_that_are_not_cones(cycle_sizes, outside_sizes, data):
    # every outside class has two edges or more, so no edge is a coloop and
    # the complex is no cone: its top homology has rank T_M(0, 1), a product
    # over the cycle and each outside class (Bjorner 1992; Brylawski & Oxley 1992)
    assume(sum(cycle_sizes) + sum(outside_sizes) <= 14)
    g = data.draw(unicyclic_multigraphs(cycle_sizes, outside_sizes))
    cycle = prod(cycle_sizes) - prod(s - 1 for s in cycle_sizes)
    top = prod(s - 1 for s in outside_sizes) * cycle
    d = g.n_vertices - 2
    assert betti_numbers(g).ranks == (1,) + (0,) * (d - 1) + (top,)


@pytest.mark.parametrize(
    "extra,n_faces,top_betti,max_builds",
    [
        # six pendant edges: every facet holds them, so the complex is a
        # cone, and every column pairs off with no column built
        (SIX_PENDANTS, 42559, 0, 0),
        # three outside classes of two parallel edges
        ([(f"q{i}", 2 * i, 2) for i in range(3)], 17954, 63, 6048),
    ],
)
def test_betti_beyond_dense_reach(monkeypatch, extra, n_faces, top_betti, max_builds):
    # 18 edges: the dense boundary matrices would have up to 93M cells
    g = make_doubled_six_cycle(extra)
    assert g.n_edges == 18
    faces = graded_faces(g)
    fv = FVector(faces.sizes())
    assert sum(fv.counts) == n_faces
    assert abs(euler_characteristic(fv) - 1) == top_betti
    build, built = homology._boundary, []

    def counted(face):
        built.append(face)
        return build(face)

    monkeypatch.setattr(homology, "_boundary", counted)
    profile = betti_from_faces(faces)
    # a column is built only when another column lands on its low
    assert len(built) <= max_builds
    d = fv.dim
    expected = (1,) + (0,) * (d - 1) + (top_betti,)
    assert profile.ranks == expected
    ranks = profile.boundary_ranks + (0,)
    for i in range(d + 1):
        assert ranks[i] + ranks[i + 1] == fv.counts[i] - expected[i]


@pytest.mark.parametrize(
    "g",
    [make_fig1(), make_theta(), layout_graph([2, 2, 2], (2, 2)), layout_graph([3, 3, 3])],
    ids=["fig1", "theta", "c222-o22", "c333"],
)
def test_reduced_columns_are_mod_2_cycles(g):
    # the ranks alone cannot tell a wrong update from the right one: each
    # built column is a sum of boundaries, so keyed by its largest face and
    # with every (i-2)-face an even number of times in its faces' boundaries
    faces = graded_faces(g)
    pivots, built = {}, 0
    for i in range(faces.dim, 0, -1):
        pivots = homology._reduce_boundary(faces, i, cleared=pivots.keys())
        for low, col in pivots.items():
            if isinstance(col, int):
                continue
            built += 1
            assert low == max(col)
            odd = set()
            for face in col:
                odd.symmetric_difference_update(homology._boundary(face))
            assert not odd
    assert built


def test_coordinate_triples(fig1):
    faces = graded_faces(fig1)
    columns = boundary_matrix(faces, 1)
    triples = coordinate_triples(columns)
    assert len(triples) == 2 * len(columns)
    row, col, val = triples[0].split()
    assert int(val) in (-1, 1)
    assert 0 <= int(row) < len(faces.grades[0])
    assert 0 <= int(col) < len(columns)


def test_boundary_matrix_beyond_dense_reach():
    # d_6 of the 18-edge pendant layout has 8925 x 10452 cells: a dense
    # table of it took over 700 MB
    faces = graded_faces(make_doubled_six_cycle(SIX_PENDANTS))
    tracemalloc.start()
    try:
        columns = boundary_matrix(faces, 6)
        triples = coordinate_triples(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(faces.grades[5]), len(columns)) == (8925, 10452)
    assert peak < 64 * 2**20
    assert len(triples) == 7 * 10452
    keys = [tuple(map(int, t.split()[:2])) for t in triples]
    assert keys == sorted(keys)

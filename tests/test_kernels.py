import gc
import random

import pytest

from spancomplex import kernels
from spancomplex.kernels import pyref
from spancomplex.multigraph import edge_endpoint_indices
from spancomplex.randomgraphs import random_suite

import bruteforce
from conftest import make_c211, make_fig1, make_theta, make_triangle


def _random_matrix(rng, lo=-3, hi=3, max_dim=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_pyref_forest_masks_triangle():
    # edges 0:(0,1) 1:(1,2) 2:(2,0): every proper subset is a forest
    masks = pyref.forest_masks(3, [0, 1, 2], [1, 2, 0], 3)
    assert masks == [1, 2, 3, 4, 5, 6]


def test_pyref_forest_masks_leaves_no_reference_cycle():
    # the result and the union-find state must be freed by refcounting alone
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pyref.forest_masks(3, [0, 1, 2], [1, 2, 0], 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_pyref_forest_masks_rejects_wide_input():
    with pytest.raises(ValueError):
        pyref.forest_masks(63, [0] * 63, [1] * 63, 2)


def _tree_filter(n_edges, us, vs, n_vertices):
    masks = pyref.forest_masks(n_edges, us, vs, n_vertices)
    return [m for m in masks if m.bit_count() == n_vertices - 1]


def test_spanning_tree_masks_equal_forest_filter():
    graphs = [make_fig1(), make_triangle(), make_c211(), make_theta()]
    for g in graphs + random_suite(42, 60, 12):
        us, vs = edge_endpoint_indices(g)
        masks = kernels.spanning_tree_masks(g.n_edges, us, vs, g.n_vertices)
        assert masks == _tree_filter(g.n_edges, us, vs, g.n_vertices)


def test_spanning_tree_masks_small_cases():
    # triangle: the three 2-edge subsets
    assert pyref.spanning_tree_masks(3, [0, 1, 2], [1, 2, 0], 3) == [3, 5, 6]
    # two parallel edges then a pendant edge, listed pendant-first
    assert pyref.spanning_tree_masks(3, [1, 0, 0], [2, 1, 1], 3) == [3, 5]
    # disconnected: edges {0,1} and {2,3}
    assert pyref.spanning_tree_masks(2, [0, 2], [1, 3], 4) == []


def test_spanning_tree_masks_leave_no_reference_cycle():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pyref.spanning_tree_masks(3, [0, 1, 2], [1, 2, 0], 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_spanning_tree_masks_reject_wide_input():
    with pytest.raises(ValueError, match="at most 62 edges"):
        pyref.spanning_tree_masks(63, [0] * 63, [1] * 63, 2)


def test_pyref_rank_small_cases():
    assert pyref.matrix_rank([[0, 0], [0, 0]]) == 0
    assert pyref.matrix_rank([[2, 4], [1, 2]]) == 1
    assert pyref.matrix_rank([[1, 0], [0, 1]]) == 2


def test_pyref_rank_matches_fraction_oracle():
    rng = random.Random(99)
    for _ in range(80):
        rows = _random_matrix(rng)
        assert pyref.matrix_rank(rows) == bruteforce.rank_over_rationals(rows)


def test_rank_of_huge_entries_uses_bignum_path():
    big = 1 << 70  # does not even fit int64
    rows = [[big, 0], [0, big]]
    assert kernels.matrix_rank(rows) == 2


def test_wrapper_rank_empty():
    assert kernels.matrix_rank([]) == 0
    assert kernels.matrix_rank([[]]) == 0


def test_wrapper_matches_oracle_on_incidence_like_matrices():
    rng = random.Random(5)
    for _ in range(40):
        rows = _random_matrix(rng, lo=-1, hi=1, max_dim=14)
        assert kernels.matrix_rank(rows) == bruteforce.rank_over_rationals(rows)

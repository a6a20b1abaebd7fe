import gc
import random

import pytest
from hypothesis import given, settings

from spancomplex import build_multigraph, kernels
from spancomplex.kernels import pyref
from spancomplex.multigraph import edge_endpoint_indices
from spancomplex.randomgraphs import random_suite

import bruteforce
from conftest import (
    SIX_PENDANTS,
    connected_multigraphs,
    layout_graph,
    make_c211,
    make_doubled_six_cycle,
    make_fig1,
    make_theta,
    make_triangle,
)


def _random_matrix(rng, lo=-3, hi=3, max_dim=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_forest_masks_triangle():
    # edges 0:(0,1) 1:(1,2) 2:(2,0): every proper subset is a forest
    masks = kernels.forest_masks(3, [0, 1, 2], [1, 2, 0], 3)
    assert masks == [1, 2, 3, 4, 5, 6]


def _assert_no_reference_cycle(kernel, *args):
    # the result and the kernel's state must be freed by refcounting alone
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kernel(*args)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_forest_masks_leaves_no_reference_cycle():
    _assert_no_reference_cycle(kernels.forest_masks, 3, [0, 1, 2], [1, 2, 0], 3)


def test_forest_masks_rejects_wide_input():
    with pytest.raises(ValueError):
        kernels.forest_masks(63, [0] * 63, [1] * 63, 2)


def _tree_filter(n_edges, us, vs, n_vertices):
    masks = kernels.forest_masks(n_edges, us, vs, n_vertices)
    return [m for m in masks if m.bit_count() == n_vertices - 1]


def test_spanning_tree_masks_equal_forest_filter():
    graphs = [make_fig1(), make_triangle(), make_c211(), make_theta()]
    for g in graphs + random_suite(42, 60, 12):
        us, vs = edge_endpoint_indices(g)
        masks = kernels.spanning_tree_masks(g.n_edges, us, vs, g.n_vertices)
        assert masks == _tree_filter(g.n_edges, us, vs, g.n_vertices)


def test_spanning_tree_masks_small_cases():
    # triangle: the three 2-edge subsets
    assert kernels.spanning_tree_masks(3, [0, 1, 2], [1, 2, 0], 3) == [3, 5, 6]
    # two parallel edges then a pendant edge, listed pendant-first
    assert kernels.spanning_tree_masks(3, [1, 0, 0], [2, 1, 1], 3) == [3, 5]
    # disconnected: edges {0,1} and {2,3}
    assert kernels.spanning_tree_masks(2, [0, 2], [1, 3], 4) == []


def test_spanning_tree_masks_leave_no_reference_cycle():
    # a triangle with a pendant edge: one bridge contracted, a core to branch on
    _assert_no_reference_cycle(kernels.spanning_tree_masks, 4, [0, 1, 2, 0], [1, 2, 0, 3], 4)


def test_bridge_mask_leaves_no_reference_cycle():
    _assert_no_reference_cycle(kernels.bridge_mask, 4, [0, 1, 2, 0], [1, 2, 0, 3], 4)


def test_spanning_tree_masks_reject_wide_input():
    with pytest.raises(ValueError, match="at most 62 edges"):
        kernels.spanning_tree_masks(63, [0] * 63, [1] * 63, 2)


@pytest.mark.parametrize(
    "g,n_trees,max_grow,max_suffix",
    [
        # a triangle with 17 pendant edges
        (layout_graph([1, 1, 1], (), 17), 3, 8, 6),
        # a doubled 6-cycle with a pendant edge at each vertex
        (make_doubled_six_cycle(SIX_PENDANTS), 192, 576, 321),
    ],
    ids=["triangle-17-pendants", "doubled-six-cycle-6-pendants"],
)
def test_spanning_tree_masks_branch_only_on_the_core(monkeypatch, g, n_trees, max_grow, max_suffix):
    # branching on the bridges too costs 60 and 1888 _grow calls, with 57
    # and 1473 suffix union-finds
    calls = {kernels._grow: 0, kernels._suffix_components: 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn] += 1
            return fn(*args)

        return wrapper

    for fn in list(calls):
        monkeypatch.setattr(kernels, fn.__name__, counted(fn))
    us, vs = edge_endpoint_indices(g)
    masks = kernels.spanning_tree_masks(g.n_edges, us, vs, g.n_vertices)
    assert len(set(masks)) == n_trees
    assert all(m.bit_count() == g.n_vertices - 1 for m in masks)
    grow, suffix = calls.values()
    assert grow <= max_grow
    assert suffix <= max_suffix


def _path(n):
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", (vertices[i], vertices[i + 1])) for i in range(n - 1)]
    return build_multigraph(vertices, edges)


@pytest.mark.parametrize(
    "g,bridges",
    [
        # trees: every edge is a bridge
        (_path(5), 0b1111),
        (build_multigraph("abcd", [("e0", "ab"), ("e1", "ac"), ("e2", "ad")]), 0b111),
        # a cycle has none
        (make_triangle(), 0),
        # parallel copies are never bridges; fig1's classes are all on the
        # cycle or doubled
        (build_multigraph("ab", [("e0", "ab"), ("e1", "ab")]), 0),
        (make_fig1(), 0),
        # a doubled edge between two pendant edges: c, d are bridges
        (build_multigraph("abcd", [("c", "ab"), ("p", "bc"), ("q", "bc"), ("d", "cd")]), 0b1001),
        (layout_graph([1, 1, 1], (2,), 2), 0b11 << 5),
    ],
)
def test_bridge_mask_small_cases(g, bridges):
    us, vs = edge_endpoint_indices(g)
    assert kernels.bridge_mask(g.n_edges, us, vs, g.n_vertices) == bridges


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(connected_multigraphs())
def test_bridge_mask_is_the_edges_every_spanning_set_needs(g):
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    bridges = kernels.bridge_mask(g.n_edges, us, vs, g.n_vertices)
    for e in range(g.n_edges):
        assert bool(bridges >> e & 1) == (not bruteforce.spans(g, ids[:e] + ids[e + 1 :])), ids[e]


def test_contract_bridges_relabels_the_core():
    # triangle 0-1-2 with the pendant 3 on vertex 1, listed second
    us, vs = [0, 1, 1, 2], [1, 3, 2, 0]
    bridges = kernels.bridge_mask(4, us, vs, 4)
    assert bridges == 0b10
    assert kernels.contract_bridges(4, us, vs, 4, bridges) == ([0, 2, 3], [0, 1, 2], [1, 2, 0], 3)


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
    assert pyref.matrix_rank(rows) == 2


def test_wrapper_rank_empty():
    assert pyref.matrix_rank([]) == 0
    assert pyref.matrix_rank([[]]) == 0


def test_wrapper_matches_oracle_on_incidence_like_matrices():
    # incidence-like entries, as in the boundary maps
    rng = random.Random(5)
    for _ in range(40):
        rows = _random_matrix(rng, lo=-1, hi=1, max_dim=14)
        assert pyref.matrix_rank(rows) == bruteforce.rank_over_rationals(rows)

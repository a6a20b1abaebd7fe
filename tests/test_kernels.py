import gc
import inspect
import random
import sys
from itertools import combinations

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
    assert kernels.forest_grades([0, 1, 2], [1, 2, 0], 3) == [[4, 2, 1], [6, 5, 3]]


def _bruteforce_grades(us, vs, n_vertices):
    # every subset that bruteforce.is_forest accepts, by size, descending
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = [(f"e{i}", (vertices[u], vertices[v])) for i, (u, v) in enumerate(zip(us, vs))]
    g = build_multigraph(vertices, edges)
    grades = [[] for _ in range(n_vertices - 1)]
    for k in range(1, n_vertices):
        for subset in combinations(range(len(us)), k):
            if bruteforce.is_forest(g, [f"e{i}" for i in subset]):
                grades[k - 1].append(sum(1 << i for i in subset))
    return [sorted(gr, reverse=True) for gr in grades]


@pytest.mark.parametrize(
    "us,vs,n_vertices",
    [
        # K4: a simple core, nothing to factor
        ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], 4),
        # a triangle with sides of 3, 2 and 2 parallel edges, interleaved
        ([0, 1, 0, 2, 1, 0, 2], [1, 2, 1, 0, 2, 1, 0], 3),
        # a triangle with a doubled side, then a double pendant class, a
        # pendant edge, a tripled bridge beyond it and a last pendant edge
        ([0, 1, 2, 0, 3, 0, 2, 4, 5, 4, 5], [1, 2, 0, 1, 0, 3, 4, 5, 4, 5, 6], 7),
        # a tree of double classes and single edges: no core at all
        ([0, 1, 0, 1, 2, 2, 3], [1, 2, 1, 3, 4, 4, 5], 6),
        # two 4-cycles sharing a doubled edge, one with a doubled side, and
        # a double pendant class and a pendant edge
        ([0, 1, 2, 3, 0, 1, 4, 5, 1, 2, 2, 5], [1, 2, 3, 0, 1, 4, 5, 0, 4, 6, 6, 7], 8),
    ],
    ids=["k4", "parallel-core", "bridge-classes", "tree-of-classes", "two-cycles"],
)
def test_forest_grades_equal_bruteforce_on_mixed_classes(us, vs, n_vertices):
    assert kernels.forest_grades(us, vs, n_vertices) == _bruteforce_grades(us, vs, n_vertices)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(connected_multigraphs(max_edges=10))
def test_forest_grades_equal_bruteforce(g):
    us, vs = edge_endpoint_indices(g)
    assert kernels.forest_grades(us, vs, g.n_vertices) == _bruteforce_grades(us, vs, g.n_vertices)


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
    # a triangle with a doubled side and a pendant edge: walk and both expansions
    _assert_no_reference_cycle(kernels.forest_grades, [0, 1, 2, 0, 0], [1, 2, 0, 1, 3], 4)


def test_forest_masks_rejects_wide_input():
    n = kernels.EDGE_BUDGET + 1
    with pytest.raises(ValueError):
        kernels.forest_grades([0] * n, [1] * n, 2)


def test_forest_walk_stops_at_spanning_trees(monkeypatch):
    # K5: one call per forest below the top grade (1 + 10 + 45 + 110);
    # recursing from the 125 spanning trees too costs 291 calls
    calls = 0
    walk = kernels._walk

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(kernels, "_walk", counted)
    us, vs = zip(*combinations(range(5), 2))
    grades = kernels.forest_grades(us, vs, 5)
    assert [len(gr) for gr in grades] == [10, 45, 110, 125]
    assert calls <= 166


def _tree_filter(us, vs, n_vertices):
    return sorted(kernels.forest_grades(us, vs, n_vertices)[-1])


def test_spanning_tree_masks_equal_forest_filter():
    graphs = [make_fig1(), make_triangle(), make_c211(), make_theta()]
    for g in graphs + random_suite(42, 60, 12):
        us, vs = edge_endpoint_indices(g)
        masks = kernels.spanning_tree_masks(us, vs, g.n_vertices)
        assert sorted(masks) == _tree_filter(us, vs, g.n_vertices)


def test_spanning_tree_masks_small_cases():
    # triangle: the three 2-edge subsets
    assert sorted(kernels.spanning_tree_masks([0, 1, 2], [1, 2, 0], 3)) == [3, 5, 6]
    # two parallel edges then a pendant edge, listed pendant-first
    assert sorted(kernels.spanning_tree_masks([1, 0, 0], [2, 1, 1], 3)) == [3, 5]
    # disconnected: edges {0,1} and {2,3}
    assert kernels.spanning_tree_masks([0, 2], [1, 3], 4) == []


def test_spanning_tree_masks_leave_no_reference_cycle():
    # a triangle with a pendant edge: one bridge contracted, a core to branch on
    _assert_no_reference_cycle(kernels.spanning_tree_masks, [0, 1, 2, 0], [1, 2, 0, 3], 4)


def test_bridge_mask_leaves_no_reference_cycle():
    _assert_no_reference_cycle(kernels.bridge_mask, [0, 1, 2, 0], [1, 2, 0, 3], 4)


def test_spanning_tree_masks_list_a_70_cycle():
    # wider than forest enumeration accepts: a tree mask is an int of any width
    n = 70
    masks = kernels.spanning_tree_masks(list(range(n)), [(i + 1) % n for i in range(n)], n)
    full = (1 << n) - 1
    assert sorted(masks) == sorted(full ^ (1 << i) for i in range(n))


@pytest.mark.parametrize(
    "g,n_trees,max_suffix",
    [
        # a triangle with 17 pendant edges
        (layout_graph([1, 1, 1], (), 17), 3, 5),
        # a doubled 6-cycle with a pendant edge at each vertex
        (make_doubled_six_cycle(SIX_PENDANTS), 192, 20),
    ],
    ids=["triangle-17-pendants", "doubled-six-cycle-6-pendants"],
)
def test_spanning_tree_masks_branch_only_on_the_core(monkeypatch, g, n_trees, max_suffix):
    # branching on the bridges too costs 57 and 1473 suffix union-finds, and
    # branching on each parallel member of the doubled cycle 320
    suffix = kernels._suffix_components
    calls = []

    def counted(*args):
        calls.append(args)
        return suffix(*args)

    monkeypatch.setattr(kernels, "_suffix_components", counted)
    us, vs = edge_endpoint_indices(g)
    masks = kernels.spanning_tree_masks(us, vs, g.n_vertices)
    assert len(set(masks)) == n_trees
    assert all(m.bit_count() == g.n_vertices - 1 for m in masks)
    assert len(calls) <= max_suffix


def test_spanning_tree_masks_need_no_recursion_per_core_edge():
    # a core far longer than the recursion limit allows frames for
    n = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        masks = kernels.spanning_tree_masks(list(range(n)), [(i + 1) % n for i in range(n)], n)
    finally:
        sys.setrecursionlimit(limit)
    full = (1 << n) - 1
    assert sorted(masks) == sorted(full ^ (1 << i) for i in range(n))


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
    assert kernels.bridge_mask(us, vs, g.n_vertices) == bridges


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(connected_multigraphs())
def test_bridge_mask_is_the_edges_every_spanning_set_needs(g):
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()
    bridges = kernels.bridge_mask(us, vs, g.n_vertices)
    for e in range(g.n_edges):
        assert bool(bridges >> e & 1) == (not bruteforce.spans(g, ids[:e] + ids[e + 1 :])), ids[e]


def test_contract_bridges_relabels_the_core():
    # triangle 0-1-2 with the pendant 3 on vertex 1, listed second
    us, vs = [0, 1, 1, 2], [1, 3, 2, 0]
    bridges = kernels.bridge_mask(us, vs, 4)
    assert bridges == 0b10
    assert kernels.contract_bridges(us, vs, 4, bridges) == ([0, 2, 3], [0, 1, 2], [1, 2, 0], 3)


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

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancomplex import (
    build_multigraph,
    count_spanning_trees_layout,
    dimension,
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_layout,
    kernels,
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
    parallel_classes,
    recognize_unicyclic,
)
from spancomplex.randomgraphs import random_suite

import bruteforce
from bruteforce import edge_endpoint_indices
from conftest import connected_multigraphs, layout_graph, unicyclic_multigraphs

# the fourteen spanning trees of the worked example, frozen
FIG1_TREES = [
    {"e21", "e31", "e41"},
    {"e11", "e31", "e41"},
    {"e11", "e21", "e41"},
    {"e12", "e31", "e41"},
    {"e12", "e21", "e41"},
    {"e13", "e31", "e41"},
    {"e13", "e21", "e41"},
    {"e21", "e31", "e42"},
    {"e11", "e31", "e42"},
    {"e11", "e21", "e42"},
    {"e12", "e31", "e42"},
    {"e12", "e21", "e42"},
    {"e13", "e31", "e42"},
    {"e13", "e21", "e42"},
]


def as_sets(facets):
    return {frozenset(f) for f in facets}


def test_layout_enumeration_fig1(fig1):
    facets = enumerate_spanning_trees_layout(recognize_unicyclic(fig1))
    assert as_sets(facets) == {frozenset(t) for t in FIG1_TREES}
    assert len(facets) == 14


def test_layout_enumeration_triangle(triangle):
    facets = enumerate_spanning_trees_layout(recognize_unicyclic(triangle))
    assert as_sets(facets) == {
        frozenset({"e2", "e3"}),
        frozenset({"e1", "e3"}),
        frozenset({"e1", "e2"}),
    }


def test_layout_enumeration_c211(c211):
    facets = enumerate_spanning_trees_layout(recognize_unicyclic(c211))
    assert len(facets) == 5
    assert as_sets(facets) == {
        frozenset({"e21", "e31"}),
        frozenset({"e11", "e31"}),
        frozenset({"e12", "e31"}),
        frozenset({"e11", "e21"}),
        frozenset({"e12", "e21"}),
    }


def test_generic_equals_layout_fig1(fig1):
    lay = recognize_unicyclic(fig1)
    assert enumerate_spanning_trees_generic(fig1) == enumerate_spanning_trees_layout(lay)


def test_generic_single_edge():
    g = build_multigraph(["a", "b"], [("e1", ("a", "b"))])
    assert enumerate_spanning_trees_generic(g) == [("e1",)]


def test_generic_theta_matches_subset_filter(theta):
    facets = enumerate_spanning_trees_generic(theta)
    assert as_sets(facets) == bruteforce.spanning_trees(theta)
    assert len(facets) == 12


def test_generic_matches_subset_filter_on_fixtures(fig1, triangle, c211):
    for g in (fig1, triangle, c211):
        assert as_sets(enumerate_spanning_trees_generic(g)) == bruteforce.spanning_trees(g)


def test_count_fig1(fig1):
    assert count_spanning_trees_layout(recognize_unicyclic(fig1)) == 14


def test_count_simple_cycles():
    for m in range(3, 7):
        verts = [f"v{i}" for i in range(m)]
        edges = [(f"e{i}", (verts[i], verts[(i + 1) % m])) for i in range(m)]
        lay = recognize_unicyclic(build_multigraph(verts, edges))
        assert count_spanning_trees_layout(lay) == m


def test_count_c211_with_outside_class():
    g = build_multigraph(
        ["a", "b", "c", "d"],
        [
            ("e11", ("a", "b")),
            ("e12", ("a", "b")),
            ("e21", ("b", "c")),
            ("e31", ("c", "a")),
            ("e41", ("c", "d")),
            ("e42", ("c", "d")),
        ],
    )
    lay = recognize_unicyclic(g)
    assert count_spanning_trees_layout(lay) == 10
    assert len(enumerate_spanning_trees_generic(g)) == 10


def test_facets_are_sorted_deterministically(fig1):
    facets = enumerate_spanning_trees_generic(fig1)
    assert facets == sorted(facets)
    assert facets[0] == ("e11", "e21", "e41")


@pytest.mark.parametrize("start", [0, 40, 80, 120, 160])
def test_suite_properties(suite_graphs, start):
    for g in suite_graphs[start : start + 40]:
        lay = recognize_unicyclic(g)
        from_layout = enumerate_spanning_trees_layout(lay)
        generic = enumerate_spanning_trees_generic(g)
        assert from_layout == generic
        assert count_spanning_trees_layout(lay) == len(generic)

        classes = parallel_classes(g)
        cycle_keys = {c.endpoints for c in lay.cycle_classes}
        want = g.n_vertices - 1
        for f in generic:
            assert len(f) == want  # purity
            ids = set(f)
            hit_cycle = 0
            for c in classes:
                assert len(ids & set(c.members)) <= 1
                if c.endpoints in cycle_keys and ids & set(c.members):
                    hit_cycle += 1
            assert hit_cycle == lay.m - 1  # never all m cycle classes at once


def test_generic_matches_subset_filter_on_random_suite():
    for g in random_suite(42, 60, 12):
        facets = enumerate_spanning_trees_generic(g)
        assert as_sets(facets) == bruteforce.spanning_trees(g)
        assert facets == sorted(facets)


def test_generic_enumerates_no_forests(monkeypatch, fig1, theta):
    calls = {"forest_grades": 0, "spanning_tree_masks": 0}
    for name in calls:
        kernel = getattr(kernels, name)

        def counting(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counting)
    enumerate_spanning_trees_generic(fig1)
    enumerate_spanning_trees_generic(theta)
    assert calls == {"forest_grades": 0, "spanning_tree_masks": 2}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs())
def test_generic_property_on_any_connected_multigraph(g):
    facets = enumerate_spanning_trees_generic(g)
    assert as_sets(facets) == bruteforce.spanning_trees(g)
    assert facets == sorted(set(facets))
    assert bruteforce.kirchhoff_count(g) == len(facets)


def sizes_within(sizes, budget):
    """The longest prefix of ``sizes`` whose sum is at most ``budget``."""
    for k in range(len(sizes)):
        budget -= sizes[k]
        if budget < 0:
            return sizes[:k]
    return sizes


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    cycle_sizes=st.lists(st.integers(1, 4), min_size=3, max_size=6),
    outside_sizes=st.lists(st.integers(1, 3), max_size=5),
    data=st.data(),
)
def test_closed_form_lists_equal_oracles(cycle_sizes, outside_sizes, data):
    # at most 14 edges: three cycle classes (12 at most), then the outside
    # classes and then the other cycle classes, as far as they fit
    budget = 14 - sum(cycle_sizes[:3])
    outside_sizes = sizes_within(outside_sizes, budget)
    cycle_sizes = cycle_sizes[:3] + sizes_within(cycle_sizes[3:], budget - sum(outside_sizes))
    g = data.draw(unicyclic_multigraphs(cycle_sizes, outside_sizes))
    lay = recognize_unicyclic(g)
    facets = enumerate_spanning_trees_layout(lay)
    assert facets == enumerate_spanning_trees_generic(g)
    assert len(facets) == count_spanning_trees_layout(lay)
    assert minimal_vertex_covers_closed_form(lay) == minimal_vertex_covers_generic(g)


@pytest.mark.parametrize(
    "cycle_sizes, pendants, count",
    [([1] * 2000, 0, 2000), ([3] * 2000, 0, 2000 * 3**1999), ([2, 2, 2], 5000, 12)],
    ids=["simple-2000-cycle", "fat-2000-cycle", "doubles-5000-pendants"],
)
def test_count_far_past_the_enumeration_budget(cycle_sizes, pendants, count):
    # the matrix-tree theorem reads neither the layout nor any tree list
    g = layout_graph(cycle_sizes, pendants=pendants)
    lay = recognize_unicyclic(g)
    assert count_spanning_trees_layout(lay) == bruteforce.kirchhoff_count(g) == count


def test_closed_form_lists_past_the_enumeration_budget():
    lay = recognize_unicyclic(layout_graph([2] * 9 + [1] * 6, [2, 2], 3))
    assert lay.n == 31  # no oracle runs past 24 edges
    facets = enumerate_spanning_trees_layout(lay)
    assert len(set(facets)) == len(facets) == count_spanning_trees_layout(lay) == 21504
    for f in facets:
        ids = set(f)
        assert len(ids) == dimension(lay) + 1
        kept = sorted(len(ids & set(c.members)) for c in lay.cycle_classes)
        assert kept == [0] + [1] * (lay.m - 1)  # one whole cycle class left out
        for c in lay.outside_multiple_classes:
            assert len(ids & set(c.members)) == 1
        assert ids >= set(lay.outside_single_edges)

    covers = minimal_vertex_covers_closed_form(lay)
    singles = lay.m - lay.r_prime
    families = (
        lay.v + lay.r_prime * singles + comb(singles, 2) + comb(lay.r_prime, 2) + lay.r_dprime
    )
    assert len(set(covers)) == len(covers) == families == 110


def test_tree_masks_of_the_fat_10_cycle():
    # ten triple classes: 10 * 3**9 trees, from a class quotient with 10
    g = layout_graph([3] * 10)
    us, vs = edge_endpoint_indices(g)
    masks = kernels.spanning_tree_masks(us, vs, g.n_vertices)
    assert len(set(masks)) == len(masks) == 196_830
    assert all(m.bit_count() == g.n_vertices - 1 for m in masks)
    assert len(masks) == count_spanning_trees_layout(recognize_unicyclic(g))


def test_generic_covers_past_the_enumeration_budget():
    # a 3-cycle of double classes and 1000 pendant edges: n = 1006
    g = layout_graph([2, 2, 2], pendants=1000)
    covers = minimal_vertex_covers_generic(g)
    assert len(covers) == 1003
    assert covers == minimal_vertex_covers_closed_form(recognize_unicyclic(g))


def test_generic_facets_past_the_enumeration_budget():
    # n = 43: every class size on the cycle, two outside classes, 30 pendants
    g = layout_graph([3, 2, 2, 1], (2, 3), 30)
    facets = enumerate_spanning_trees_generic(g)
    assert len(facets) == 168
    assert as_sets(facets) == as_sets(enumerate_spanning_trees_layout(recognize_unicyclic(g)))

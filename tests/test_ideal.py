import inspect
import sys

import pytest
from hypothesis import given, settings

from spancomplex import (
    VertexCover,
    build_multigraph,
    enumerate_spanning_trees_generic,
    facet_ideal,
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
    primary_decomposition,
    recognize_unicyclic,
)
from spancomplex.ideal import _assert_bond, monomial_divisible_by_some_generator
from spancomplex.multigraph import edge_endpoint_indices

import bruteforce
from conftest import connected_multigraphs

FIG1_COVERS = {
    frozenset({"e41", "e42"}),
    frozenset({"e21", "e31"}),
    frozenset({"e11", "e12", "e13", "e21"}),
    frozenset({"e11", "e12", "e13", "e31"}),
}


def as_sets(covers):
    return {frozenset(c.edge_ids) for c in covers}


def one_edge():
    return build_multigraph(["a", "b"], [("e1", ("a", "b"))])


def test_generic_covers_fig1(fig1):
    facets = enumerate_spanning_trees_generic(fig1)
    covers = minimal_vertex_covers_generic(fig1)
    assert as_sets(covers) == FIG1_COVERS
    assert as_sets(covers) == bruteforce.minimal_covers(facets)


def test_generic_covers_triangle(triangle):
    assert as_sets(minimal_vertex_covers_generic(triangle)) == {
        frozenset({"e1", "e2"}),
        frozenset({"e1", "e3"}),
        frozenset({"e2", "e3"}),
    }


def test_generic_covers_single_facet():
    assert minimal_vertex_covers_generic(one_edge()) == [VertexCover(("e1",))]


def test_generic_covers_theta(theta):
    covers = minimal_vertex_covers_generic(theta)
    assert as_sets(covers) == bruteforce.minimal_covers(enumerate_spanning_trees_generic(theta))
    # both edges of one path, or one edge from each of the three paths
    assert [len(c.edge_ids) for c in covers] == [2] * 3 + [3] * 8


def test_generic_covers_of_long_cycle():
    """Any two edges of a cycle form a bond; 64 edges is past every facet budget."""
    n = 64
    vertices = [f"v{i}" for i in range(n)]
    g = build_multigraph(
        vertices, [(f"e{i:02d}", (vertices[i], vertices[(i + 1) % n])) for i in range(n)]
    )
    covers = minimal_vertex_covers_generic(g)
    assert len(covers) == n * (n - 1) // 2 == 2016
    assert {c.edge_ids for c in covers} == {
        (f"e{i:02d}", f"e{j:02d}") for i in range(n) for j in range(i + 1, n)
    }


def test_generic_covers_do_not_recurse_per_vertex():
    """The walk keeps its own stack: 300 vertices need no 300 nested calls."""
    n = 300
    vertices = [f"v{i:03d}" for i in range(n)]
    g = build_multigraph(
        vertices, [(f"e{i:03d}", (vertices[i], vertices[i + 1])) for i in range(n - 1)]
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        covers = minimal_vertex_covers_generic(g)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.edge_ids for c in covers] == [(f"e{i:03d}",) for i in range(n - 1)]


def test_bond_check_rejects_non_bonds(fig1):
    us, vs = edge_endpoint_indices(fig1)
    ids = fig1.edge_ids()

    def check(*cut):
        _assert_bond(fig1.n_vertices, us, vs, [ids.index(e) for e in cut], ids)

    check("e41", "e42")
    check("e11", "e12", "e13", "e31")
    with pytest.raises(AssertionError, match="does not leave exactly two components"):
        check("e41")  # disconnects nothing
    with pytest.raises(AssertionError, match="does not leave exactly two components"):
        check("e21", "e31", "e41", "e42")  # leaves {a, b}, {c} and {d}
    with pytest.raises(AssertionError, match="is not minimal: e41 is redundant"):
        check("e21", "e31", "e41")  # e42 still joins c to d


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_generic_covers_are_the_minimal_transversals(g):
    covers = minimal_vertex_covers_generic(g)
    assert as_sets(covers) == bruteforce.minimal_covers(enumerate_spanning_trees_generic(g))
    assert len(as_sets(covers)) == len(covers)
    assert covers == sorted(covers, key=lambda c: (len(c.edge_ids), c.edge_ids))


def test_closed_form_covers_fig1(fig1):
    lay = recognize_unicyclic(fig1)
    assert as_sets(minimal_vertex_covers_closed_form(lay)) == FIG1_COVERS


def test_closed_form_covers_triangle(triangle):
    lay = recognize_unicyclic(triangle)
    covers = minimal_vertex_covers_closed_form(lay)
    assert [len(c.edge_ids) for c in covers] == [2, 2, 2]


def test_pendant_single_edge_is_a_cover():
    g = build_multigraph(
        ["a", "b", "c", "d"],
        [
            ("e1", ("a", "b")),
            ("e2", ("b", "c")),
            ("e3", ("c", "a")),
            ("p1", ("c", "d")),
        ],
    )
    lay = recognize_unicyclic(g)
    assert lay.v == 1
    covers = minimal_vertex_covers_closed_form(lay)
    assert VertexCover(("p1",)) in covers
    assert covers == minimal_vertex_covers_generic(g)


def test_closed_form_matches_generic_on_suite(suite_graphs):
    for g in suite_graphs[:80]:
        lay = recognize_unicyclic(g)
        assert minimal_vertex_covers_closed_form(lay) == minimal_vertex_covers_generic(g)


def test_covering_and_drop_one_minimality(suite_graphs):
    for g in suite_graphs[:40]:
        facets = enumerate_spanning_trees_generic(g)
        facet_sets = [set(f.edge_ids) for f in facets]
        for cover in minimal_vertex_covers_generic(g):
            ids = set(cover.edge_ids)
            assert all(ids & fs for fs in facet_sets)
            for e in ids:
                rest = ids - {e}
                assert not all(rest & fs for fs in facet_sets)


def test_facet_ideal_fig1(fig1):
    view = facet_ideal(enumerate_spanning_trees_generic(fig1))
    assert len(view.generators) == 14
    assert view.generators[0] == ("e11", "e21", "e41")
    rendered = view.render_generators()
    assert rendered.startswith("⟨x_{e11}x_{e21}x_{e41}, ")
    assert rendered.endswith("⟩")


def test_facet_ideal_triangle(triangle):
    view = facet_ideal(enumerate_spanning_trees_generic(triangle))
    assert view.generators == (("e1", "e2"), ("e1", "e3"), ("e2", "e3"))


def test_facet_ideal_single_facet():
    view = facet_ideal(enumerate_spanning_trees_generic(one_edge()))
    assert view.render_generators() == "⟨x_{e1}⟩"


def test_primary_decomposition_fig1(fig1):
    decomp = primary_decomposition(minimal_vertex_covers_generic(fig1))
    assert decomp.render_decomposition() == (
        "(x_{e21},x_{e31}) ∩ (x_{e41},x_{e42}) ∩ "
        "(x_{e11},x_{e12},x_{e13},x_{e21}) ∩ (x_{e11},x_{e12},x_{e13},x_{e31})"
    )
    assert {frozenset(c) for c in decomp.components} == FIG1_COVERS


def test_primary_decomposition_single_facet():
    decomp = primary_decomposition(minimal_vertex_covers_generic(one_edge()))
    assert decomp.render_decomposition() == "(x_{e1})"


def test_json_form(fig1):
    doc = primary_decomposition(minimal_vertex_covers_generic(fig1)).to_json_dict()
    assert set(doc) == {"generators", "components"}
    assert doc["components"][0] == ["e21", "e31"]


def test_cover_prime_bijection(suite_graphs):
    for g in suite_graphs[:30]:
        covers = minimal_vertex_covers_generic(g)
        decomp = primary_decomposition(covers)
        assert [tuple(c) for c in decomp.components] == [c.edge_ids for c in covers]


def test_membership_equivalence(suite_graphs):
    small = [g for g in suite_graphs if g.n_edges <= 10][:20]
    for g in small:
        facets = enumerate_spanning_trees_generic(g)
        view = facet_ideal(facets)
        ids = g.edge_ids()
        for mask in range(1, 1 << g.n_edges):
            subset = [ids[i] for i in range(g.n_edges) if mask >> i & 1]
            divisible = monomial_divisible_by_some_generator(subset, view)
            assert divisible == (
                len(subset) >= g.n_vertices - 1 and bruteforce.spans(g, subset)
            )

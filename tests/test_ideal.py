import inspect
import json
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings

from spancomplex import (
    build_multigraph,
    enumerate_spanning_trees_generic,
    facet_ideal_generic,
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
    recognize_unicyclic,
    run_analyze,
)
from spancomplex import kernels
from spancomplex.cli import main
from spancomplex.homology import graded_faces
from spancomplex.ideal import (
    _assert_bond,
    _assert_bridge_classes,
    _bonds,
    _graph,
    certified_covers,
    is_blocker,
    render_decomposition,
)
from spancomplex.multigraph import id_ordered_indices

import bruteforce
from bruteforce import edge_endpoint_indices
from conftest import FIXTURES, connected_multigraphs, layout_graph

FIG1_COVERS = {
    frozenset({"e41", "e42"}),
    frozenset({"e21", "e31"}),
    frozenset({"e11", "e12", "e13", "e21"}),
    frozenset({"e11", "e12", "e13", "e31"}),
}


def as_sets(covers):
    return {frozenset(c) for c in covers}


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
    assert minimal_vertex_covers_generic(one_edge()) == [("e1",)]


def test_generic_covers_theta(theta):
    covers = minimal_vertex_covers_generic(theta)
    assert as_sets(covers) == bruteforce.minimal_covers(enumerate_spanning_trees_generic(theta))
    # both edges of one path, or one edge from each of the three paths
    assert [len(c) for c in covers] == [2] * 3 + [3] * 8


def test_generic_covers_of_long_cycle():
    """Any two edges of a cycle form a bond; 64 edges is past every facet budget."""
    n = 64
    vertices = [f"v{i}" for i in range(n)]
    g = build_multigraph(
        vertices, [(f"e{i:02d}", (vertices[i], vertices[(i + 1) % n])) for i in range(n)]
    )
    covers = minimal_vertex_covers_generic(g)
    assert len(covers) == n * (n - 1) // 2 == 2016
    assert set(covers) == {
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
    assert covers == [(f"e{i:03d}",) for i in range(n - 1)]


def test_bond_check_rejects_non_bonds(fig1):
    us, vs = edge_endpoint_indices(fig1)
    ids = fig1.edge_ids()

    def check(*cut):
        mask = sum(1 << ids.index(e) for e in cut)
        _assert_bond(us, vs, mask, ids, _graph(fig1.n_vertices, us, vs))

    check("e41", "e42")
    check("e11", "e12", "e13", "e31")
    with pytest.raises(AssertionError, match="does not leave exactly two components"):
        check("e41")  # disconnects nothing
    with pytest.raises(AssertionError, match="does not leave exactly two components"):
        check("e21", "e31", "e41", "e42")  # leaves {a, b}, {c} and {d}
    with pytest.raises(AssertionError, match="is not minimal: e41 is redundant"):
        check("e21", "e31", "e41")  # e42 still joins c to d


def test_bridge_class_check_rejects_non_bridge_classes():
    # a 3-cycle with one double class, two outside double classes and a
    # pendant edge beyond them, on the path v0 - w0 - w1 - w2
    g = layout_graph([2, 1, 1], (2, 2), 1)
    us, vs = edge_endpoint_indices(g)
    ids = g.edge_ids()

    def check(*classes):
        masks = [sum(1 << ids.index(e) for e in c) for c in classes]
        _assert_bridge_classes(us, vs, masks, ids, _graph(g.n_vertices, us, vs))

    bridges = (["b0_0", "b0_1"], ["b1_0", "b1_1"], ["b2_0"])
    check(*bridges)
    # deleting a cycle class too splits off no further component
    planted = re.escape(
        "[['b0_0', 'b0_1'], ['b1_0', 'b1_1'], ['b2_0'], ['c0_0', 'c0_1']] "
        "leave 4 components, not 5"
    )
    with pytest.raises(AssertionError, match=f"^{planted}$"):
        check(*bridges, ["c0_0", "c0_1"])
    # b0_1 still joins v0 to w0
    dropped = re.escape("[['b0_0'], ['b1_0', 'b1_1'], ['b2_0']] leave 3 components, not 4")
    with pytest.raises(AssertionError, match=f"^{dropped}$"):
        check(["b0_0"], *bridges[1:])
    # split over two sets, the class is still deleted whole, but neither
    # half is a bond on its own
    split = re.escape(
        "[['b0_0'], ['b0_1'], ['b1_0', 'b1_1'], ['b2_0']] leave 4 components, not 5"
    )
    with pytest.raises(AssertionError, match=f"^{split}$"):
        check(["b0_0"], ["b0_1"], *bridges[1:])
    # deleting both leaves two components, but c1_0 is redundant: not one class
    with pytest.raises(AssertionError, match=re.escape("['b2_0', 'c1_0'] is not one parallel class")):
        check(["b2_0", "c1_0"])
    # an empty mask holds no class at all
    with pytest.raises(AssertionError, match=re.escape("[] is not one parallel class")):
        check(*bridges, [])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_generic_covers_are_the_minimal_transversals(g):
    covers = minimal_vertex_covers_generic(g)
    assert as_sets(covers) == bruteforce.minimal_covers(enumerate_spanning_trees_generic(g))
    assert len(as_sets(covers)) == len(covers)
    assert covers == sorted(covers, key=lambda c: (len(c), c))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_facet_ideal_lists_the_trees_and_the_input_order_bonds(g):
    # one shared quotient gives what the two standalone calls give
    generators, components = facet_ideal_generic(g)
    assert generators == enumerate_spanning_trees_generic(g)
    assert components == minimal_vertex_covers_generic(g)


def walk_masks(g):
    """The bond walk's edge masks, in the layout of ``graded_faces``."""
    us, vs, ids = id_ordered_indices(g)
    return _bonds(kernels._contracted_quotient(us, vs, g.n_vertices), g.n_vertices, us, vs, ids)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_blocker_certificate_accepts_the_bonds_and_nothing_near_them(g):
    trees = list(graded_faces(g).grades[-1])
    bonds = walk_masks(g)
    assert is_blocker(trees, bonds)
    assert not is_blocker(trees, bonds[1:])  # a bond dropped
    assert not is_blocker(trees, bonds + bonds[-1:])  # a bond repeated
    for c1, c2 in combinations(bonds, 2):
        assert not is_blocker(trees, bonds + [c1 | c2])  # a union of two added
    for i, c in enumerate(bonds):
        others = bonds[:i] + bonds[i + 1 :]
        for e in range(g.n_edges):
            # the bond with one edge added, or with one edge removed
            assert not is_blocker(trees, others + [c ^ 1 << e])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_blocker_certificate_ignores_the_tree_order(g):
    trees = list(graded_faces(g).grades[-1])
    bonds = walk_masks(g)
    near = [bonds, bonds[1:], bonds + bonds[-1:], bonds[:-1] + [bonds[-1] ^ 1]]
    for covers in near:
        assert is_blocker(trees[::-1], covers) == is_blocker(trees, covers)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_multigraphs(max_edges=10, max_rank=3))
def test_bond_walk_masks_are_the_cuts_of_their_sides(g):
    us, vs, _ = id_ordered_indices(g)
    edges = list(enumerate(zip(us, vs)))
    for mask in walk_masks(g):
        # S, the side of vertex 0, grown edge by edge over the edges not in the mask
        side, grown = {0}, True
        while grown:
            grown = False
            for e, (u, v) in edges:
                if not mask >> e & 1 and (u in side) != (v in side):
                    side |= {u, v}
                    grown = True
        assert mask == sum(1 << e for e, (u, v) in edges if (u in side) != (v in side))


def test_blocker_certificate_needs_each_of_its_four_conditions(triangle):
    trees = list(graded_faces(triangle).grades[-1])
    a, b, c = bonds = walk_masks(triangle)  # the three edge pairs
    assert is_blocker(trees, bonds)
    # each list fails exactly one condition
    assert not is_blocker(trees, [a & -a, b, c])  # {e} misses the tree of the others
    assert not is_blocker(trees, [a, b, c, a | b])  # a | b has no single-edge witness
    assert not is_blocker(trees, [a, b, a])  # a repeats; its pairs stand in for c's
    assert not is_blocker(trees, [a, b])  # 4 single-edge pairs, not 3 * 2


def test_certified_covers_are_decoded_from_their_masks(fig1):
    faces = graded_faces(fig1)
    ids = faces.edge_order[::-1]
    covers = minimal_vertex_covers_closed_form(recognize_unicyclic(fig1))
    walked = minimal_vertex_covers_generic(fig1)
    assert certified_covers(covers, faces.grades[-1], ids) == walked
    # the right sets in another order come back in the walk's order
    certified = certified_covers(covers[::-1], faces.grades[-1], ids)
    assert certified == walked != covers[::-1]
    assert certified_covers(covers[1:], faces.grades[-1], ids) is None


def test_closed_form_covers_fig1(fig1):
    lay = recognize_unicyclic(fig1)
    assert as_sets(minimal_vertex_covers_closed_form(lay)) == FIG1_COVERS


def test_closed_form_covers_triangle(triangle):
    lay = recognize_unicyclic(triangle)
    covers = minimal_vertex_covers_closed_form(lay)
    assert [len(c) for c in covers] == [2, 2, 2]


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
    assert ("p1",) in covers
    assert covers == minimal_vertex_covers_generic(g)


def test_closed_form_matches_generic_on_suite(suite_graphs):
    for g in suite_graphs[:80]:
        lay = recognize_unicyclic(g)
        assert minimal_vertex_covers_closed_form(lay) == minimal_vertex_covers_generic(g)


def test_covering_and_drop_one_minimality(suite_graphs):
    for g in suite_graphs[:40]:
        facets = enumerate_spanning_trees_generic(g)
        facet_sets = [set(f) for f in facets]
        for cover in minimal_vertex_covers_generic(g):
            ids = set(cover)
            assert all(ids & fs for fs in facet_sets)
            for e in ids:
                rest = ids - {e}
                assert not all(rest & fs for fs in facet_sets)


def test_facet_ideal_fig1(fig1):
    # the generators are the spanning trees, counted in the text report
    report = run_analyze(fig1)
    assert len(report.facets) == 14
    assert report.facets[0] == ("e11", "e21", "e41")
    assert "facet ideal generators: 14\n" in report.render_text()


def test_facet_ideal_triangle(triangle):
    assert run_analyze(triangle).facets == [("e1", "e2"), ("e1", "e3"), ("e2", "e3")]


def test_facet_ideal_single_facet():
    text = run_analyze(one_edge()).render_text()
    assert "facet ideal generators: 1\nprimary decomposition: (x_{e1})\n" in text


def test_primary_decomposition_fig1(fig1):
    covers = minimal_vertex_covers_generic(fig1)
    assert render_decomposition(covers) == (
        "(x_{e21},x_{e31}) ∩ (x_{e41},x_{e42}) ∩ "
        "(x_{e11},x_{e12},x_{e13},x_{e21}) ∩ (x_{e11},x_{e12},x_{e13},x_{e31})"
    )
    assert as_sets(covers) == FIG1_COVERS


def test_primary_decomposition_single_facet():
    assert render_decomposition(minimal_vertex_covers_generic(one_edge())) == "(x_{e1})"


def test_json_form(fig1, capsys):
    assert main(["covers", str(FIXTURES / "u_7_3_2.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"generators", "components"}
    assert doc["generators"] == [list(f) for f in enumerate_spanning_trees_generic(fig1)]
    assert doc["components"] == [list(c) for c in minimal_vertex_covers_generic(fig1)]
    assert doc["components"][0] == ["e21", "e31"]


def test_cover_prime_bijection(suite_graphs):
    for g in suite_graphs[:30]:
        covers = minimal_vertex_covers_generic(g)
        primes = render_decomposition(covers).split(" ∩ ")
        assert primes == ["(" + ",".join(f"x_{{{e}}}" for e in c) + ")" for c in covers]

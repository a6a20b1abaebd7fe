import dataclasses
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancomplex import (
    DisconnectedGraphError,
    DuplicateEdgeIdError,
    EmptyGraphError,
    GraphValidationError,
    LoopEdgeError,
    NotUnicyclicError,
    SchemaError,
    UnicyclicLayout,
    UnknownEndpointError,
    build_multigraph,
    load_graph_file,
    multigraph_from_json,
    parallel_classes,
    recognize_unicyclic,
)
from spancomplex import randomgraphs
from spancomplex.multigraph import _quotient_cycle
from spancomplex.randomgraphs import random_suite

import bruteforce
from conftest import FIXTURES, connected_multigraphs, make_fig1, unicyclic_multigraphs


def test_build_fig1():
    g = make_fig1()
    assert g.n_vertices == 4
    assert g.n_edges == 7
    assert g.edge_ids()[0] == "e11"


def test_build_rejects_empty_edge_list():
    with pytest.raises(EmptyGraphError):
        build_multigraph(["a"], [])


def test_build_rejects_empty_edge_generator():
    with pytest.raises(EmptyGraphError, match="edge list is empty"):
        build_multigraph(["a"], iter([]))


def test_build_reads_edges_from_a_generator():
    g = build_multigraph("abc", ((f"e{i}", (u, v)) for i, (u, v) in enumerate(["ab", "bc", "ca"])))
    assert g.edge_ids() == ("e0", "e1", "e2")
    assert recognize_unicyclic(g).m == 3


def test_build_rejects_empty_vertex_list():
    with pytest.raises(EmptyGraphError):
        build_multigraph([], [("e1", ("a", "b"))])


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_multigraph(["a", "b"], [("x", ("a", "a")), ("y", ("a", "b"))])


def test_build_rejects_duplicate_edge_id():
    with pytest.raises(DuplicateEdgeIdError):
        build_multigraph(["a", "b"], [("e", ("a", "b")), ("e", ("a", "b"))])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(UnknownEndpointError):
        build_multigraph(["a", "b"], [("e", ("a", "z"))])
    with pytest.raises(UnknownEndpointError, match="edge 'e' names unknown vertex 'z'"):
        build_multigraph(["a", "b"], [("e", ("z", "a"))])


def test_build_rejects_disconnected():
    # the first unreached vertex in input order, not in name order
    with pytest.raises(DisconnectedGraphError, match="^vertex 'd' is unreachable$"):
        build_multigraph(
            ["a", "d", "b", "c"], [("e1", ("a", "b")), ("e2", ("c", "d"))]
        )


def test_build_turns_every_name_into_a_string():
    g = build_multigraph([1, 2, 3], [("a", (1, 2)), ("b", (2, 3)), ("c", (3, 1))])
    assert g.vertices == ("1", "2", "3")
    assert g.edges == (("a", ("1", "2")), ("b", ("2", "3")), ("c", ("3", "1")))
    assert recognize_unicyclic(g).m == 3


@pytest.mark.parametrize("ends", [("a", "b", "c"), ("a",), 7], ids=["three", "one", "int"])
def test_build_rejects_ends_that_are_not_a_pair(ends):
    with pytest.raises(GraphValidationError, match="^edge 'e2' must join exactly two vertices$"):
        build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ends)])


def test_build_names_the_first_vertex_that_repeats():
    with pytest.raises(GraphValidationError, match="^duplicate vertex identifier 'b'$"):
        build_multigraph(["a", "b", "b", "a"], [("e1", ("a", "b"))])


def test_build_rejects_a_late_duplicate_vertex_in_linear_time():
    # rescanning the earlier vertices for each one is quadratic: tens of
    # seconds at this size
    vertices = [f"v{i}" for i in range(60_000)] + ["v59999"]
    start = time.perf_counter()
    with pytest.raises(GraphValidationError, match="^duplicate vertex identifier 'v59999'$"):
        build_multigraph(vertices, [("e1", ("v0", "v1"))])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("record", [("e1", "a", "b"), None], ids=["triple", "none"])
def test_build_rejects_malformed_edge_record(record):
    with pytest.raises(GraphValidationError, match=r"^edge record 1 must be a pair \(id, ends\)$"):
        build_multigraph(["a", "b"], [("e0", ("a", "b")), record])


def test_parallel_classes_fig1(fig1):
    classes = parallel_classes(fig1)
    assert [c.size for c in classes] == [3, 1, 1, 2]
    assert classes[0].members == ("e11", "e12", "e13")
    assert classes[3].endpoints == ("c", "d")


def test_parallel_classes_triangle(triangle):
    assert [c.size for c in parallel_classes(triangle)] == [1, 1, 1]


def test_parallel_classes_one_class():
    g = build_multigraph(
        ["a", "b"], [("p", ("a", "b")), ("q", ("b", "a")), ("r", ("a", "b"))]
    )
    classes = parallel_classes(g)
    assert len(classes) == 1
    assert classes[0].members == ("p", "q", "r")


def test_parallel_classes_partition_edges(suite_graphs):
    for g in suite_graphs[:50]:
        classes = parallel_classes(g)
        seen = [e for c in classes for e in c.members]
        assert sorted(seen) == sorted(g.edge_ids())
        assert len(set(seen)) == len(seen)


def test_recognize_fig1(fig1):
    lay = recognize_unicyclic(fig1)
    assert (lay.n, lay.m, lay.r_prime, lay.r_dprime, lay.r) == (7, 3, 1, 1, 2)
    assert (lay.alpha, lay.beta, lay.v) == (3, 2, 0)


def test_recognize_triangle(triangle):
    lay = recognize_unicyclic(triangle)
    assert (lay.n, lay.m, lay.r_prime, lay.r_dprime) == (3, 3, 0, 0)
    assert (lay.alpha, lay.beta, lay.v) == (0, 0, 0)


def test_recognize_rejects_theta(theta):
    with pytest.raises(NotUnicyclicError):
        recognize_unicyclic(theta)


def test_recognize_rejects_tree():
    g = build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c"))])
    with pytest.raises(NotUnicyclicError):
        recognize_unicyclic(g)


def test_recognize_rejects_two_cycle_of_parallel_edges():
    # quotient of a doubled edge is a single arc, i.e. a tree
    g = build_multigraph(["a", "b"], [("p", ("a", "b")), ("q", ("a", "b"))])
    with pytest.raises(NotUnicyclicError):
        recognize_unicyclic(g)


def test_canonical_labels_fig1(fig1):
    lay = recognize_unicyclic(fig1)
    labels = lay.canonical_labels()
    assert labels["e11"] == "e_{1,1}"
    assert labels["e13"] == "e_{1,3}"
    assert labels["e21"] == "e_{2,1}"
    assert labels["e31"] == "e_{3,1}"
    assert labels["e42"] == "e_{4,2}"
    assert tuple(labels) == ("e11", "e12", "e13", "e21", "e31", "e41", "e42")


def test_recognition_is_deterministic(fig1):
    assert recognize_unicyclic(fig1) == recognize_unicyclic(make_fig1())


def test_layout_scalar_invariant(suite_graphs):
    for g in suite_graphs:
        lay = recognize_unicyclic(g)
        assert lay.n == lay.alpha + (lay.m - lay.r_prime) + lay.beta + lay.v
        assert lay.r == lay.r_prime + lay.r_dprime
        assert lay.m >= 3
        assert all(c.size >= 2 for c in lay.multiple_cycle_classes)
        assert all(c.size >= 2 for c in lay.outside_multiple_classes)
        assert all(c.size == 1 for c in lay.single_cycle_classes)


def test_layout_takes_only_the_class_tuples(suite_graphs):
    fixtures = [load_graph_file(p) for p in sorted(FIXTURES.glob("*.json")) if p.stem != "theta"]
    for g in fixtures + suite_graphs:
        lay = recognize_unicyclic(g)
        tuples = (lay.cycle_classes, lay.outside_multiple_classes, lay.outside_single_edges)
        assert UnicyclicLayout(*tuples) == lay
    scalars = ("n", "m", "r_prime", "r_dprime", "r", "alpha", "beta", "v")
    for name in scalars:
        with pytest.raises(TypeError):
            UnicyclicLayout(*tuples, **{name: 0})
        with pytest.raises(ValueError):
            dataclasses.replace(lay, **{name: 0})


@st.composite
def _drawn_layouts(draw):
    sizes = st.integers(1, 4)
    cycle_sizes = draw(st.lists(sizes, min_size=3, max_size=7))
    outside_sizes = draw(st.lists(sizes, max_size=5))
    return draw(unicyclic_multigraphs(cycle_sizes, outside_sizes)), cycle_sizes, outside_sizes


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_drawn_layouts())
def test_recognized_scalars_count_the_drawn_shape(drawn):
    g, cycle_sizes, outside_sizes = drawn
    lay = recognize_unicyclic(g)
    cycle_multiple = [s for s in cycle_sizes if s >= 2]
    outside_multiple = [s for s in outside_sizes if s >= 2]
    assert lay.n == sum(cycle_sizes) + sum(outside_sizes) == g.n_edges
    assert lay.m == len(cycle_sizes)
    assert (lay.r_prime, lay.alpha) == (len(cycle_multiple), sum(cycle_multiple))
    assert (lay.r_dprime, lay.beta) == (len(outside_multiple), sum(outside_multiple))
    assert lay.r == lay.r_prime + lay.r_dprime
    assert lay.v == outside_sizes.count(1)
    assert Counter(c.size for c in lay.cycle_classes) == Counter(cycle_sizes)


def test_quotient_arc_count_equals_vertex_count(suite_graphs):
    for g in suite_graphs[:50]:
        assert len(parallel_classes(g)) == g.n_vertices


def test_labels_cover_all_edges(suite_graphs):
    for g in suite_graphs[:50]:
        lay = recognize_unicyclic(g)
        labels = lay.canonical_labels()
        assert sorted(labels) == sorted(g.edge_ids())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(connected_multigraphs(max_rank=3))
def test_recognition_finds_the_quotient_cycle(g):
    # uni-cyclic exactly when the quotient has as many arcs as nodes; then
    # the cycle classes are those whose removal leaves the graph connected
    if len({frozenset(ends) for _, ends in g.edges}) != g.n_vertices:
        with pytest.raises(NotUnicyclicError):
            recognize_unicyclic(g)
        return
    lay = recognize_unicyclic(g)
    classes = parallel_classes(g)
    ids = set(g.edge_ids())
    on_cycle = {c for c in classes if bruteforce.spans(g, ids - set(c.members))}
    assert len(lay.cycle_classes) == len(on_cycle) and set(lay.cycle_classes) == on_cycle
    # the layout lists multiple classes first, so adjacency is checked on the walk
    walk = _quotient_cycle(g, classes)
    assert set(walk) == on_cycle and len(walk) == len(on_cycle)
    for c, d in zip(walk, walk[1:] + walk[:1]):
        assert set(c.endpoints) & set(d.endpoints)
    assert sorted(lay.canonical_labels()) == sorted(g.edge_ids())


VALID_DOC = """
{
  "vertices": ["a", "b", "c"],
  "edges": [
    {"id": "e1", "ends": ["a", "b"]},
    {"id": "e2", "ends": ["b", "c"]},
    {"id": "e3", "ends": ["c", "a"]}
  ]
}
"""


def test_json_roundtrip(triangle):
    assert multigraph_from_json(VALID_DOC) == triangle


def test_json_rejects_duplicate_keys():
    with pytest.raises(SchemaError, match="duplicate key"):
        multigraph_from_json('{"vertices": ["a"], "vertices": ["b"], "edges": []}')


def test_json_rejects_syntax_error():
    with pytest.raises(SchemaError, match="line"):
        multigraph_from_json("{not json")


def test_json_rejects_missing_key():
    with pytest.raises(SchemaError, match="edges"):
        multigraph_from_json('{"vertices": ["a"]}')


def test_json_rejects_bad_edge_record():
    with pytest.raises(SchemaError, match=r"edges\[0\]"):
        multigraph_from_json('{"vertices": ["a", "b"], "edges": [{"id": "e1"}]}')


def test_json_rejects_bad_ends():
    with pytest.raises(SchemaError, match=r"edges\[0\].ends"):
        multigraph_from_json(
            '{"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": ["a"]}]}'
        )


def test_json_forwards_validation_errors():
    doc = (
        '{"vertices": ["a", "b"], "edges": ['
        '{"id": "e1", "ends": ["a", "b"]}, {"id": "e1", "ends": ["a", "b"]}]}'
    )
    with pytest.raises(DuplicateEdgeIdError, match="e1"):
        multigraph_from_json(doc)


@pytest.mark.parametrize("max_edges", [2, 0, -1])
def test_random_suite_rejects_max_edges_below_three(monkeypatch, max_edges):
    # no uni-cyclic multigraph has fewer than 3 edges, so no draw is made
    def no_draws(*args):
        raise AssertionError("drew a layout")

    monkeypatch.setattr(randomgraphs, "random_unicyclic_multigraph", no_draws)
    with pytest.raises(ValueError, match=f"max_edges must be at least 3, got {max_edges}"):
        random_suite(1, 1, max_edges)


def test_random_layout_keeps_attempt_limit():
    with pytest.raises(RuntimeError, match="no admissible layout found in 10000 draws"):
        randomgraphs.random_unicyclic_multigraph(random.Random(1), 2)


def test_random_suite_is_deterministic():
    a = random_suite(7, 10, 12)
    b = random_suite(7, 10, 12)
    assert a == b
    assert all(g.n_edges <= 12 for g in a)

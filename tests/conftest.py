from pathlib import Path

import pytest
from hypothesis import strategies as st

from spancomplex import build_multigraph
from spancomplex.randomgraphs import random_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_fig1():
    """Three parallel edges on {a,b}, a 3-cycle, and a double pendant class."""
    return build_multigraph(
        ["a", "b", "c", "d"],
        [
            ("e11", ("a", "b")),
            ("e12", ("a", "b")),
            ("e13", ("a", "b")),
            ("e21", ("b", "c")),
            ("e31", ("c", "a")),
            ("e41", ("c", "d")),
            ("e42", ("c", "d")),
        ],
    )


def make_triangle():
    return build_multigraph(
        ["a", "b", "c"],
        [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "a"))],
    )


def make_c211():
    """Cycle with class sizes (2,1,1): four edges on three vertices."""
    return build_multigraph(
        ["a", "b", "c"],
        [
            ("e11", ("a", "b")),
            ("e12", ("a", "b")),
            ("e21", ("b", "c")),
            ("e31", ("c", "a")),
        ],
    )


def make_theta():
    """Two vertices joined by three internally disjoint length-2 paths."""
    return build_multigraph(
        ["u", "w", "p1", "p2", "p3"],
        [
            ("t1", ("u", "p1")),
            ("t2", ("p1", "w")),
            ("t3", ("u", "p2")),
            ("t4", ("p2", "w")),
            ("t5", ("u", "p3")),
            ("t6", ("p3", "w")),
        ],
    )


def make_doubled_six_cycle(extra):
    """A 6-cycle whose classes all have two parallel edges, plus ``extra``
    edges given as (id, vertex on the cycle, class size)."""
    vertices = [f"v{i}" for i in range(6)]
    edges = [
        (f"c{i}{k}", (f"v{i}", f"v{(i + 1) % 6}")) for i in range(6) for k in range(2)
    ]
    for name, at, size in extra:
        vertices.append(name)
        edges += [(f"{name}{k}", (f"v{at}", name)) for k in range(size)]
    return build_multigraph(vertices, edges)


# one pendant edge at each cycle vertex: 18 edges, 42559 faces
SIX_PENDANTS = [(f"p{i}", i, 1) for i in range(6)]


def layout_graph(cycle_sizes, outside_sizes=(), pendants=0):
    """A uni-cyclic multigraph with the given cycle and outside class sizes.

    Outside classes and pendant edges hang off a path of fresh leaves
    from the first cycle vertex, so every one is a bridge.
    """
    m = len(cycle_sizes)
    vertices = [f"v{i}" for i in range(m)]
    edges = [
        (f"c{i}_{k}", (vertices[i], vertices[(i + 1) % m]))
        for i, size in enumerate(cycle_sizes)
        for k in range(size)
    ]
    tip = vertices[0]
    for j, size in enumerate(list(outside_sizes) + [1] * pendants):
        leaf = f"w{j}"
        vertices.append(leaf)
        edges.extend((f"b{j}_{k}", (tip, leaf)) for k in range(size))
        tip = leaf
    return build_multigraph(vertices, edges)


@pytest.fixture
def fig1():
    return make_fig1()


@pytest.fixture
def triangle():
    return make_triangle()


@pytest.fixture
def c211():
    return make_c211()


@pytest.fixture
def theta():
    return make_theta()


@pytest.fixture(scope="session")
def suite_graphs():
    # the CLI's default family: seed 42, 200 graphs of at most 12 edges
    return random_suite(42, 200, 12)


@st.composite
def connected_multigraphs(draw, max_edges=12, max_rank=None):
    """Connected loop-free multigraphs of at most ``max_edges`` edges.

    A random tree on the vertices, plus extra edges (parallel copies or
    chords, so from none to several independent cycles).  The number of
    extra edges is the cycle rank; given ``max_rank``, it is drawn from
    0..``max_rank`` first.  Edge input order, edge ids and vertex order are
    each drawn independently, so id order disagrees with input order.
    """
    n = draw(st.integers(2, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    if max_rank is None:
        pairs += draw(st.lists(chord, max_size=max_edges - len(pairs)))
    else:
        rank = draw(st.integers(0, min(max_rank, max_edges - len(pairs))))
        pairs += draw(st.lists(chord, min_size=rank, max_size=rank))
    pairs = draw(st.permutations(pairs))
    ids = draw(st.permutations(range(len(pairs))))
    names = draw(st.permutations([f"x{v}" for v in range(n)]))
    edges = [(f"e{k:02d}", (names[u], names[w])) for k, (u, w) in zip(ids, pairs)]
    return build_multigraph(sorted(names), edges)


@st.composite
def unicyclic_multigraphs(draw, cycle_sizes, outside_sizes=()):
    """Uni-cyclic multigraphs with the given cycle and outside class sizes.

    The cycle classes follow ``cycle_sizes`` around the cycle.  Each outside
    class joins a fresh leaf to a vertex drawn from those already present,
    on the cycle or a leaf hung before it, so the outside trees branch
    anywhere.  Edge input order, edge ids and vertex order are each drawn
    independently, which reaches the tie-breaks of the canonical layout.
    """
    m = len(cycle_sizes)
    pairs = [(i, (i + 1) % m) for i, size in enumerate(cycle_sizes) for _ in range(size)]
    for leaf, size in enumerate(outside_sizes, start=m):
        pairs += [(draw(st.integers(0, leaf - 1)), leaf)] * size
    pairs = draw(st.permutations(pairs))
    ids = draw(st.permutations(range(len(pairs))))
    names = draw(st.permutations([f"x{v}" for v in range(m + len(outside_sizes))]))
    edges = [(f"e{k:02d}", (names[u], names[w])) for k, (u, w) in zip(ids, pairs)]
    return build_multigraph(sorted(names), edges)

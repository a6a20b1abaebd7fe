from pathlib import Path

import pytest
from hypothesis import strategies as st

from spancomplex import build_multigraph
from spancomplex.randomgraphs import random_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SUITE_SEED = 42
SUITE_COUNT = 200
SUITE_MAX_EDGES = 12


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
    return random_suite(SUITE_SEED, SUITE_COUNT, SUITE_MAX_EDGES)


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

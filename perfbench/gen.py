"""Seeded inputs for the three workloads, independent of ``spancomplex``.

Every generated graph comes with its ``Shape``: the parallel-class sizes
the benchmark built it from.  The checks in ``oracle.py`` derive the
expected answers from the shape alone, never from the program.

The cost of an operation is set mostly by the graph's matroid, which
depends only on the class sizes (which classes lie on the cycle and how large
each class is).  So each workload fixes its list of shapes and lets the
seed choose everything else: which cycle positions hold the multiple
classes, in which order the sizes appear, where outside classes and
pendant edges attach, and (except in ``enum``) the order of the graph
list.  Different seeds
then give different graphs at the same cost, which keeps the figures of
one seed comparable with those of another.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from itertools import accumulate, product

from oracle import Shape, f_vector


@dataclass(frozen=True)
class Graph:
    """One generated input: its file name, JSON text and shape."""

    name: str
    text: str
    shape: Shape


def graph_text(vertices, edges) -> str:
    doc = {
        "vertices": list(vertices),
        "edges": [{"id": eid, "ends": [u, v]} for eid, (u, v) in edges],
    }
    return json.dumps(doc, indent=1) + "\n"


def realize(rng: random.Random, shape: Shape):
    """Vertices and edges of one graph with the given shape.

    Follows the layout rule of ``spancomplex.randomgraphs``: the cycle
    runs v0..v{m-1}, class i joins v{i} and v{i+1}; each outside class
    and each pendant edge joins a fresh leaf to a uniformly chosen
    existing vertex.  The seed picks the positions of the multiple
    classes on the cycle and the order of the sizes.
    """
    multi = [s for s in shape.cycle if s > 1]
    rng.shuffle(multi)
    positions = set(rng.sample(range(shape.m), len(multi)))
    sizes = iter(multi)
    vertices = [f"v{i}" for i in range(shape.m)]
    edges = []
    for i in range(shape.m):
        size = next(sizes) if i in positions else 1
        ends = (vertices[i], vertices[(i + 1) % shape.m])
        edges.extend((f"c{i}_{k}", ends) for k in range(size))
    outside = list(shape.outside)
    rng.shuffle(outside)
    for j, size in enumerate(outside):
        anchor = rng.choice(vertices)
        vertices.append(f"w{j}")
        edges.extend((f"b{j}_{k}", (anchor, f"w{j}")) for k in range(size))
    for a in range(shape.v):
        anchor = rng.choice(vertices)
        vertices.append(f"u{a}")
        edges.append((f"p{a}", (anchor, f"u{a}")))
    return vertices, edges


def _realized(rng, shapes, prefix):
    return [
        Graph(f"{prefix}{k:03d}.json", graph_text(*realize(rng, s)), s)
        for k, s in enumerate(shapes)
    ]


# ---------------------------------------------------------------- suite

SUITE_COUNT = 200
SUITE_MAX_EDGES = 12


def rule_distribution(max_edges: int = SUITE_MAX_EDGES) -> dict[Shape, int]:
    """Exact shape distribution of the ``randomgraphs`` sampling rule.

    The rule draws m in [3,6], r' in [0,m], r'' in [0,3], v in [0,3] and
    every multiplicity in [2,4] uniformly, and redraws when the graph
    has more than ``max_edges`` edges.  The result maps each shape (with
    sizes sorted) to an integer weight proportional to its probability.
    """
    scale = 4 * 420 * 16 * 3**12  # common multiple of every draw's denominator
    weights: dict[Shape, int] = {}
    for m in range(3, 7):
        for rp, rdp, v in product(range(m + 1), range(4), range(4)):
            if m + rp + 2 * rdp + v > max_edges:
                continue  # even the smallest multiplicities do not fit
            w = scale // (4 * (m + 1) * 16 * 3 ** (rp + rdp))
            for cyc in product(range(2, 5), repeat=rp):
                for out in product(range(2, 5), repeat=rdp):
                    if sum(cyc) + (m - rp) + sum(out) + v > max_edges:
                        continue
                    shape = Shape(
                        tuple(sorted(cyc, reverse=True)) + (1,) * (m - rp),
                        tuple(sorted(out, reverse=True)),
                        v,
                    )
                    weights[shape] = weights.get(shape, 0) + w
    return weights


def _cost_key(shape: Shape):
    """Sort key that orders shapes by the size of their boundary matrices."""
    f = f_vector(shape)
    return (sum(a * b for a, b in zip(f, f[1:])), shape.n, shape.cycle, shape.outside, shape.v)


def suite_shapes(count: int) -> list[Shape]:
    """``count`` quantiles of the rule's distribution, ordered by cost.

    Shapes are sorted by the size of their boundary matrices and the
    k-th pick is the shape at cumulative probability (k + 1/2) / count.
    A plain random draw of 200 graphs varies by more than a third in
    total cost from seed to seed, because a few dense graphs take most
    of the time; quantile picks keep the rule's cost profile, heavy tail
    included, at the same total for every seed.
    """
    weights = rule_distribution()
    shapes = sorted(weights, key=_cost_key)
    cumulative = list(accumulate(weights[s] for s in shapes))
    total = cumulative[-1]
    # shape at cumulative weight (k + 1/2) / count of the total, in integers
    return [
        shapes[bisect.bisect_right(cumulative, (2 * k + 1) * total // (2 * count))]
        for k in range(count)
    ]


# The densest 12-edge layout: 6-cycle, three pendant edges and one outside
# class of three parallel edges; 2016 faces over 9 grades.  It is the rank
# instance of benchmarks/bench_kernels.py and is kept fixed in every suite.
DENSE_SHAPE = Shape((1,) * 6, (3,), 3)


def dense_layout():
    vertices = [f"v{i}" for i in range(6)]
    edges = [(f"c{i}", (vertices[i], vertices[(i + 1) % 6])) for i in range(6)]
    for a in range(3):
        vertices.append(f"u{a}")
        edges.append((f"p{a}", (vertices[a], f"u{a}")))
    vertices.append("w0")
    edges.extend((f"b0_{k}", ("v0", "w0")) for k in range(3))
    return vertices, edges


def suite_inputs(seed: int) -> list[Graph]:
    rng = random.Random(seed)
    shapes = suite_shapes(SUITE_COUNT - 1)
    rng.shuffle(shapes)
    graphs = _realized(rng, shapes, "suite")
    graphs.append(Graph("suite-dense12.json", graph_text(*dense_layout()), DENSE_SHAPE))
    return graphs


# ----------------------------------------------------------------- enum

# Short cycle, many pendant edges, a few multiple classes: 17 to 20 edges,
# 110k to 267k forests and at most 40 spanning trees each.  Eleven graphs
# give 22 operations a pass, enough for a median with 10 samples beyond it.
# Operations stay short, so that a run times each of them many times.
ENUM_SHAPES = (
    Shape((1, 1, 1), (2, 2), 11),
    Shape((2, 1, 1), (3,), 12),
    Shape((2, 2, 1, 1), (2,), 11),
    Shape((3, 1, 1, 1), (2, 2), 10),
    Shape((2, 2, 2), (), 13),
    Shape((1, 1, 1, 1), (2,), 12),
    Shape((2, 1, 1, 1), (), 13),
    Shape((1, 1, 1, 1, 1), (), 12),
    Shape((2, 1, 1, 1), (2,), 11),
    Shape((3, 2, 1), (2,), 11),
)

# The forest instance of benchmarks/bench_kernels.py: 6-cycle with twelve
# pendant edges, 258048 forests.  Kept fixed in every enum run.
FOREST_SHAPE = Shape((1,) * 6, (), 12)


def forest_layout():
    vertices = [f"v{i}" for i in range(6)]
    edges = [(f"c{i}", (vertices[i], vertices[(i + 1) % 6])) for i in range(6)]
    for a in range(12):
        vertices.append(f"u{a}")
        edges.append((f"p{a}", (vertices[a % 6], f"u{a}")))
    return vertices, edges


def enum_inputs(seed: int) -> list[Graph]:
    # Operations keep the order of ENUM_SHAPES: the peak memory of a run
    # depends on which operations come before the largest one.
    graphs = _realized(random.Random(seed), ENUM_SHAPES, "enum")
    graphs.append(Graph("enum-forest258k.json", graph_text(*forest_layout()), FOREST_SHAPE))
    return graphs


# --------------------------------------------------------------- ladder

# Fat cycles (every class of size 3) and mixed layouts, n from 60 to 150.
# The cost of the closed form grows with n times the square of the
# multiplicity off the single classes, so the mixed layouts are cheaper
# than fat cycles of the same n.  Twenty layouts give a median with 10
# samples beyond it.
LADDER_SHAPES = (
    Shape((3,) * 20),
    Shape((3,) * 23),
    Shape((3,) * 26),
    Shape((3,) * 29),
    Shape((3,) * 32),
    Shape((3,) * 35),
    Shape((3,) * 38),
    Shape((3,) * 50),
    Shape((3, 2) * 8 + (1,) * 16, (2, 3) * 4, 8),
    Shape((2,) * 20 + (1,) * 20, (2,) * 10, 20),
    Shape((3,) * 10 + (1,) * 40, (2,) * 10, 20),
    Shape((4,) * 10 + (1,) * 20, (3,) * 10, 30),
    Shape((3, 2) * 10 + (1,) * 20, (2, 3) * 6, 10),
    Shape((2,) * 10 + (1,) * 30, (2,) * 10, 20),
    Shape((3,) * 8 + (1,) * 22, (4,) * 5, 30),
    Shape((2, 3, 4) * 4 + (1,) * 18, (2,) * 8, 24),
    Shape((1,) * 60, (3,) * 10, 30),
    Shape((2,) * 25 + (1,) * 5, (), 80),
    Shape((4,) * 6 + (1,) * 54, (2,) * 12, 48),
    Shape((3,) * 15 + (1,) * 15, (3,) * 5, 45),
)


def ladder_inputs(seed: int) -> list[Graph]:
    rng = random.Random(seed)
    shapes = list(LADDER_SHAPES)
    rng.shuffle(shapes)
    return _realized(rng, shapes, "ladder")


GENERATORS = {"suite": suite_inputs, "enum": enum_inputs, "ladder": ladder_inputs}

"""Seeded random uni-cyclic multigraphs for the verification suite.

One worked instance is not property coverage; this generator samples a
family of layouts (cycle length, multiplicities, off-cycle trees) of at
most ``max_edges`` edges, deterministically from a seed.
"""

from __future__ import annotations

import random

from .multigraph import Multigraph, build_multigraph

MAX_ATTEMPTS = 10_000


def random_unicyclic_multigraph(rng: random.Random, max_edges: int = 12) -> Multigraph:
    """One random uni-cyclic multigraph with at most ``max_edges`` edges.

    Samples m in [3,6], r' in [0,m] multiple cycle classes, r'' in [0,3]
    multiple outside classes and v in [0,3] outside single edges, with
    multiplicities in [2,4]; draws of more than ``max_edges`` edges are
    rejected.  Outside classes and edges attach a fresh leaf vertex to a
    uniformly chosen existing vertex.
    """
    for _ in range(MAX_ATTEMPTS):
        m = rng.randint(3, 6)
        r_prime = rng.randint(0, m)
        r_dprime = rng.randint(0, 3)
        v = rng.randint(0, 3)
        cyc_multi_sizes = [rng.randint(2, 4) for _ in range(r_prime)]
        out_sizes = [rng.randint(2, 4) for _ in range(r_dprime)]
        n = sum(cyc_multi_sizes) + (m - r_prime) + sum(out_sizes) + v
        if n > max_edges:
            continue

        multi_positions = set(rng.sample(range(m), r_prime))
        vertices = [f"v{i}" for i in range(m)]
        edges: list[tuple[str, tuple[str, str]]] = []
        size_iter = iter(cyc_multi_sizes)
        for i in range(m):
            size = next(size_iter) if i in multi_positions else 1
            ends = (vertices[i], vertices[(i + 1) % m])
            for k in range(size):
                edges.append((f"c{i}_{k}", ends))
        for j, size in enumerate(out_sizes):
            anchor = rng.choice(vertices)
            leaf = f"w{j}"
            vertices.append(leaf)
            for k in range(size):
                edges.append((f"b{j}_{k}", (anchor, leaf)))
        for a in range(v):
            anchor = rng.choice(vertices)
            leaf = f"u{a}"
            vertices.append(leaf)
            edges.append((f"p{a}", (anchor, leaf)))
        return build_multigraph(vertices, edges)
    raise RuntimeError(f"no admissible layout found in {MAX_ATTEMPTS} draws")


def random_suite(seed: int, count: int, max_edges: int = 12) -> list[Multigraph]:
    """The deterministic verification family for a given seed.

    Raises ``ValueError`` for ``max_edges`` below 3: the smallest
    uni-cyclic multigraph is the simple triangle, so no draw could pass.
    """
    if max_edges < 3:
        raise ValueError(f"max_edges must be at least 3, got {max_edges}")
    rng = random.Random(seed)
    return [random_unicyclic_multigraph(rng, max_edges) for _ in range(count)]

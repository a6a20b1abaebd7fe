"""Face counts of the spanning simplicial complex.

A face is an acyclic edge subset (a forest): in a connected multigraph a
subset extends to a spanning tree exactly when it is a forest.  The
f-vector (f_0, ..., f_d) counts faces per dimension; f_i is the number
of forests with i+1 edges.  Two routes compute it: brute-force forest
enumeration, and a closed form over the uni-cyclic layout built from
binomial sums with inclusion-exclusion over the multiple classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import BudgetExceededError
from .multigraph import Multigraph, UnicyclicLayout, edge_endpoint_indices

DEFAULT_BUDGET = 24


@dataclass(frozen=True)
class FVector:
    """Face counts (f_0, ..., f_d); exact integers."""

    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def __iter__(self):
        return iter(self.counts)


def binomial(a: int, b: int) -> int:
    """C(a, b) with out-of-range convention: 0 when b < 0, b > a or a < 0."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def dimension(layout: UnicyclicLayout) -> int:
    """Dimension of the complex: n - alpha - beta + r - 2.

    Every spanning tree keeps one edge per class except one cycle class,
    so every facet has n - alpha - beta + r - 1 edges.
    """
    return layout.n - layout.alpha - layout.beta + layout.r - 2


def require_budget(n_edges: int, budget: int, stage: str) -> None:
    """Raise ``BudgetExceededError`` when ``n_edges`` exceeds ``budget``.

    A budget outside 1..``kernels.MAX_EDGES`` is a ``ValueError``: forest
    enumeration cannot honour it.
    """
    if not 1 <= budget <= kernels.MAX_EDGES:
        raise ValueError(f"budget must be between 1 and {kernels.MAX_EDGES}, got {budget}")
    if n_edges > budget:
        raise BudgetExceededError(stage, n_edges, budget)


def forest_sizes(g: Multigraph, budget: int = DEFAULT_BUDGET, stage: str = "f-vector brute force"):
    """Count forests per cardinality; index k holds the number with k+1 edges."""
    require_budget(g.n_edges, budget, stage)
    us, vs = edge_endpoint_indices(g)
    sizes = [0] * g.n_edges
    for mask in kernels.forest_masks(g.n_edges, us, vs, g.n_vertices):
        sizes[mask.bit_count() - 1] += 1
    while sizes and sizes[-1] == 0:
        sizes.pop()
    return sizes


def f_vector_bruteforce(g: Multigraph, budget: int = DEFAULT_BUDGET) -> FVector:
    """Oracle route: f_i by explicit enumeration of all forests."""
    return FVector(tuple(forest_sizes(g, budget)))


def _elementary_symmetric(values) -> list[int]:
    """Coefficients e_0..e_k of prod(1 + t*x) over the given multiplicities."""
    coeffs = [1]
    for t in values:
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += coeffs[i - 1] * t
    return coeffs


def f_closed_form_term(layout: UnicyclicLayout, i: int) -> int:
    """Closed-form face count in dimension i.

    Starts from C(n, i+1) and subtracts, by inclusion-exclusion over the
    multiple classes, the subsets that contain the cycle or at least two
    copies from one parallel class.  Empty sums are 0, empty products 1,
    and out-of-range binomials vanish, so degenerate layouts collapse
    correctly.
    """
    n, m = layout.n, layout.m
    rp = layout.r_prime
    alpha, beta = layout.alpha, layout.beta

    cyc_sizes = [c.size for c in layout.multiple_cycle_classes]
    out_sizes = [c.size for c in layout.outside_multiple_classes]
    e_out = _elementary_symmetric(out_sizes)
    e_all = _elementary_symmetric(cyc_sizes + out_sizes)

    total = binomial(n, i + 1)

    # subsets containing the full cycle but no doubled class
    bracket = binomial(n - alpha + rp - m, i + 1 - m)
    for j in range(2, beta + 1):
        weight = binomial(beta, j) - (e_out[j] if j < len(e_out) else 0)
        inner = sum(
            (-1) ** (l - j)
            * binomial(beta - j, l - j)
            * binomial(n - alpha + rp - m - l, i + 1 - m - l)
            for l in range(j, beta + 1)
        )
        bracket -= weight * inner
    total -= math.prod(cyc_sizes) * bracket

    # subsets containing at least two copies from some class
    ab = alpha + beta
    for j in range(2, ab + 1):
        weight = binomial(ab, j) - (e_all[j] if j < len(e_all) else 0)
        inner = sum(
            (-1) ** (l - j) * binomial(ab - j, l - j) * binomial(n - l, i + 1 - l)
            for l in range(j, ab + 1)
        )
        total -= weight * inner
    return total


def f_vector_closed_form(layout: UnicyclicLayout) -> FVector:
    """Closed-form f-vector, evaluated for i = 0..dim."""
    d = dimension(layout)
    return FVector(tuple(f_closed_form_term(layout, i) for i in range(d + 1)))


def closed_form_tail(layout: UnicyclicLayout) -> list[int]:
    """Closed-form terms beyond the dimension, i = d+1..n-1.

    All must vanish; the verification harness flags any nonzero value.
    """
    d = dimension(layout)
    return [f_closed_form_term(layout, i) for i in range(d + 1, layout.n)]


def euler_characteristic(f: FVector) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** i * fi for i, fi in enumerate(f.counts))

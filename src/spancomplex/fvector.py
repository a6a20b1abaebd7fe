"""Face counts of the spanning simplicial complex.

A face is an acyclic edge subset (a forest): in a connected multigraph a
subset extends to a spanning tree exactly when it is a forest.  The
f-vector (f_0, ..., f_d) counts faces per dimension; f_i is the number
of forests with i+1 edges.  Two routes compute it: brute-force forest
enumeration, and a closed form over the uni-cyclic layout built from
binomial sums with inclusion-exclusion over the multiple classes.  The
closed form's double sums are evaluated in swapped order (the inner
weights do not depend on the dimension), so all terms come from one
pass per layout instead of one full evaluation per dimension.
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


def _lift(weights: list[int], top: int) -> list[int]:
    """Coefficients c_l = sum_{j=2}^{l} w_j (-1)^(l-j) C(top-j, l-j), l = 0..top.

    ``weights[j]`` is w_j.  This is the inner sum of one inclusion-exclusion
    block with the j and l sums swapped; it does not depend on i.
    """
    coeffs = [0] * (top + 1)
    for j in range(2, top + 1):
        sign = weights[j]
        for l in range(j, top + 1):
            coeffs[l] += sign * binomial(top - j, l - j)
            sign = -sign
    return coeffs


def closed_form_terms(layout: UnicyclicLayout) -> list[int]:
    """Closed-form face counts for every i = 0..n-1, in one pass.

    Each term starts from C(n, i+1) and subtracts, by inclusion-exclusion
    over the multiple classes, the subsets that contain the cycle or at
    least two copies from one parallel class.  The paper writes each
    block as sum_j w_j sum_{l>=j} (-1)^(l-j) C(top-j, l-j) C(N-l, k-l);
    here the two sums are swapped, so the weights w_j and their lift to
    coefficients c_l (``_lift``) are computed once per layout and every
    term costs one pass over l.  This is the same finite sum reordered,
    with no binomial identity applied.  Empty sums are 0, empty products
    1, and out-of-range binomials vanish, so degenerate layouts collapse
    correctly.  Terms beyond the dimension must all be 0.
    """
    n, m = layout.n, layout.m
    alpha, beta = layout.alpha, layout.beta
    ab = alpha + beta

    cyc_sizes = [c.size for c in layout.multiple_cycle_classes]
    out_sizes = [c.size for c in layout.outside_multiple_classes]
    e_out = _elementary_symmetric(out_sizes)
    e_all = _elementary_symmetric(cyc_sizes + out_sizes)
    e_out += [0] * (beta + 1 - len(e_out))
    e_all += [0] * (ab + 1 - len(e_all))
    cycle_choices = math.prod(cyc_sizes)

    # subsets containing the full cycle but no doubled class: N0 edges remain
    n0 = n - alpha + layout.r_prime - m
    c_out = _lift([binomial(beta, j) - e_out[j] for j in range(beta + 1)], beta)
    # subsets containing at least two copies from some class
    c_all = _lift([binomial(ab, j) - e_all[j] for j in range(ab + 1)], ab)

    terms = []
    for i in range(n):
        k = i + 1 - m
        bracket = binomial(n0, k) - sum(
            c_out[l] * binomial(n0 - l, k - l) for l in range(2, min(beta, k) + 1)
        )
        doubled = sum(
            c_all[l] * binomial(n - l, i + 1 - l) for l in range(2, min(ab, i + 1) + 1)
        )
        terms.append(binomial(n, i + 1) - cycle_choices * bracket - doubled)
    return terms


def f_vector_closed_form(layout: UnicyclicLayout) -> FVector:
    """Closed-form f-vector: the terms for i = 0..dim."""
    return FVector(tuple(closed_form_terms(layout)[: dimension(layout) + 1]))


def closed_form_tail(layout: UnicyclicLayout) -> list[int]:
    """Closed-form terms beyond the dimension, i = d+1..n-1.

    All must vanish; the verification harness flags any nonzero value.
    """
    return closed_form_terms(layout)[dimension(layout) + 1 :]


def euler_characteristic(f: FVector) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** i * fi for i, fi in enumerate(f.counts))

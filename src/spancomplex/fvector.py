"""Face counts of the spanning simplicial complex.

A face is an acyclic edge subset (a forest): in a connected multigraph a
subset extends to a spanning tree exactly when it is a forest.  The
f-vector (f_0, ..., f_d) counts faces per dimension; f_i is the number
of forests with i+1 edges.  Two routes compute it: brute-force forest
enumeration (``homology.graded_faces(g).sizes()``), and the closed form
here, over the uni-cyclic layout, built from binomial sums with
inclusion-exclusion over the multiple classes.

The closed form is one finite sum over i = 0..n-1, evaluated in one
pass per layout (``_terms``, cached for the last layout): the terms up
to the dimension are the f-vector, and the rest must vanish.
``closed_form_terms``, ``f_vector_closed_form`` and ``closed_form_tail``
are slices of that pass.  Its double sums are evaluated in swapped
order, with the outer loop over the summation index l and the inner loop
over the dimension i.  Its binomials are not computed term by term: each
column C(N - l, p - l) follows from the column for l - 1 by Pascal's
rule, with one ``math.comb`` at its top, and the column for l = 0 is
walked by C(N, q+1) = C(N, q)(N - q)/(q + 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .multigraph import UnicyclicLayout


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


def _elementary_symmetric(values) -> list[int]:
    """Coefficients e_0..e_k of prod(1 + t*x) over the given multiplicities."""
    coeffs = [1]
    for t in values:
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += coeffs[i - 1] * t
    return coeffs


def _column(a: int, lo: int, hi: int) -> list[int]:
    """C(a, q) for q = lo..hi-1, with ``binomial``'s out-of-range convention.

    One ``math.comb`` at the first q >= 0, then the walk
    C(a, q+1) = C(a, q)(a - q)/(q + 1), which reaches 0 past q = a.
    """
    col = [0] * max(0, min(hi, 0) - lo)
    first = max(lo, 0)
    value = binomial(a, first)
    for q in range(first, hi):
        col.append(value)
        value = value * (a - q) // (q + 1)
    return col


def _lift(weights: list[int], top: int) -> list[int]:
    """Coefficients c_l = sum_{j=2}^{l} w_j (-1)^(l-j) C(top-j, l-j), l = 0..top.

    ``weights[j]`` is w_j.  This is the inner sum of one inclusion-exclusion
    block with the j and l sums swapped; it does not depend on i.  The
    (-1)^(l-j) C(top-j, l-j) are the coefficients of (1 - t)^(top-j), so
    the c_l are those of R_top, where R_1 = 0 and
    R_j = (1 - t) R_{j-1} + w_j t^j: each step is one Pascal step of
    subtractions, and no binomial is computed.
    """
    coeffs = [0] * (top + 1)
    for j in range(2, top + 1):
        for l in range(j, 2, -1):
            coeffs[l] -= coeffs[l - 1]
        coeffs[j] += weights[j]
    return coeffs


def _pascal_sums(base: int, coeffs: list[int], lo: int, hi: int) -> tuple[list[int], list[int]]:
    """C(base, q) and sum_{l>=1} coeffs[l] C(base-l, q-l), for q = lo..hi-1.

    ``coeffs`` comes from ``_lift``, so coeffs[1] = 0 and the sum starts
    at l = 2, and it has at most base + 1 entries, so l <= base.  The
    outer loop runs over l and keeps one column V_l[q] = C(base-l, q-l);
    V_0 is ``_column(base, lo, hi)``.  As base - l >= 0, Pascal's rule
    V_{l-1}[q] = V_l[q] + V_l[q+1] holds at every q, so V_l is filled
    from the top down, V_l[q] = V_{l-1}[q] - V_l[q+1], from one
    ``math.comb`` at q = hi-1.  Below q = l, V_l is 0.
    """
    width = hi - lo
    lead = prev = _column(base, lo, hi)
    sums = [0] * width
    for l in range(1, min(len(coeffs), hi)):
        c = coeffs[l]
        col = [0] * width
        value = binomial(base - l, hi - 1 - l)
        for idx in range(width - 1, max(l, lo) - lo - 1, -1):
            col[idx] = value
            if c:
                sums[idx] += c * value
            value = prev[idx - 1] - value  # unused after idx = 0
        prev = col
    return lead, sums


@functools.lru_cache(maxsize=1)
def _terms(layout: UnicyclicLayout) -> tuple[int, ...]:
    """The closed-form face counts for every i = 0..n-1 (see ``closed_form_terms``).

    Cached for the last layout, keyed by its value: the terms depend only
    on its classes, so an equal layout shares the entry.  A tuple, so no
    caller can change the cached value.
    """
    n, m, alpha, beta = layout.n, layout.m, layout.alpha, layout.beta
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
    c_out = _lift([b - e for b, e in zip(_column(beta, 0, beta + 1), e_out)], beta)
    # subsets containing at least two copies from some class
    c_all = _lift([b - e for b, e in zip(_column(ab, 0, ab + 1), e_all)], ab)

    # a term of dimension i counts subsets of p = i+1 edges, k = p-m off the cycle
    every, doubled = _pascal_sums(n, c_all, 1, n + 1)
    free, excess = _pascal_sums(n0, c_out, 1 - m, n + 1 - m)
    return tuple(
        total - cycle_choices * (bracket - minus) - dbl
        for total, bracket, minus, dbl in zip(every, free, excess, doubled)
    )


def closed_form_terms(layout: UnicyclicLayout) -> list[int]:
    """Closed-form face counts for every i = 0..n-1.

    Each term starts from C(n, i+1) and subtracts, by inclusion-exclusion
    over the multiple classes, the subsets that contain the cycle or at
    least two copies from one parallel class.  The paper writes each
    block as sum_j w_j sum_{l>=j} (-1)^(l-j) C(top-j, l-j) C(N-l, k-l);
    here the j and l sums are swapped, so the weights w_j and their lift
    to coefficients c_l (``_lift``) do not depend on i.  Then the l and i
    loops are swapped too: the outer loop over l walks the binomial
    column C(N-l, k-l) over every k by Pascal's rule (``_pascal_sums``),
    so a pass makes one ``math.comb`` per column, not one per (i, l)
    pair.  This is the same finite sum reordered, with no binomial
    identity applied beyond the recurrences that produce its binomials.
    Empty sums are 0, empty products 1, and out-of-range binomials
    vanish, so degenerate layouts collapse correctly.  Terms beyond the
    dimension must all be 0.
    """
    return list(_terms(layout))


def f_vector_closed_form(layout: UnicyclicLayout) -> FVector:
    """Closed-form f-vector: the terms for i = 0..dim of the cached pass."""
    return FVector(_terms(layout)[: dimension(layout) + 1])


def closed_form_tail(layout: UnicyclicLayout) -> list[int]:
    """Closed-form terms beyond the dimension, i = d+1..n-1, of the cached pass.

    All must vanish; the verification harness flags any nonzero value.
    """
    return list(_terms(layout)[dimension(layout) + 1 :])


def euler_characteristic(f: FVector) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** i * fi for i, fi in enumerate(f.counts))

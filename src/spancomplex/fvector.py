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
order, the sum over j inside the sum over l, and each l sum is taken
for every dimension i at once.  Its binomials are not computed term by
term.  The l sum of a block, sum_l c_l C(N - l, p - l) for every p, is
one polynomial, t (1+t)^s H(t), with s the block's single edges.  H is
built by Horner's rule over (1 + t), Pascal's rule applied to all its
coefficients at once in one packed integer (Kronecker substitution); the
row (1+t)^s then multiplies it as one convolution.  The row and the
column for l = 0 are each walked by C(a, q+1) = C(a, q)(a - q)/(q + 1)
from one ``math.comb``.
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

    ``coeffs`` comes from ``_lift``, so coeffs[1] = 0, and it has at most
    base + 1 entries, so l <= base.  Terms with l >= hi vanish, so l runs
    to top = min(len(coeffs), hi) - 1.  As C(base-l, q-l) is the
    coefficient of t^q in t^l (1+t)^(base-l), the sums are the
    coefficients of t (1+t)^(base-top) H(t), where
    H = sum_l coeffs[l] t^(l-1) (1+t)^(top-l).

    H comes first, by Horner's rule over (1 + t) on one packed integer
    (Kronecker substitution).  Slot r of ``packed``, its bits
    [r k, (r+1) k), holds the coefficient of t^(top-1-r) in H, so
    ``packed`` is sum_l coeffs[l] (1 + 2^k)^(top-l), and each step
    packed (1 + 2^k) + coeffs[l] is Pascal's rule on every slot at once.
    No slot's value reaches sum|coeffs[l]| 2^(top-1) in size, so
    k = bit_length(sum|coeffs[l]|) + top + a sign bit, rounded up to
    whole bytes, holds each one.  Half a slot added to every slot makes
    them all non-negative, and they are then the byte runs of one
    ``to_bytes``.  The row (1+t)^(base-top), whose exponent is the
    block's number of single edges, comes last, by one convolution with
    its binomial column: each entry of the shorter factor scales the
    longer one.
    """
    lead = _column(base, lo, hi)
    top = min(len(coeffs), hi) - 1
    sums = [0] * (hi - lo)
    if top < 1:
        return lead, sums
    size = (sum(map(abs, coeffs[1 : top + 1])).bit_length() + top + 8) // 8
    k = 8 * size
    packed = 0
    for l in range(1, top + 1):
        packed += (packed << k) + coeffs[l]
    half = 1 << k - 1
    halves = int.from_bytes(half.to_bytes(size, "little") * top, "little")
    raw = (packed + halves).to_bytes(size * top, "little")
    h = [int.from_bytes(raw[i - size : i], "little") - half for i in range(size * top, 0, -size)]

    # the sum at q is the coefficient of t^(q-1) in (1+t)^(base-top) H(t)
    short, long = sorted((h, _column(base - top, 0, base - top + 1)), key=len)
    poly = [0] * base
    for i, c in enumerate(short):
        poly[i : i + len(long)] = [p + c * x for p, x in zip(poly[i : i + len(long)], long)]
    first, last = max(lo, 1), min(hi, base + 1)
    sums[first - lo : last - lo] = poly[first - 1 : last - 1]
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

    cyc_sizes = [len(c.members) for c in layout.multiple_cycle_classes]
    out_sizes = [len(c.members) for c in layout.outside_multiple_classes]
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
    to coefficients c_l (``_lift``) do not depend on i.  Then the l sum
    is taken for every k at once (``_pascal_sums``): C(N-l, k-l) is the
    coefficient of t^k in t^l (1+t)^(N-l), so a block is one polynomial,
    built by Horner's rule over (1 + t) on one packed integer and then
    multiplied by the row of the block's single edges.  A pass makes at
    most three ``math.comb`` calls per block, not one per (i, l) pair.
    This is the same finite sum reordered, with no binomial identity
    applied beyond the recurrences that produce its binomials.
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

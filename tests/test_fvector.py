import math
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancomplex import (
    BudgetExceededError,
    binomial,
    build_multigraph,
    count_spanning_trees_layout,
    dimension,
    euler_characteristic,
    f_vector_closed_form,
    graded_faces,
    recognize_unicyclic,
)
from spancomplex import fvector, kernels
from spancomplex.fvector import (
    FVector,
    _elementary_symmetric,
    closed_form_tail,
    closed_form_terms,
)

import bruteforce
from conftest import layout_graph, unicyclic_multigraphs


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (5, 2, 10),
        (0, -2, 0),
        (-3, 1, 0),
        (0, 0, 1),
        (4, 7, 0),
        (7, 3, 35),
    ],
)
def test_binomial_convention(a, b, expected):
    assert binomial(a, b) == expected


def test_dimension_values(fig1, triangle, c211):
    assert dimension(recognize_unicyclic(fig1)) == 2
    assert dimension(recognize_unicyclic(triangle)) == 1
    assert dimension(recognize_unicyclic(c211)) == 1


def test_bruteforce_fig1(fig1):
    assert graded_faces(fig1).sizes() == (7, 17, 14)


def test_bruteforce_triangle(triangle):
    assert graded_faces(triangle).sizes() == (3, 3)


def test_bruteforce_c211_matches_subset_filter(c211):
    sizes = graded_faces(c211).sizes()
    assert sizes == (4, 5)
    assert sizes == bruteforce.forest_counts(c211)


def test_bruteforce_matches_subset_filter_on_suite(suite_graphs):
    small = [g for g in suite_graphs if g.n_edges <= 9][:25]
    for g in small:
        assert graded_faces(g).sizes() == bruteforce.forest_counts(g)


def test_bruteforce_budget_error():
    n = kernels.EDGE_BUDGET + 1
    g = build_multigraph(["a", "b"], [(f"e{i}", ("a", "b")) for i in range(n)])
    with pytest.raises(BudgetExceededError) as err:
        graded_faces(g)
    assert err.value.budget == kernels.EDGE_BUDGET
    assert "budget" in str(err.value)


def test_closed_form_fig1(fig1):
    assert f_vector_closed_form(recognize_unicyclic(fig1)).counts == (7, 17, 14)


def test_closed_form_triangle(triangle):
    assert f_vector_closed_form(recognize_unicyclic(triangle)).counts == (3, 3)


def test_closed_form_c211(c211):
    lay = recognize_unicyclic(c211)
    assert f_vector_closed_form(lay).counts == bruteforce.forest_counts(c211)


def test_closed_form_matches_bruteforce_on_suite(suite_graphs):
    for g in suite_graphs[:80]:
        lay = recognize_unicyclic(g)
        assert f_vector_closed_form(lay).counts == graded_faces(g).sizes()


def test_closed_form_tail_vanishes(fig1, suite_graphs):
    assert closed_form_tail(recognize_unicyclic(fig1)) == [0, 0, 0, 0]
    for g in suite_graphs[:40]:
        tail = closed_form_tail(recognize_unicyclic(g))
        assert not any(tail)


def test_structural_identities(suite_graphs):
    for g in suite_graphs[:60]:
        lay = recognize_unicyclic(g)
        fv = f_vector_closed_form(lay)
        assert fv.counts[0] == lay.n
        assert fv.counts[-1] == count_spanning_trees_layout(lay)
        assert fv.dim == dimension(lay)
        for i, fi in enumerate(fv.counts):
            assert 0 <= fi <= binomial(lay.n, i + 1)


def test_closed_form_term_beyond_dim_is_tail(fig1):
    lay = recognize_unicyclic(fig1)
    assert closed_form_tail(lay) == [0, 0, 0, 0]
    assert closed_form_terms(lay)[3:7] == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "counts,expected",
    [((7, 17, 14), 4), ((3, 3), 0), ((4, 5), -1), ((1,), 1)],
)
def test_euler_characteristic(counts, expected):
    assert euler_characteristic(FVector(counts)) == expected


def test_bruteforce_works_on_non_unicyclic(theta):
    sizes = graded_faces(theta).sizes()
    assert sizes == bruteforce.forest_counts(theta)
    assert sizes[-1] == 12


def test_bruteforce_on_tree():
    g = build_multigraph(["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c"))])
    assert graded_faces(g).sizes() == (2, 1)


def _paper_term_literal(layout, i):
    """The paper's closed-form term in dimension i, summed in its own order.

    Reference for ``closed_form_terms``, which evaluates the same double
    sums with j and l swapped.
    """
    n, m = layout.n, layout.m
    rp = layout.r_prime
    alpha, beta = layout.alpha, layout.beta

    cyc_sizes = [c.size for c in layout.multiple_cycle_classes]
    out_sizes = [c.size for c in layout.outside_multiple_classes]
    e_out = _elementary_symmetric(out_sizes)
    e_all = _elementary_symmetric(cyc_sizes + out_sizes)

    total = binomial(n, i + 1)

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

    ab = alpha + beta
    for j in range(2, ab + 1):
        weight = binomial(ab, j) - (e_all[j] if j < len(e_all) else 0)
        inner = sum(
            (-1) ** (l - j) * binomial(ab - j, l - j) * binomial(n - l, i + 1 - l)
            for l in range(j, ab + 1)
        )
        total -= weight * inner
    return total


def face_polynomial(cycle_sizes, outside_sizes=(), pendants=0):
    """Coefficients of prod_classes(1 + s t) - (prod_cycle s) t^m prod_outside(1 + s t).

    The independence complex of the cycle matroid factors over its
    classes; the subtracted part counts the subsets that hold the cycle.
    """
    def product(sizes, ones=0):
        # the single edges enter as one binomial row (1 + t)^ones
        coeffs = [1]
        for k in range(ones):
            coeffs.append(coeffs[-1] * (ones - k) // (k + 1))
        for s in sizes:
            coeffs = [a + s * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        return coeffs

    every = product(list(cycle_sizes) + list(outside_sizes), pendants)
    holding = product(outside_sizes, pendants)
    m = len(cycle_sizes)
    for k, e in enumerate(holding):
        every[m + k] -= math.prod(cycle_sizes) * e
    return every


def test_swapped_sums_equal_paper_order_on_suite(suite_graphs):
    for g in suite_graphs[:80]:
        lay = recognize_unicyclic(g)
        assert closed_form_terms(lay) == [_paper_term_literal(lay, i) for i in range(lay.n)]


def assert_split_equals_terms(lay):
    """The f-vector and the tail, each evaluated on its own range, are all the terms."""
    split = list(f_vector_closed_form(lay).counts) + closed_form_tail(lay)
    assert split == closed_form_terms(lay)
    assert split == [_paper_term_literal(lay, i) for i in range(lay.n)]


def test_split_range_equals_all_terms_on_suite(suite_graphs):
    for g in suite_graphs:
        assert_split_equals_terms(recognize_unicyclic(g))


def test_closed_form_makes_one_fresh_binomial_per_column(monkeypatch):
    lay = recognize_unicyclic(layout_graph([3] * 100))
    assert (lay.n, lay.alpha, lay.beta) == (300, 300, 0)
    expected = closed_form_terms(lay)
    calls = []
    comb = fvector.math.comb

    def counting(a, b):
        calls.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(fvector.math, "comb", counting)
    assert closed_form_terms(lay) == expected
    # O(alpha + beta) columns; one math.comb per (i, l) pair would be ~45,000
    assert 0 < len(calls) <= 2 * (lay.alpha + lay.beta + 2)


def test_entry_points_lift_the_weights_once_per_layout(monkeypatch):
    calls = []
    lift = fvector._lift

    def counting(weights, top):
        calls.append(top)
        return lift(weights, top)

    monkeypatch.setattr(fvector, "_lift", counting)
    g = layout_graph([3, 2, 1, 1], (2, 3), 2)
    a, b = recognize_unicyclic(g), recognize_unicyclic(layout_graph([2, 4, 1], (5,), 1))
    f_vector_closed_form(a)
    closed_form_tail(a)
    # one lift per inclusion-exclusion block, not one per block and call
    assert calls == [a.beta, a.alpha + a.beta]

    # alternating layouts never read the other layout's blocks
    for layout in (a, b, a):
        split = list(f_vector_closed_form(layout).counts) + closed_form_tail(layout)
        assert split == [_paper_term_literal(layout, i) for i in range(layout.n)]
    assert len(calls) == 6

    # an equal layout is another object, and lifts its own weights
    again = recognize_unicyclic(g)
    assert again == a and again is not a
    closed_form_tail(again)
    assert len(calls) == 8

    # the memo keeps no layout alive, and drops its blocks with the layout
    ref = weakref.ref(again)
    del again, layout
    assert ref() is None
    assert fvector._last_blocks[1] is None


def test_concurrent_callers_read_only_their_own_layouts_blocks():
    layouts = [
        recognize_unicyclic(layout_graph(cycle, outside, pendants))
        for cycle, outside, pendants in [
            ([3, 2, 1], (), 0), ([2, 2, 2, 1], (3,), 2), ([4, 1, 1], (2, 2), 1),
            ([1, 1, 1, 5], (4,), 3), ([2, 3, 2], (2, 5), 0), ([1, 1, 1], (), 6),
        ]
    ]
    expected = [[_paper_term_literal(lay, i) for i in range(lay.n)] for lay in layouts]
    wrong = []

    def work(k):
        lay = layouts[k]
        for _ in range(150):
            try:
                split = list(f_vector_closed_form(lay).counts) + closed_form_tail(lay)
            except Exception as exc:  # recorded, so the assert below names it
                split = exc
            if split != expected[k]:
                wrong.append((k, split))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(layouts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize(
    "cycle_sizes,outside_sizes,pendants",
    [
        ([3] * 20, (), 0),
        ([3, 2, 1, 1, 4], (2, 3, 4, 5, 2, 3, 4, 2, 3, 5, 4), 12),
    ],
    ids=["fat-cycle-60", "outside-classes-60"],
)
def test_swapped_sums_equal_paper_order_at_n60(cycle_sizes, outside_sizes, pendants):
    lay = recognize_unicyclic(layout_graph(cycle_sizes, outside_sizes, pendants))
    assert lay.n == 60
    assert closed_form_terms(lay) == [_paper_term_literal(lay, i) for i in range(lay.n)]


@pytest.mark.parametrize(
    "cycle_sizes,outside_sizes,pendants",
    [
        ([3] * 50, (), 0),
        ([2, 5, 1, 3, 1, 4, 2, 1], (3, 2, 4, 5, 2, 3, 2, 4, 3, 5, 2, 6), 42),
        ([1] * 30 + [4] * 10, (5, 5, 4, 3, 2, 2, 3), 12),
        ([2] * 12 + [1] * 3, (2,) * 25, 30),
        ([3] * 200, (), 0),
        ([2, 2, 2], (), 3000),
        ([2, 3, 1, 1, 4] * 4, (2, 3, 4, 5) * 5, 888),
    ],
    ids=[
        "fat-cycle-150",
        "mixed-102",
        "mixed-106",
        "mixed-107",
        "fat-cycle-600",
        "pendant-heavy-3006",
        "mixed-1002",
    ],
)
def test_closed_form_equals_face_polynomial_beyond_budget(cycle_sizes, outside_sizes, pendants):
    lay = recognize_unicyclic(layout_graph(cycle_sizes, outside_sizes, pendants))
    assert lay.n >= 100
    poly = face_polynomial(cycle_sizes, outside_sizes, pendants)
    d = dimension(lay)
    assert f_vector_closed_form(lay).counts == tuple(poly[1 : d + 2])
    assert not any(poly[d + 2 :])
    tail = closed_form_tail(lay)
    assert len(tail) == lay.n - d - 1
    assert not any(tail)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    cycle_sizes=st.lists(st.integers(1, 5), min_size=3, max_size=8),
    outside_sizes=st.lists(st.integers(2, 5), max_size=4),
    pendants=st.integers(0, 4),
    data=st.data(),
)
def test_closed_form_property(cycle_sizes, outside_sizes, pendants, data):
    g = data.draw(unicyclic_multigraphs(cycle_sizes, outside_sizes + [1] * pendants))
    lay = recognize_unicyclic(g)
    poly = face_polynomial(cycle_sizes, outside_sizes, pendants)
    fv = f_vector_closed_form(lay)
    assert fv.counts == tuple(poly[1 : fv.dim + 2])
    assert not any(closed_form_tail(lay))
    assert_split_equals_terms(lay)
    if lay.n <= 12:
        assert fv.counts == graded_faces(g).sizes()

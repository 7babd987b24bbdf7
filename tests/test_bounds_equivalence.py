"""The closed-form bounds layer against the loops it replaced.

feasible_orders and represent compute what tests/reference_bounds.py
simulates: an order-by-order feasibility loop and a unit-step walk down
from max_elements(m). They must agree everywhere on a full small range and
on a seeded large sample. The exceptional-set lemma is checked with a
divisor-sum sieve.
"""

import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_bounds import reference_feasible_orders, reference_representation_ok, reference_walk
from wireid.partitions import Representation, feasible_orders, max_elements, min_elements, represent


# ── feasible_orders ──────────────────────────────────────────────────────

def test_feasible_orders_matches_reference_loop_through_3000():
    for n in range(1, 3001):
        assert feasible_orders(n) == reference_feasible_orders(n), n


@pytest.mark.slow
def test_feasible_orders_matches_interval_table_through_10_5():
    # Per n: how many order ranges hold it, and the smallest and largest
    # such order. The orders form an interval exactly when the count equals
    # the interval's length.
    limit = 10**5
    delta, lo, hi = [0] * (limit + 2), [0] * (limit + 1), [0] * (limit + 1)
    orders = [m for m in range(1, limit + 1) if min_elements(m) <= limit]
    for m in orders:
        first, last = min_elements(m), min(max_elements(m), limit)
        delta[first] += 1
        delta[last + 1] -= 1
        hi[first : last + 1] = [m] * (last + 1 - first)
    for m in reversed(orders):
        first, last = min_elements(m), min(max_elements(m), limit)
        lo[first : last + 1] = [m] * (last + 1 - first)
    held = 0
    for n in range(1, limit + 1):
        held += delta[n]
        expected = list(range(lo[n], hi[n] + 1)) if held else []
        assert len(expected) == held, n
        assert feasible_orders(n) == expected, n


def test_feasible_orders_rejects_non_int_n():
    with pytest.raises(TypeError):
        feasible_orders(26.0)
    with pytest.raises(TypeError):
        represent(26.0, 6)


def test_bounds_layer_is_fast_at_n_4e7():
    # The reference loops take seconds at this n: they try 8,943 orders, and
    # walk 25.8 million unit steps for represent at the largest order.
    n = 4 * 10**7
    start = time.perf_counter()
    orders = feasible_orders(n)
    middle = time.perf_counter()
    rep = represent(n, orders[-1])
    end = time.perf_counter()
    assert (orders[0], orders[-1]) == (6974, 8943)
    assert rep.n == n
    assert middle - start < 0.5
    assert end - middle < 0.5


# ── represent ────────────────────────────────────────────────────────────

def assert_represent_matches_walk(orders):
    for m in orders:
        for n, t, s, k in reference_walk(m):
            rep = represent(n, m)
            assert (rep.t, rep.s, rep.k) == (tuple(t), s, k), (n, m)


def test_represent_matches_walk_through_order_60():
    assert_represent_matches_walk(range(1, 61))


@pytest.mark.slow
def test_represent_matches_walk_for_orders_61_to_120():
    assert_represent_matches_walk(range(61, 121))


@pytest.mark.slow
def test_represent_matches_walk_on_sampled_pairs_through_order_2000():
    rng = random.Random(7_2000)
    targets: dict[int, set[int]] = {}
    for _ in range(50):
        m = rng.randint(121, 2000)
        targets.setdefault(m, set()).add(rng.randint(min_elements(m), max_elements(m)))
    for m, ns in targets.items():
        lowest = min(ns)
        for n, t, s, k in reference_walk(m):
            if n in ns:
                rep = represent(n, m)
                assert (rep.t, rep.s, rep.k) == (tuple(t), s, k), (n, m)
            if n == lowest:
                break


# ── Representation's validation ──────────────────────────────────────────

def representation_ok(m, t, s, k):
    try:
        Representation(m, t, s, k)
    except ValueError:
        return False
    return True


def test_representation_accepts_what_the_piecewise_rules_accept_through_order_6():
    # t_j over {0, j, j+1} and the multiples of j up to m; s and k one past
    # their ranges on each side.
    cases = accepted = 0
    for m in range(1, 7):
        values = [sorted({0, j, j + 1, *range(j, m + 1, j)}) for j in range(1, m + 1)]
        for t in itertools.product(*values):
            for s in range(-1, m // 2 + 2):
                for k in range(m + 2):
                    expected = reference_representation_ok(m, t, s, k)
                    assert representation_ok(m, t, s, k) == expected, (m, t, s, k)
                    cases += 1
                    accepted += expected
    assert (cases, accepted) == (210_411, sum(max_elements(m) - min_elements(m) + 1 for m in range(1, 7)))


def test_representation_accepts_what_represent_returns_through_n_2000():
    # represent builds its result without running the validation.
    for n in range(1, 2001):
        for m in feasible_orders(n):
            rep = represent(n, m)
            assert Representation(rep.m, rep.t, rep.s, rep.k) == rep, (n, m)


@given(st.integers(1, 2000).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(min_elements(m), max_elements(m)), st.integers(0, m + 1), st.sampled_from((-1, 1)))))
def test_representation_agrees_with_the_piecewise_rules_one_step_off_represent(case):
    # field 0..m-1 moves t_(field+1), m moves s and m + 1 moves k.
    m, n, field, step = case
    rep = represent(n, m)
    fields = [*rep.t, rep.s, rep.k]
    fields[field] += step
    t, s, k = tuple(fields[:m]), fields[m], fields[m + 1]
    assert representation_ok(m, t, s, k) == reference_representation_ok(m, t, s, k)


# ── the exceptional set {2, 5, 9} ────────────────────────────────────────

def divisor_sums(limit: int) -> list[int]:
    """sigma[d] = sum of the divisors of d, for d <= limit (sigma[0] = 0)."""
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            sigma[multiple] += d
    return sigma


def test_first_four_ranges_leave_exactly_2_5_9():
    ranges = [(min_elements(m), max_elements(m)) for m in range(1, 5)]
    assert ranges == [(1, 1), (3, 4), (6, 8), (10, 15)]
    covered = {n for first, last in ranges for n in range(first, last + 1)}
    assert set(range(1, 16)) - covered == {2, 5, 9}


@pytest.mark.parametrize("limit", [2000, pytest.param(10**6, marks=pytest.mark.slow)])
def test_consecutive_ranges_overlap_from_order_4(limit):
    # J(m) - J(m-1) = sigma(m), sigma(d) >= d + 1 for d >= 2 and sigma(4) = 7,
    # so J(m) >= m(m+1)/2 + m + 1 = min_elements(m + 1) for every m >= 4:
    # from order 4 on each range reaches the next, and no n above 9 is
    # left without an order.
    sigma = divisor_sums(limit)
    assert sigma[4] == 7
    assert all(sigma[d] >= d + 1 for d in range(2, limit + 1))
    total = 0
    for m in range(1, limit + 1):
        total += sigma[m]
        if m <= 2000:
            assert total == max_elements(m), m
        if m >= 4:
            assert total >= min_elements(m) + m + 1 == min_elements(m + 1), m

"""End-to-end acceptance checks.

Each criterion computes its verdict against an independent oracle
(exhaustive enumeration, direct counting, or hand-derived fixtures),
prints one PASS/FAIL line, and then asserts. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they go.
"""

import itertools
import math

import pytest

from conftest import A_SETS_26, B_SETS_26, MATRIX_26_TEXT, gapfree_sequences
from oracles import (
    enumerate_matrices,
    gale_ryser_feasible,
    index_divisible_totals,
    kg_pair_orders,
    matrix_from_text,
    partition_to_matrix,
)
from wireid.cable import make_cable, run_protocol
from wireid.matrices import construct_matrix
from wireid.partitions import (
    KgPartition,
    construct_trace,
    feasible_orders,
    kg_violations,
    matrix_to_partition,
    max_elements,
    min_elements,
    represent,
)


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok, criterion


def test_criterion_1_bounds_table():
    rows = [(min_elements(m), max_elements(m)) for m in (1, 2, 3, 4)]
    ok = rows == [(1, 1), (3, 4), (6, 8), (10, 15)]
    report("criterion 1: bounds table for orders 1..4 (exact)", ok)


def test_criterion_2_impossible_sizes():
    gaps = [n for n in range(1, 1001) if not feasible_orders(n)]
    report("criterion 2: infeasible n over 1..1000 is exactly {2,5,9}", gaps == [2, 5, 9])


def test_criterion_3_full_range_construction():
    ok = True
    for n in range(1, 301):
        for m in feasible_orders(n):
            trace = construct_trace(n, m)
            if kg_violations(trace.partition):
                ok = False
            if trace.partition.order != m:
                ok = False
            if trace.matrix != trace.matrix.transpose():
                ok = False
    report("criterion 3: constructions for n in 1..300, every feasible order "
           "(KG oracle, order, symmetric matrix)", ok)


def test_criterion_4_constructor_oracle_equivalence():
    ok = True
    # Every hypothesis-satisfying pair up to m = 4: exact sums, confirmed
    # feasible by backtracking enumeration.
    for m in range(1, 5):
        sequences = gapfree_sequences(m)
        for r in sequences:
            for c in sequences:
                if sum(r) != sum(c):
                    continue
                matrix = construct_matrix(r, c)
                if matrix.row_sums() != r or matrix.col_sums() != c:
                    ok = False
                if not enumerate_matrices(r, c, 1):
                    ok = False
    report("criterion 4: constructor matches the exhaustive oracle on all "
           "gap-free pairs (m<=4); necessity is criterion 10's exhaustion (m<=5)", ok)


def test_criterion_5_counterexample_row_sums():
    rows = (1, 6, 6, 4, 5, 6)
    options = [[v for v in range(7) if v % j == 0] for j in range(1, 7)]
    ok = not any(
        gale_ryser_feasible(rows, c) for c in itertools.product(*options)
    )
    report("criterion 5: row sums (1,6,6,4,5,6) admit no divisible column "
           "sequence (exact)", ok)


def test_criterion_6_worked_example_regression():
    matrix26 = matrix_from_text(MATRIX_26_TEXT)
    fixture = KgPartition(
        n=26,
        a_sets=tuple(frozenset(s) for s in A_SETS_26),
        b_sets=tuple(frozenset(s) for s in B_SETS_26),
    )
    ok = partition_to_matrix(fixture) == matrix26
    rep = represent(26, 6)  # validates divisibility and window constraints
    ok = ok and rep.n == 26 and construct_trace(26, 6).partition.n == 26
    report("criterion 6: 26-element fixture reproduces its matrix; "
           "construct(26,6) representation totals 26 (exact)", ok)


def test_criterion_7_asymptotics():
    ratio = max_elements(1000) / (1002 * 1001 // 2)
    ok = abs(ratio - math.pi ** 2 / 6) <= 0.02
    ok = ok and all(
        max_elements(m) >= (m + 2) * (m + 1) // 2 for m in range(4, 101)
    )
    report("criterion 7: max_elements(1000) density within 0.02 of pi^2/6; "
           "no coverage gaps for orders 4..100", ok)


def test_criterion_8_protocol_soundness():
    ok = True
    for n in range(1, 121):
        orders = feasible_orders(n)
        if not orders:
            continue
        pair = construct_trace(n, orders[0]).partition
        for seed in (0, 1, 2):
            cable = make_cable(n, seed)
            transcript = run_protocol(pair, cable)
            for a in range(1, n + 1):
                if transcript.coords_b[cable.wiring[a - 1] - 1] != transcript.coords_a[a - 1]:
                    ok = False
            if len(set(transcript.coords_a)) != n:
                ok = False
    report("criterion 8: protocol coordinate agreement for n in 1..120, "
           "minimal order, seeds {0,1,2}", ok)


@pytest.mark.parametrize("sizes", [range(1, 10), pytest.param(range(10, 11), marks=pytest.mark.slow)],
                         ids=["n 1..9", "n 10"])
def test_criterion_9_pairs_by_exhaustion(sizes):
    # Every pair of partitions, not the formulas: no pair exists for n in {2, 5, 9}, and the orders the
    # pairs reach are feasible_orders(n) for every other n.
    found = {n: kg_pair_orders(n) for n in sizes}
    ok = [n for n, orders in found.items() if not orders] == [n for n in (2, 5, 9) if n in sizes]
    ok = ok and all(orders == set(feasible_orders(n)) for n, orders in found.items())
    report(f"criterion 9: pairs of partitions of 1..n, n in {sizes.start}..{sizes.stop - 1}, by exhaustion: "
           "none for n in {2,5,9}, the orders of feasible_orders(n) otherwise", ok)


@pytest.mark.parametrize("orders", [range(1, 6), pytest.param(range(6, 7), marks=pytest.mark.slow)],
                         ids=["m 1..5", "m 6"])
def test_criterion_10_matrix_totals_by_exhaustion(orders):
    # No order-m matrix holds fewer than m(m+1)/2 or more than J(m) 1s, and every total between is reached.
    ok = all(index_divisible_totals(m) == set(range(min_elements(m), max_elements(m) + 1)) for m in orders)
    report(f"criterion 10: index-divisible matrices of order m, m in {orders.start}..{orders.stop - 1}, by "
           "exhaustion: their totals are exactly min_elements(m)..max_elements(m)", ok)

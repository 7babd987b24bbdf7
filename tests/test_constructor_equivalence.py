"""The loop constructor and the one-pass chunking against their references.

reference_constructor.py keeps the recursive constructor, the stable
permutation that brought its output into the order of the requested sums,
and the map-and-rescan matrix_to_partition; the package's versions must
match them cell for cell and set for set. construct_matrix on sums in any
order must equal the reference construction on the sorted sums, permuted
back to the given order. construct_trace stores its sets unsorted, so its
pair must equal the reference's sorted one.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import LETTERS, gapfree_sequences
from reference_constructor import (
    reference_construct,
    reference_matrix_to_partition,
    reference_permute_to_sums,
)
from wireid import matrices
from wireid.matrices import _peel, _sort_descending, construct_matrix
from wireid.partitions import construct_trace, feasible_orders, matrix_to_partition, represent


def reference_in_order(r, c):
    """The reference construction on the sorted sums, permuted back to r and c."""
    r_sorted, c_sorted = sorted(r, reverse=True), sorted(c, reverse=True)
    return reference_permute_to_sums(reference_construct(r_sorted, c_sorted), r, c)


def assert_pipeline_matches(n, m):
    t = represent(n, m).t
    trace = construct_trace(n, m)
    assert trace.matrix == construct_matrix(t, t) == reference_in_order(t, t), (n, m)
    labels = range(1, n + 1)
    reference = reference_matrix_to_partition(trace.matrix, labels)
    assert trace.partition == matrix_to_partition(trace.matrix, labels) == reference, (n, m)


def test_pipeline_matches_reference_through_n_300():
    for n in range(1, 301):
        for m in feasible_orders(n):
            assert_pipeline_matches(n, m)


def test_constructor_matches_reference_on_all_gapfree_pairs_through_order_7():
    compared = 0
    for m in range(1, 8):
        sequences = gapfree_sequences(m)
        for r in sequences:
            for c in sequences:
                if sum(r) != sum(c):
                    continue
                assert construct_matrix(r, c) == reference_construct(r, c), (r, c)
                compared += 1
    assert compared == 3435


def test_constructor_matches_permuted_reference_on_shuffled_gapfree_pairs_through_order_6():
    rng = random.Random(5)
    compared = 0
    for m in range(1, 7):
        sequences = gapfree_sequences(m)
        for r in sequences:
            for c in sequences:
                if sum(r) != sum(c):
                    continue
                for _ in range(3):
                    r_order, c_order = list(r), list(c)
                    rng.shuffle(r_order)
                    rng.shuffle(c_order)
                    assert construct_matrix(r_order, c_order) == reference_in_order(r_order, c_order), (
                        r_order, c_order)
                    compared += 1
    assert compared == 3 * 919


def test_constructor_realizes_the_worked_sums_in_their_own_order(matrix26):
    sums = (2, 6, 3, 4, 5, 6)
    assert construct_matrix(sums, sums) == matrix26


@pytest.mark.slow
@pytest.mark.parametrize("lo", range(1, 1500, 300))
def test_pipeline_matches_reference_for_every_order_below_1500(lo):
    for n in range(lo, lo + 300):
        for m in feasible_orders(n):
            assert_pipeline_matches(n, m)


@pytest.mark.slow
def test_pipeline_matches_reference_on_seeded_large_n():
    rng = random.Random(20260)
    for n in sorted(rng.randrange(20_000, 100_001) for _ in range(10)):
        assert_pipeline_matches(n, feasible_orders(n)[0])


def test_matrix_to_partition_matches_reference_with_letter_labels(matrix26):
    assert matrix_to_partition(matrix26, LETTERS) == reference_matrix_to_partition(matrix26, LETTERS)


def test_matrix_to_partition_sorts_labels_given_in_any_order():
    # Only ascending labels cut the sets in canonical order; any other order
    # needs KgPartition's sort.
    rng = random.Random(16)
    for n in range(1, 121):
        for m in feasible_orders(n):
            matrix = construct_trace(n, m).matrix
            shuffled = list(range(1, n + 1))
            rng.shuffle(shuffled)
            for labels in (shuffled, range(n, 0, -1)):
                assert matrix_to_partition(matrix, labels) == reference_matrix_to_partition(matrix, labels), (n, m)


@given(st.integers(-2, 12), st.lists(st.booleans(), max_size=14), st.data())
def test_peel_is_the_stable_sort_of_the_peeled_sums(start, drops, data):
    """On gap-free nonincreasing values, _peel leaves positions up to s as they
    were and leaves after them _sort_descending of the peeled sums, for every
    valid s and q."""
    values = [start]
    for drop in drops:
        values.append(values[-1] - drop)
    origin = data.draw(st.permutations(range(len(values))))
    for s in range(len(values)):
        for q in range(1, len(values) - s + 1):
            peeled, carried = list(values), list(origin)
            _peel(peeled, carried, s, q)
            sums, order = _sort_descending([v - 1 for v in values[s + 1 : s + q]] + values[s + q :])
            expected = sums, [origin[s + 1 + i] for i in order]
            assert (peeled[: s + 1], carried[: s + 1]) == (values[: s + 1], list(origin[: s + 1])), (values, s, q)
            assert (peeled[s + 1 :], carried[s + 1 :]) == expected, (values, s, q)


@pytest.mark.parametrize("r, c, peels_per_level", [
    (represent(26, 6).t, represent(26, 6).t, 1),
    (represent(300, 20).t, represent(300, 20).t, 1),
    ((1, 1, 1), (2, 1, 0), 2),
    ((3, 2, 2, 1), (2, 2, 2, 2), 2),
])
def test_each_level_peels_once_per_distinct_order(r, c, peels_per_level, monkeypatch):
    """Equal sums share one order, peeled once per level; unequal sums peel
    rows and columns apart."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _peel(*args)

    monkeypatch.setattr(matrices, "_peel", counted)
    assert construct_matrix(r, c) == reference_in_order(r, c)
    assert len(calls) == peels_per_level * levels(r, c)


def levels(r, c):
    """The levels of the construction: peel and re-sort until the largest row sum is 0."""
    r, c = sorted(r, reverse=True), sorted(c, reverse=True)
    count = 0
    while r and r[0]:
        p, q = r[0], c[0]
        r = sorted([v - 1 for v in r[1:q]] + r[q:], reverse=True)
        c = sorted([v - 1 for v in c[1:p]] + c[p:], reverse=True)
        count += 1
    return count

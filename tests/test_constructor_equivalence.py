"""The loop constructor and the one-pass chunking against their references.

reference_constructor.py keeps the recursive constructor and the
map-and-rescan matrix_to_partition; the package's versions must match
them cell for cell and set for set.
"""

import random

import pytest

from conftest import LETTERS, gapfree_sequences
from reference_constructor import reference_construct, reference_matrix_to_partition
from wireid.matrices import construct_matrix, permute_to_sums
from wireid.partitions import feasible_orders, matrix_to_partition, represent


def assert_pipeline_matches(n, m):
    rep = represent(n, m)
    sums = tuple(sorted(rep.t, reverse=True))
    symmetric = construct_matrix(sums, sums)
    assert symmetric == reference_construct(sums, sums), (n, m)
    matrix = permute_to_sums(symmetric, rep.t, rep.t)
    labels = range(1, n + 1)
    assert matrix_to_partition(matrix, labels) == reference_matrix_to_partition(matrix, labels), (n, m)


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

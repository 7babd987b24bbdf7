import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wireid
from conftest import flip_first_cell, flip_off_diagonal_cell, gapfree_sequences
from oracles import conjugate, enumerate_matrices, gale_ryser_feasible, matrix_from_text
from reference_constructor import reference_permute_to_sums
from wireid import ConstructionError, matrices, partitions
from wireid.matrices import (
    BinaryMatrix,
    can_construct,
    construct_matrix,
    format_degree_sequence,
)


# ── sums ─────────────────────────────────────────────────────────────────

def test_sums_of_worked_matrix(matrix26):
    assert matrix26.row_sums() == (2, 6, 3, 4, 5, 6)
    assert matrix26.col_sums() == (2, 6, 3, 4, 5, 6)
    assert matrix26 == matrix26.transpose()


def test_row_sums_trivial_cases():
    assert BinaryMatrix(((0,),)).row_sums() == (0,)
    eye = BinaryMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert eye.row_sums() == (1, 1, 1)


def test_col_sums_trivial_cases():
    assert BinaryMatrix(((1, 1), (1, 1))).col_sums() == (2, 2)
    assert BinaryMatrix(((0, 1), (0, 0))).col_sums() == (0, 1)


@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                       min_size=m, max_size=m)))
def test_transpose_swaps_sums(rows):
    matrix = BinaryMatrix(tuple(tuple(r) for r in rows))
    assert matrix.transpose().row_sums() == matrix.col_sums()
    assert matrix.transpose().col_sums() == matrix.row_sums()


def test_matrix_validation():
    with pytest.raises(ValueError):
        BinaryMatrix(((1, 0), (1,)))
    with pytest.raises(ValueError):
        BinaryMatrix(((2,),))
    with pytest.raises(ValueError):
        BinaryMatrix(())


@pytest.mark.parametrize("bad", [2, [1], float("nan"), -1, "1", None])
def test_matrix_names_its_first_bad_entry(bad):
    # The first bad entry in row-major order is named, hashable or not.
    with pytest.raises(ValueError) as excinfo:
        BinaryMatrix(((0, 1, 1), (1, bad, 0), (0, 3, 1)))
    assert str(excinfo.value) == f"matrix entries must be 0 or 1, got {bad!r}"


def test_matrix_accepts_entries_equal_to_0_or_1():
    matrix = BinaryMatrix(((True, 1.0), (0, False)))
    assert matrix.rows == ((1, 1), (0, 0)) and matrix.row_sums() == (2, 0)


# ── text format ──────────────────────────────────────────────────────────

def test_text_round_trip(matrix26):
    assert matrix_from_text(matrix26.to_text()) == matrix26


@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([0, 1, False, True, 0.0, 1.0, 1 + 0j]), min_size=m, max_size=m),
    min_size=m, max_size=m)))
def test_text_is_the_per_entry_rendering(rows):
    # Entries need only equal 0 or 1: bools and 1.0 render as ints do.
    matrix = BinaryMatrix(rows)
    assert matrix.to_text() == "".join("".join("1" if v else "." for v in row) + "\n" for row in rows)


def test_text_rejects_ragged_lines():
    with pytest.raises(ValueError, match="ragged"):
        matrix_from_text(".1\n1\n")


def test_text_rejects_stray_characters():
    with pytest.raises(ValueError):
        matrix_from_text(".x\n11\n")
    with pytest.raises(ValueError):
        matrix_from_text("")


def test_degree_sequence_serialization():
    assert format_degree_sequence((2, 6, 3)) == "2,6,3"


# ── construction hypotheses ──────────────────────────────────────────────

def test_can_construct_examples():
    assert can_construct((6, 6, 5, 4, 3, 2), (6, 6, 5, 4, 3, 2))
    assert not can_construct((2, 0), (2, 0))  # gap of 2
    assert can_construct((1,), (1,))


def test_can_construct_is_order_sensitive():
    # A realization exists for these sums, but can_construct checks them as
    # given: construct_matrix sorts before it asks.
    assert not can_construct((2, 6, 3, 4, 5, 6), (2, 6, 3, 4, 5, 6))


def test_can_construct_rejects_unequal_totals_and_ranges():
    assert not can_construct((2, 1), (1, 1))
    assert not can_construct((3, 2), (3, 2))  # 3 > m = 2
    assert not can_construct((1, -1), (0, 0))
    with pytest.raises(ValueError):
        can_construct((1, 1), (1,))


# ── the gap-free constructor ─────────────────────────────────────────────

def test_construct_base_cases():
    assert construct_matrix((1,), (1,)) == BinaryMatrix(((1,),))
    assert construct_matrix((0,), (0,)) == BinaryMatrix(((0,),))


def test_construct_worked_sums():
    sums = (6, 6, 5, 4, 3, 2)
    matrix = construct_matrix(sums, sums)
    assert matrix.row_sums() == sums
    assert matrix.col_sums() == sums
    assert matrix == matrix.transpose()
    # m = 6 is past the enumerator's guard; the majorization test is the
    # independent feasibility confirmation here.
    assert gale_ryser_feasible(sums, sums)


def test_construct_small_sums_against_enumerator():
    sums = (2, 2, 1)
    matrix = construct_matrix(sums, sums)
    assert matrix.row_sums() == sums
    assert matrix.col_sums() == sums
    assert enumerate_matrices(sums, sums, 1)


def test_construct_rejects_bad_input():
    with pytest.raises(ValueError, match="not constructible"):
        construct_matrix((2, 0), (2, 0))


def test_construct_checks_its_output(monkeypatch):
    sums = (2, 6, 3, 4, 5, 6)
    monkeypatch.setattr(matrices, "_construct", flip_first_cell(matrices._construct))
    with pytest.raises(ConstructionError) as excinfo:
        construct_matrix(sums, sums)
    assert str(excinfo.value) == "the constructed matrix does not realize r=2,6,3,4,5,6 c=2,6,3,4,5,6"


def test_construct_checks_symmetry_on_equal_sums_first(monkeypatch):
    sums = (2, 6, 3, 4, 5, 6)
    monkeypatch.setattr(matrices, "_construct", flip_off_diagonal_cell(matrices._construct))
    with pytest.raises(ConstructionError) as excinfo:  # the flipped cell also misses both sums
        construct_matrix(sums, sums)
    assert str(excinfo.value) == "the constructed matrix for r=2,6,3,4,5,6 c=2,6,3,4,5,6 is not symmetric"


def test_construction_is_checked_on_one_transpose_and_no_entry_walk(monkeypatch):
    # The CLI's construct path: _checked_grid checks the byte rows on their one strided transpose,
    # with no int-tuple transpose (zip), and builds no BinaryMatrix; partitions checks the grid no further.
    calls = []
    for module in (matrices, partitions):
        monkeypatch.setattr(module, "zip", lambda *args: calls.append("zip") or zip(*args), raising=False)
    checked_grid, unchecked = matrices._checked_grid, partitions._unchecked
    monkeypatch.setattr(partitions, "_checked_grid", lambda r, c: calls.append("grid") or checked_grid(r, c))
    monkeypatch.setattr(partitions, "_unchecked", lambda cls, **kw: calls.append(cls.__name__) or unchecked(cls, **kw))
    post_init = BinaryMatrix.__post_init__
    monkeypatch.setattr(BinaryMatrix, "__post_init__", lambda self: calls.append("check") or post_init(self))
    rep, rows = partitions._checked_construction(26, None)
    assert calls == ["Representation", "grid"]
    assert all(type(row) is bytearray for row in rows)
    matrix = BinaryMatrix(tuple(map(tuple, rows)))
    assert matrix == construct_matrix(rep.t, rep.t) and matrix.row_sums() == matrix.col_sums() == rep.t


def test_output_check_survives_optimized_mode():
    script = textwrap.dedent(
        """
        import sys
        from wireid import ConstructionError, matrices

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        construct = matrices._construct

        def flipped(r, c):
            out = construct(r, c)
            out[0][0] ^= 1
            return out

        matrices._construct = flipped
        try:
            matrices.construct_matrix((2, 6, 3, 4, 5, 6), (2, 6, 3, 4, 5, 6))
        except ConstructionError as exc:
            print(exc)
        else:
            sys.exit("no ConstructionError under -O")
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "the constructed matrix does not realize r=2,6,3,4,5,6 c=2,6,3,4,5,6\n"


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_construct_matches_enumerator_on_all_gapfree_pairs(m):
    sequences = gapfree_sequences(m)
    for r in sequences:
        for c in sequences:
            if sum(r) != sum(c):
                continue
            matrix = construct_matrix(r, c)
            assert matrix.row_sums() == r
            assert matrix.col_sums() == c
            assert enumerate_matrices(r, c, 1), (r, c)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_construct_is_symmetric_on_equal_sums(m):
    for r in gapfree_sequences(m):
        matrix = construct_matrix(r, r)
        assert matrix == matrix.transpose(), r


# ── permutation alignment (the test reference) ───────────────────────────

def test_permute_identity(matrix26):
    sums = matrix26.row_sums()
    assert reference_permute_to_sums(matrix26, sums, sums) == matrix26


def test_permute_worked_matrix():
    sums = (6, 6, 5, 4, 3, 2)
    target = (2, 6, 3, 4, 5, 6)
    matrix = construct_matrix(sums, sums)
    permuted = reference_permute_to_sums(matrix, target, target)
    assert permuted.row_sums() == target
    assert permuted.col_sums() == target


def test_permute_single_entry():
    matrix = BinaryMatrix(((1, 0), (0, 0)))
    moved = reference_permute_to_sums(matrix, (0, 1), (1, 0))
    assert moved == BinaryMatrix(((0, 0), (1, 0)))


def test_permute_rejects_multiset_mismatch(matrix26):
    with pytest.raises(ValueError, match="not a permutation"):
        reference_permute_to_sums(matrix26, (6, 6, 6, 6, 1, 1), matrix26.col_sums())


@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                     min_size=m, max_size=m),
            st.permutations(range(m)),
            st.permutations(range(m)),
        )
    )
)
def test_permute_preserves_entries(data):
    rows, row_shuffle, col_shuffle = data
    matrix = BinaryMatrix(tuple(tuple(r) for r in rows))
    target_r = tuple(matrix.row_sums()[i] for i in row_shuffle)
    target_c = tuple(matrix.col_sums()[j] for j in col_shuffle)
    permuted = reference_permute_to_sums(matrix, target_r, target_c)
    assert permuted.row_sums() == target_r
    assert permuted.col_sums() == target_c
    assert sum(map(sum, permuted.rows)) == sum(map(sum, matrix.rows))
    assert sorted(permuted.row_sums()) == sorted(matrix.row_sums())


# ── feasibility oracles ──────────────────────────────────────────────────

def test_conjugate():
    assert conjugate((3, 2, 0)) == (2, 2, 1)
    assert conjugate((0,)) == (0,)


def test_gale_ryser_examples():
    assert gale_ryser_feasible((2, 2), (2, 2))
    assert not gale_ryser_feasible((2, 2, 0), (3, 1, 0))
    assert gale_ryser_feasible((6, 6, 5, 4, 3, 2), (6, 6, 5, 4, 3, 2))


def test_gale_ryser_input_checks():
    with pytest.raises(ValueError):
        gale_ryser_feasible((1, 1), (1,))
    with pytest.raises(ValueError):
        gale_ryser_feasible((3, 0), (2, 1))  # 3 > m = 2
    with pytest.raises(ValueError):
        gale_ryser_feasible((-1, 1), (0, 0))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gale_ryser_equals_enumeration_everywhere(m):
    # Full domain: every pair of sequences with values in [0, m].
    values = range(m + 1)
    for r in itertools.product(values, repeat=m):
        for c in itertools.product(values, repeat=m):
            assert gale_ryser_feasible(r, c) == bool(enumerate_matrices(r, c, 1)), (r, c)


def test_gale_ryser_equals_enumeration_on_index_divisible_sums_that_are_not_gap_free():
    # Every pair of equal-total sums with entry j a multiple of j (as a KG
    # matrix has) where at least one side is not gap-free, m <= 5, in index
    # order and under a seeded shuffle of rows and columns.
    rng = random.Random(1957)
    outcomes = []
    for m in range(1, 6):
        gap_free = set(gapfree_sequences(m))
        sequences = list(itertools.product(*(range(0, m + 1, j) for j in range(1, m + 1))))
        for r in sequences:
            for c in sequences:
                if sum(r) != sum(c) or (tuple(sorted(r, reverse=True)) in gap_free
                                        and tuple(sorted(c, reverse=True)) in gap_free):
                    continue
                shuffled_r, shuffled_c = rng.sample(r, m), rng.sample(c, m)
                for rows, cols in ((r, c), (shuffled_r, shuffled_c)):
                    feasible = gale_ryser_feasible(rows, cols)
                    assert feasible == bool(enumerate_matrices(rows, cols, 1)), (rows, cols)
                    outcomes.append(feasible)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 2000


@given(st.permutations(range(5)), st.permutations(range(5)))
def test_gale_ryser_ignores_input_order(rp, cp):
    r, c = (3, 3, 2, 1, 1), (2, 2, 2, 2, 2)
    shuffled_r = tuple(r[i] for i in rp)
    shuffled_c = tuple(c[i] for i in cp)
    assert gale_ryser_feasible(shuffled_r, shuffled_c) == gale_ryser_feasible(r, c)


# ── exhaustive enumeration ───────────────────────────────────────────────

def test_enumerate_trivial():
    assert enumerate_matrices((1,), (1,), 10) == [BinaryMatrix(((1,),))]


def test_enumerate_two_permutation_matrices():
    found = enumerate_matrices((1, 1), (1, 1), 10)
    assert sorted(found, key=lambda m: m.rows) == [
        BinaryMatrix(((0, 1), (1, 0))),
        BinaryMatrix(((1, 0), (0, 1))),
    ]


def test_enumerate_infeasible_is_empty():
    assert enumerate_matrices((2, 2, 0), (3, 1, 0), 10) == []


def test_enumerate_respects_limit():
    assert len(enumerate_matrices((1, 1), (1, 1), 1)) == 1


def test_enumerate_guards():
    with pytest.raises(ValueError, match="limited to m <= 5"):
        enumerate_matrices((1,) * 6, (1,) * 6, 1)
    with pytest.raises(ValueError):
        enumerate_matrices((1,), (1,), 0)
    with pytest.raises(ValueError):
        enumerate_matrices((-1,), (-1,), 1)

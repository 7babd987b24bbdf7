import enum
import itertools
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A_SETS_26, B_SETS_26, LETTERS, divisible_gapfree_sums, flip_off_diagonal_cell
from oracles import gale_ryser_feasible, partition_to_matrix
from reference_constructor import reference_canonical_order, reference_matrix_to_partition
from wireid.matrices import BinaryMatrix, construct_matrix
import wireid
from wireid import matrices, partitions
from wireid.partitions import (
    Construction,
    ConstructionError,
    InfeasibleOrderError,
    KgPartition,
    Representation,
    construct,
    construct_trace,
    feasible_orders,
    kg_violations,
    matrix_to_partition,
    max_elements,
    min_elements,
    partition_from_json,
    partition_to_json,
    represent,
)


# ── bounds ───────────────────────────────────────────────────────────────

def test_bounds_small_orders():
    assert [(min_elements(m), max_elements(m)) for m in (1, 2, 3, 4)] == [
        (1, 1), (3, 4), (6, 8), (10, 15)]


def test_max_elements_direct_sum():
    assert max_elements(6) == 6 + 6 + 6 + 4 + 5 + 6 == 33


def test_max_elements_matches_remainder_form():
    for m in range(1, 2001):
        assert max_elements(m) == m * m - sum(m % j for j in range(1, m + 1))


def test_bounds_reject_nonpositive():
    with pytest.raises(ValueError):
        min_elements(0)
    with pytest.raises(ValueError):
        max_elements(0)


def test_feasible_orders_examples():
    assert feasible_orders(9) == []
    assert feasible_orders(1) == [1]
    # 21 = min_elements(6) <= 26 <= 33 = max_elements(6), while order 5 tops
    # out at 21 < 26 and order 7 starts at 28 > 26.
    assert max_elements(5) == 21 and min_elements(7) == 28
    assert feasible_orders(26) == [6]


def test_feasible_orders_gaps_up_to_1000():
    assert [n for n in range(1, 1001) if not feasible_orders(n)] == [2, 5, 9]


# ── representation ───────────────────────────────────────────────────────

def test_represent_at_maximum():
    rep = represent(33, 6)
    assert rep.t == (6, 6, 6, 4, 5, 6)
    assert (rep.s, rep.k) == (3, 2)
    assert rep.n == 33


def test_represent_triangular():
    rep = represent(21, 6)
    assert rep.t == (1, 2, 3, 4, 5, 6)
    assert rep.s == 0


def test_represent_worked_example():
    rep = represent(26, 6)
    assert rep.t == (6, 2, 3, 4, 5, 6)
    assert (rep.s, rep.k) == (1, 6)


def test_represent_single_order():
    assert represent(1, 1) == Representation(m=1, t=(1,), s=0, k=1)


def test_represent_out_of_range():
    with pytest.raises(InfeasibleOrderError):
        represent(9, 3)  # 9 > max_elements(3) = 8
    with pytest.raises(InfeasibleOrderError):
        represent(9, 4)  # 9 < min_elements(4) = 10
    with pytest.raises(ValueError):
        represent(0, 1)


def test_representation_invariants_through_order_24():
    # Every invariant is enforced by Representation itself; on top of that
    # the value multiset must be exactly the consecutive run {s+1..m}, and
    # the one multiset with no matrix realization must never appear.
    infeasible = sorted((1, 6, 6, 4, 5, 6))
    for m in range(1, 25):
        for n in range(min_elements(m), max_elements(m) + 1):
            rep = represent(n, m)
            assert rep.n == n
            assert set(rep.t) == set(range(rep.s + 1, m + 1)), (n, m, rep)
            assert sorted(rep.t) != infeasible, (n, m, rep)


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(m=2, t=(1, 1), s=0, k=1)  # t_2 not a multiple of 2
    with pytest.raises(ValueError):
        Representation(m=3, t=(3, 2, 3), s=1, k=2)  # t_1 = 3 but k*s = 2
    with pytest.raises(ValueError):
        Representation(m=6, t=(6, 2, 3, 4, 5, 6), s=1, k=1)  # k must exceed 1
    with pytest.raises(ValueError):
        Representation(m=2, t=(1, 2), s=0, k=2)  # k fixed to 1 when s = 0


def test_infeasible_row_sums_have_no_divisible_columns():
    # Sums (1,6,6,4,5,6) write 28 as positive multiples yet admit no
    # matrix: no column sequence with c_j a multiple of j works either.
    rows = (1, 6, 6, 4, 5, 6)
    options = [[v for v in range(7) if v % j == 0] for j in range(1, 7)]
    candidates = list(itertools.product(*options))
    assert len(candidates) == 672
    assert not any(gale_ryser_feasible(rows, c) for c in candidates)


# ── matrix <-> partition ─────────────────────────────────────────────────

def test_worked_matrix_to_letter_partition(matrix26):
    pair = matrix_to_partition(matrix26, LETTERS)
    assert set(pair.a_sets) == {frozenset(s) for s in A_SETS_26}
    assert set(pair.b_sets) == {frozenset(s) for s in B_SETS_26}


def test_letter_partition_back_to_matrix(matrix26):
    pair = KgPartition(
        n=26,
        a_sets=tuple(frozenset(s) for s in A_SETS_26),
        b_sets=tuple(frozenset(s) for s in B_SETS_26),
    )
    assert partition_to_matrix(pair) == matrix26


def test_matrix_to_partition_trivial():
    pair = matrix_to_partition(BinaryMatrix(((1,),)), [1])
    assert pair.a_sets == (frozenset({1}),)
    assert pair.b_sets == (frozenset({1}),)


def test_matrix_to_partition_single_size_two_row():
    pair = matrix_to_partition(BinaryMatrix(((0, 1), (1, 1))), [1, 2, 3])
    assert pair.a_sets == (frozenset({1}), frozenset({2, 3}))
    assert pair.b_sets == (frozenset({2}), frozenset({1, 3}))


def test_matrix_to_partition_rejects_bad_input():
    with pytest.raises(ValueError, match="multiple"):
        matrix_to_partition(BinaryMatrix(((0, 1), (1, 0))), [1, 2])  # row 2 sum 1
    # A lone 1 in column 2 breaks divisibility there as well.
    with pytest.raises(ValueError, match="column 2"):
        matrix_to_partition(BinaryMatrix(((0, 0), (1, 1))), [1, 2])
    with pytest.raises(ValueError, match="labels"):
        matrix_to_partition(BinaryMatrix(((1,),)), [1, 2])
    with pytest.raises(ValueError, match="distinct"):
        matrix_to_partition(BinaryMatrix(((0, 1), (1, 1))), [1, 1, 1])


def test_matrix_to_partition_takes_any_entries_equal_to_0_or_1(matrix26):
    # The sums come off the byte rows as ints, so True, 1.0 and 1 + 0j cut the sets 1 does.
    odd = BinaryMatrix(tuple(tuple((True, 1.0, 1 + 0j)[j % 3] if v else 0.0 for j, v in enumerate(row))
                             for row in matrix26.rows))
    assert matrix_to_partition(odd, LETTERS) == matrix_to_partition(matrix26, LETTERS)
    with pytest.raises(ValueError, match="^row 2 has sum 1, not a multiple of 2$"):
        matrix_to_partition(BinaryMatrix(((0.0, 1.0), (1.0, 0.0))), [1, 2])


def test_matrix_to_partition_checks_divisibility_then_count_then_distinctness():
    with pytest.raises(ValueError, match="row 2 has sum 1"):
        matrix_to_partition(BinaryMatrix(((0, 1), (1, 0))), [1, 1])
    with pytest.raises(ValueError, match="need exactly 3 labels"):
        matrix_to_partition(BinaryMatrix(((0, 1), (1, 1))), [1, 1])
    # The distinctness check is matrix_to_partition's own: the shared checks take repeated labels.
    assert partitions._check_cuts((1, 2), (1, 2), len([1, 1, 1])) is None


def test_partition_to_matrix_round_trip_trivial():
    pair = KgPartition(1, (frozenset({1}),), (frozenset({1}),))
    assert partition_to_matrix(pair) == BinaryMatrix(((1,),))


def test_partition_to_matrix_rejects_collisions():
    # Two all-singleton partitions put every element in cell (1,1).
    singletons = tuple(frozenset({x}) for x in (1, 2, 3))
    with pytest.raises(ValueError, match=r"cell \(1,1\)"):
        partition_to_matrix(KgPartition(3, singletons, singletons))


def test_partition_to_matrix_rejects_structural_breakage():
    with pytest.raises(ValueError, match="overlap"):
        partition_to_matrix(KgPartition(2, (frozenset({1, 2}), frozenset({2})),
                                        (frozenset({1}), frozenset({2}))))
    with pytest.raises(ValueError, match="different elements"):
        partition_to_matrix(KgPartition(2, (frozenset({1}),), (frozenset({2}),)))


# ── the KG property oracle ───────────────────────────────────────────────

def test_verify_worked_example(matrix26):
    assert not kg_violations(matrix_to_partition(matrix26, range(1, 27)))


def test_verify_trivial_pair():
    assert not kg_violations(KgPartition(1, (frozenset({1}),), (frozenset({1}),)))


def test_two_elements_cannot_work():
    singletons = (frozenset({1}), frozenset({2}))
    pair = KgPartition(2, singletons, singletons)
    problems = kg_violations(pair)
    assert problems
    assert any("cell (1,1)" in p for p in problems)


def test_violation_diagnostics_for_malformed_pairs():
    overlap = KgPartition(2, (frozenset({1, 2}), frozenset({2})), (frozenset({1, 2}),))
    assert any("overlap" in p for p in kg_violations(overlap))

    missing = KgPartition(3, (frozenset({1}),), (frozenset({1, 2, 3}),))
    assert any("do not cover" in p for p in kg_violations(missing))

    stray = KgPartition(1, (frozenset({1}), frozenset({7})), (frozenset({1}),))
    assert any("outside" in p for p in kg_violations(stray))

    hollow = KgPartition(1, (frozenset({1}), frozenset()), (frozenset({1}),))
    assert any("empty" in p for p in kg_violations(hollow))


# ── the constructive pipeline ────────────────────────────────────────────

def test_construct_smallest():
    pair = construct(1)
    assert pair.a_sets == (frozenset({1}),)
    assert pair.b_sets == (frozenset({1}),)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_construct_impossible_sizes(n):
    with pytest.raises(InfeasibleOrderError):
        construct(n)


def test_construct_out_of_range_for_explicit_order():
    with pytest.raises(InfeasibleOrderError):
        construct(40, 4)


def test_construct_worked_size():
    trace = construct_trace(26, 6)
    pair = trace.partition
    assert not kg_violations(pair)
    assert pair.order == 6
    assert sorted(len(s) for s in pair.a_sets) == [1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6]
    assert sorted(len(s) for s in pair.b_sets) == [1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6]
    assert trace.matrix == trace.matrix.transpose()
    assert trace.matrix.row_sums() == trace.representation.t


def test_construction_eq_and_repr_ignore_the_private_attributes():
    trace = construct_trace(26, 6)
    plain = Construction(trace.representation, trace.matrix, trace.partition)
    assert trace == plain and repr(trace) == repr(plain)
    assert vars(trace).keys() == {"representation", "matrix", "partition"}  # no private attribute left


def test_asymmetric_construction_raises(monkeypatch):
    monkeypatch.setattr(matrices, "_construct", flip_off_diagonal_cell(matrices._construct))
    with pytest.raises(ConstructionError, match="is not symmetric"):
        construct_trace(26)


def test_symmetry_check_survives_optimized_mode():
    script = textwrap.dedent(
        """
        import sys
        from wireid import ConstructionError, matrices, partitions

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        construct = matrices._construct

        def flipped(r, c):
            out = construct(r, c)
            out[0][1] ^= 1
            return out

        matrices._construct = flipped
        try:
            partitions.construct_trace(26)
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
    assert result.stdout.startswith("the constructed matrix for r=")
    assert result.stdout.endswith("is not symmetric\n")


@pytest.mark.slow
def test_construct_has_no_depth_limit_at_order_1000():
    # The smallest n whose smallest order is 1000: one recursion per level
    # would pass Python's default recursion limit here.
    n = max_elements(1000)
    assert feasible_orders(n)[0] == 1000
    trace = construct_trace(n)
    assert trace.partition.order == 1000
    assert not kg_violations(trace.partition)


def test_construct_sweep_with_all_orders():
    for n in range(1, 81):
        for m in feasible_orders(n):
            trace = construct_trace(n, m)
            assert not kg_violations(trace.partition), (n, m)
            assert trace.partition.order == m
            assert trace.matrix == trace.matrix.transpose()


def test_round_trip_preserves_size_multisets():
    for n in (1, 10, 26, 57):
        pair = construct(n)
        again = matrix_to_partition(partition_to_matrix(pair), range(1, n + 1))
        assert not kg_violations(again)
        assert sorted(map(len, again.a_sets)) == sorted(map(len, pair.a_sets))
        assert sorted(map(len, again.b_sets)) == sorted(map(len, pair.b_sets))


@given(st.data())
@settings(max_examples=200)
def test_the_grid_read_of_the_b_side_is_the_cell_key_read(data):
    # Any two such sums with one total, r != c included: the B side read off the byte grid for the labels
    # 1..n is the reference's, which labels each cell in a dict, and comes in canonical order as read
    # (a pair has n >= 1 elements, so the total is positive). matrix_to_partition, which fills _b_table with
    # its labels in row-major order, agrees with the reference on labels in any order.
    m = data.draw(st.integers(1, 7))
    by_total = divisible_gapfree_sums(m)
    sums = by_total[data.draw(st.sampled_from(sorted(by_total)[1:]))]
    r, c = data.draw(st.sampled_from(sums)), data.draw(st.sampled_from(sums))
    matrix = construct_matrix(r, c)
    rows = matrices._checked_grid(r, c)
    assert tuple(map(tuple, rows)) == matrix.rows
    reference = reference_matrix_to_partition(matrix, range(1, sum(r) + 1))
    assert partitions._sets(partitions._grid_columns(rows)) == reference.b_sets, (r, c)
    labels = data.draw(st.permutations(range(1, sum(r) + 1)))
    assert matrix_to_partition(matrix, labels) == reference_matrix_to_partition(matrix, labels), (r, c, labels)


def test_matrix_to_partition_reads_no_grid_columns(monkeypatch, matrix26):
    # _grid_columns reads the B side for the labels 1..n alone; matrix_to_partition fills _b_table, as end B does.
    calls, grid_columns = [], partitions._grid_columns
    monkeypatch.setattr(partitions, "_grid_columns", lambda rows: calls.append(rows) or grid_columns(rows))
    for labels in (LETTERS, range(1, 27), range(26, 0, -1)):
        assert matrix_to_partition(matrix26, labels) == reference_matrix_to_partition(matrix26, labels), labels
    assert calls == []


@pytest.mark.slow
@pytest.mark.parametrize("n, m, order", [(823_081, None, 1000), (1_000_000, 1413, 1413)])
def test_large_constructions_read_their_b_side_as_matrix_to_partition_does(n, m, order):
    # construct_trace reads its B side off the byte grid and matrix_to_partition off the int matrix's
    # bytes, by one reader; the reference labels each cell in a dict. Both sort their sides.
    trace = construct_trace(n, m)
    assert trace.matrix.m == trace.partition.order == order
    labels = range(1, n + 1)
    assert trace.partition == matrix_to_partition(trace.matrix, labels) == reference_matrix_to_partition(
        trace.matrix, labels)


@given(st.integers(1, 200).filter(lambda n: n not in (2, 5, 9)))
@settings(max_examples=40)
def test_construct_passes_oracle_for_any_feasible_order(n):
    orders = feasible_orders(n)
    assert orders
    for m in (orders[0], orders[-1]):
        pair = construct(n, m)
        assert not kg_violations(pair)
        assert pair.order == m


# ── serialization ────────────────────────────────────────────────────────

def test_partition_json_round_trip():
    pair = construct(26, 6)
    assert partition_from_json(partition_to_json(pair)) == pair


def test_partition_json_is_canonical():
    payload = json.loads(partition_to_json(construct(12, 4)))
    assert payload["schema"] == "kg-partition/1"
    sizes = [len(s) for s in payload["a_sets"]]
    assert sizes == sorted(sizes)
    assert all(s == sorted(s) for s in payload["a_sets"] + payload["b_sets"])


def test_partition_json_rejects_letters():
    pair = KgPartition(
        n=26,
        a_sets=tuple(frozenset(s) for s in A_SETS_26),
        b_sets=tuple(frozenset(s) for s in B_SETS_26),
    )
    with pytest.raises(ValueError, match="integer"):
        partition_to_json(pair)


def test_partition_json_names_the_first_label_that_is_not_an_int():
    for odd in (True, 1.0):
        pair = KgPartition(2, (frozenset({odd}), frozenset({2})), (frozenset({odd, 2}),))
        with pytest.raises(ValueError, match=f"got {odd!r}$"):
            partition_to_json(pair)
    one = enum.IntEnum("Label", {"ONE": 1}).ONE  # other int subclasses write as their int
    pair = KgPartition(2, (frozenset({one}), frozenset({2})), (frozenset({one, 2}),))
    plain = KgPartition(2, (frozenset({1}), frozenset({2})), (frozenset({1, 2}),))
    assert partition_to_json(pair) == partition_to_json(plain)


def test_partition_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError, match="JSON"):
        partition_from_json("{ nope")
    with pytest.raises(ValueError, match="schema"):
        partition_from_json('{"schema": "other/9", "n": 1, "a_sets": [[1]], "b_sets": [[1]]}')
    with pytest.raises(ValueError, match="'n'"):
        partition_from_json('{"schema": "kg-partition/1", "n": "one", "a_sets": [[1]], "b_sets": [[1]]}')
    with pytest.raises(ValueError, match="a_sets"):
        partition_from_json('{"schema": "kg-partition/1", "n": 1, "a_sets": [1], "b_sets": [[1]]}')
    with pytest.raises(ValueError, match="integers"):
        partition_from_json('{"schema": "kg-partition/1", "n": 1, "a_sets": [["x"]], "b_sets": [[1]]}')


@pytest.mark.parametrize("a_sets, b_sets, message", [
    ("[[1, true], [2]]", "[[1], [2]]", "field 'a_sets' must contain only integers, got True"),
    ("[[1], [2]]", "[[1], [2.0, \"x\"]]", "field 'b_sets' must contain only integers, got 2.0"),
    ("[[1, null]]", "[[1.5]]", "field 'a_sets' must contain only integers, got None"),
    ("[[1], [[2]]]", "[[1]]", "field 'a_sets' must contain only integers, got [2]"),
])
def test_partition_from_json_names_the_first_non_integer(a_sets, b_sets, message):
    text = f'{{"schema": "kg-partition/1", "n": 2, "a_sets": {a_sets}, "b_sets": {b_sets}}}'
    with pytest.raises(ValueError) as excinfo:
        partition_from_json(text)
    assert str(excinfo.value) == message


def test_invalid_pair_parses_but_fails_verification():
    text = '{"schema": "kg-partition/1", "n": 2, "a_sets": [[1], [2]], "b_sets": [[1], [2]]}'
    pair = partition_from_json(text)
    assert kg_violations(pair)


# ── canonical order against the full-content sort ────────────────────────

NAN = float("nan")
odd_labels = st.sampled_from([True, 1.0, "1", NAN]) | st.builds(float, st.just("nan"))
order_sides = st.lists(
    st.frozensets(st.integers(-2, 8) | odd_labels, max_size=4)
    | st.frozensets(st.integers(-2, 8), max_size=4),
    max_size=10,
)


@given(order_sides, st.booleans())
def test_canonical_order_matches_the_full_content_sort(sets, presorted):
    """Ties on (len, min), overlaps, empty sets, True/1.0/'1' and NaN labels:
    KgPartition stores the very sets the old full-key sort would, in its order."""
    if presorted:
        sets = list(reference_canonical_order(sets))
    pair = KgPartition(3, tuple(sets), tuple(reversed(sets)))
    for side, given_sets in ((pair.a_sets, sets), (pair.b_sets, list(reversed(sets)))):
        assert list(map(id, side)) == list(map(id, reference_canonical_order(given_sets)))


def test_canonical_order_keys_on_the_first_sorted_element_not_the_min():
    # Iterated as 9, NaN, 5, a set sorts to (9, NaN, 5) although its min is
    # 5; the full sort puts {6, 7, 8} first, and so must KgPartition.
    nans = [float("nan") for _ in range(1000)]
    odd = next(s for s in (frozenset({9, x, 5}) for x in nans) if sorted(s)[0] == 9 and min(s) == 5)
    plain = frozenset({6, 7, 8})
    for sets in ((odd, plain), (plain, odd)):
        assert reference_canonical_order(sets) == (plain, odd)
        assert KgPartition(3, sets, sets).a_sets == (plain, odd)


def test_constructed_sets_arrive_in_strictly_increasing_len_min_order():
    # matrix_to_partition emits each side already in canonical order, so
    # KgPartition's sort finds a single run.
    pair = construct(5_000)
    for sets in (pair.a_sets, pair.b_sets):
        keys = [(len(s), min(s)) for s in sets]
        assert keys == sorted(set(keys))
        assert sets == reference_canonical_order(reversed(sets))

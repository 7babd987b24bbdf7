"""The O(n) protocol run, its single validation pass and the document
writer against the references they replace (tests/reference_protocol.py,
kg_violations and json.dumps), and the phases fed by the construction (as
`wireid simulate` runs them) against the public run_protocol."""

import inspect
import gc
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import chain, compress, repeat

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import wireid
from conftest import divisible_gapfree_sums, mismatch, swap_first_and_last
from oracles import partition_to_matrix
from reference_constructor import reference_canonical_order
from reference_protocol import (
    reference_assemble_b_sets,
    reference_coordinates,
    reference_run_protocol,
    reference_transcript_to_json,
)
from wireid import cable as cable_module, partitions as partitions_module
from wireid._jsonout import IntRuns, _paired_runs, _sorted_runs, document
from wireid.cable import (
    TRANSCRIPT_SCHEMA, ConnectionPlan, ProtocolError, _phases, _transcript_fields, make_cable, run_protocol,
    transcript_to_json,
)
from wireid.matrices import construct_matrix
from wireid.partitions import (
    KgPartition,
    _cell_keys,
    _checked_construction,
    _grid_columns,
    _rows,
    _sets,
    construct,
    construct_trace,
    feasible_orders,
    kg_violations,
    partition_to_json,
)


# ── run_protocol against the reference ───────────────────────────────────

def test_protocol_matches_reference_for_small_n():
    for n in range(1, 121):
        for m in feasible_orders(n):
            pair = construct(n, m)
            for seed in (0, 1, 2):
                cable = make_cable(n, seed)
                transcript, reference = run_protocol(pair, cable), reference_run_protocol(pair, cable)
                # == compares the four stored fields; the derived coordinates separately.
                assert transcript == reference, (n, m, seed)
                assert (transcript.coords_a, transcript.coords_b) == reference_coordinates(reference), (n, m, seed)


@pytest.mark.slow
def test_protocol_and_json_match_reference_for_sampled_large_n():
    rng = random.Random(20260)
    for _ in range(10):
        n = rng.randrange(5_000, 30_001)
        while not feasible_orders(n):
            n += 1
        cable = make_cable(n, rng.randrange(1, 10_000))
        pair = construct(n)
        transcript = run_protocol(pair, cable)
        reference = reference_run_protocol(pair, cable)
        assert transcript == reference, n
        assert (transcript.coords_a, transcript.coords_b) == reference_coordinates(reference), n
        assert transcript_to_json(transcript) == reference_transcript_to_json(reference), n


def assert_construction_fed_phases_match(n, m, seed):
    trace, cable = construct_trace(n, m), make_cable(n, seed)
    rep, rows = _checked_construction(n, m)
    size_a = [0, *chain.from_iterable(map(repeat, range(1, m + 1), rep.t))]  # as `wireid simulate` builds it
    probe_1, b_groups, size_b, probe_2 = _phases(rows, size_a, cable.wiring)
    # The pair again through KgPartition's sort, which construct_trace skips.
    public = run_protocol(KgPartition(n, trace.partition.a_sets, trace.partition.b_sets), cable)
    assert probe_1 == public.phase1_probe, (n, m, seed)
    assert all(isinstance(group, list) for group in b_groups), (n, m, seed)
    assert tuple(map(frozenset, b_groups)) == public.phase2_plan.groups, (n, m, seed)
    assert probe_2 == public.phase2_probe, (n, m, seed)
    for size_at, plan in ((size_a, public.phase1_plan), (size_b, public.phase2_plan)):
        assert size_at == plan._size_at == ConnectionPlan(plan.end, plan.groups)._size_at, (n, m, seed, plan.end)
    # The document as `wireid simulate` writes it, with its bound.
    a_rows, b_rows = _rows(range(1, n + 1), rep.t), _sorted_runs(b_groups)
    fields = _transcript_fields(a_rows, size_a, probe_1, b_rows, size_b, probe_2, m)
    text = "".join(document({"schema": TRANSCRIPT_SCHEMA}, fields, True))
    assert mismatch(text, transcript_to_json(public)) is None, (n, m, seed)


def test_construction_fed_phases_match_run_protocol_through_n_300():
    for n in range(1, 301):
        for m in feasible_orders(n):
            for seed in (0, 1, 7):
                assert_construction_fed_phases_match(n, m, seed)


@pytest.mark.slow
def test_construction_fed_phases_match_run_protocol_for_sampled_large_n():
    rng = random.Random(16)
    for _ in range(3):
        n = rng.randrange(10_000, 30_001)
        while not feasible_orders(n):
            n += 1
        for seed in (0, 1, 7):
            assert_construction_fed_phases_match(n, feasible_orders(n)[0], seed)


def relabelled(pair, rng):
    """The pair with its labels permuted at random: still a valid pair, but its labels no longer
    lie in row-major order, so end A's sets are not the construction's row-major side."""
    labels = list(range(1, pair.n + 1))
    rng.shuffle(labels)
    a_sets, b_sets = ([frozenset(labels[x - 1] for x in s) for s in sets] for sets in (pair.a_sets, pair.b_sets))
    return KgPartition(pair.n, a_sets, b_sets)


def assert_protocol_matches_reference_on_relabelled_pairs(n, rng):
    for m in feasible_orders(n):
        for seed in (0, rng.randrange(1, 10_000)):
            pair, cable = relabelled(construct(n, m), rng), make_cable(n, seed)
            transcript, reference = run_protocol(pair, cable), reference_run_protocol(pair, cable)
            assert transcript == reference, (n, m, seed)
            assert (transcript.coords_a, transcript.coords_b) == reference_coordinates(reference), (n, m, seed)
            assert transcript_to_json(transcript) == reference_transcript_to_json(reference), (n, m, seed)


def test_protocol_matches_reference_on_relabelled_pairs_for_small_n():
    rng = random.Random(23)
    for n in range(1, 80):
        assert_protocol_matches_reference_on_relabelled_pairs(n, rng)


@pytest.mark.slow
def test_protocol_matches_reference_on_relabelled_pairs_for_sampled_large_n():
    rng = random.Random(2023)
    for n in rng.sample(range(2_000, 6_001), 2):
        assert_protocol_matches_reference_on_relabelled_pairs(n, rng)


def test_invalid_pair_message_matches_reference():
    bad = KgPartition(3, (frozenset({1, 2, 3}),), (frozenset({1}), frozenset({2}), frozenset({3})))
    messages = set()
    for run in (run_protocol, reference_run_protocol):
        with pytest.raises(ValueError) as excinfo:
            run(bad, make_cable(3, 1))
        messages.add(str(excinfo.value))
    assert len(messages) == 1 and "invalid partition pair" in messages.pop()


def test_the_agreed_grid_stays_linear_in_n_for_pairs_with_a_large_set(monkeypatch):
    # Both sides exactly partition 1..n, but one A-set holds every element, so the cell keys' width is n + 1.
    # No pair of order n exists below n(n + 1)/2 elements: _verdict rejects it without a width² grid.
    n, sizes = 3_000, []
    monkeypatch.setattr(partitions_module, "bytearray", lambda size: sizes.append(size) or bytearray(size),
                        raising=False)
    pair = KgPartition(n, (frozenset(range(1, n + 1)),), tuple(frozenset({x}) for x in range(1, n + 1)))
    with pytest.raises(ValueError) as excinfo:
        run_protocol(pair, make_cable(n, 1))
    assert str(excinfo.value) == "invalid partition pair:\n" + "\n".join(kg_violations(pair))
    assert not kg_violations(construct(21)) and sizes, "the patch sees the grid of a valid pair"
    assert max(sizes) <= 4 * n, sizes


@pytest.mark.parametrize("readings", [
    (1,) * 26,                                    # row 1 gets 26 wires, the scheme has 2
    (2, 2, 3, 3, 3, 1) + (6,) * 20,               # row 1 gets one wire
    tuple(sorted([1, 1] + [2] * 6 + [3] * 3 + [4] * 4 + [5] * 5 + [6] * 6)) + (7,),  # stray size
])
def test_assembly_errors_match_reference(matrix26, readings):
    side = _grid_columns(list(map(bytes, matrix26.rows)))
    messages = []
    # The package raises ProtocolError: run_protocol has validated the pair
    # and the wiring by then, so such readings are an internal fault.
    for assemble, scheme, error in (
        (cable_module._assemble_b_sets, (matrix26.row_sums(), side), ProtocolError),
        (reference_assemble_b_sets, (matrix26,), ValueError),
    ):
        with pytest.raises(error) as excinfo:
            assemble(*scheme, readings)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@given(st.data())
def test_assembly_matches_reference_on_divisible_gapfree_matrices(data):
    """End B's assembly on any index-divisible gap-free matrix, r != c included (run_protocol accepts such
    pairs; construct builds r == c alone), from its rows' readings at shuffled positions, one of them at
    times changed to another size: the reference's groups in canonical order, or its message."""
    m = data.draw(st.integers(1, 7))
    by_total = divisible_gapfree_sums(m)
    sums = by_total[data.draw(st.sampled_from(sorted(by_total)))]
    r, c = data.draw(st.sampled_from(sums)), data.draw(st.sampled_from(sums))
    matrix = construct_matrix(r, c)
    readings = data.draw(st.permutations([j for j, r_j in enumerate(r, start=1) for _ in range(r_j)]))
    if readings and data.draw(st.booleans()):
        readings[data.draw(st.integers(0, len(readings) - 1))] = data.draw(st.integers(0, m + 1))
    readings = tuple(readings)
    side = _grid_columns(list(map(bytes, matrix.rows)))
    try:
        reference = reference_assemble_b_sets(matrix, readings)
    except ValueError as exc:
        with pytest.raises(ProtocolError) as excinfo:
            cable_module._assemble_b_sets(r, side, readings)
        assert str(excinfo.value) == str(exc), (r, c, readings)
        return
    groups, column_of = cable_module._assemble_b_sets(r, side, readings)
    assert tuple(map(frozenset, groups)) == reference_canonical_order(reference), (r, c, readings)
    expected = [0] * (len(readings) + 1)
    for group in reference:
        for wire in group:
            expected[wire] = len(group)
    assert column_of == expected, (r, c, readings)


# ── the single validation pass against kg_violations ─────────────────────

def _mutate(data, pair):
    sides = [[set(s) for s in pair.a_sets], [set(s) for s in pair.b_sets]]
    n = pair.n
    for _ in range(data.draw(st.integers(0, 3))):
        side = sides[data.draw(st.integers(0, 1))]
        target = data.draw(st.integers(0, len(side) - 1))
        kind = data.draw(st.sampled_from(["overlap", "gap", "out_of_range", "move", "relabel"]))
        if kind == "overlap":
            side[target].add(data.draw(st.integers(1, n)))
        elif kind == "gap" and side[target]:
            side[target].discard(data.draw(st.sampled_from(sorted(side[target]))))
        elif kind == "out_of_range":
            side[target].add(data.draw(st.sampled_from([0, -1, -n, n + 1, n + 7])))
        elif kind == "move" and side[target]:
            # A label changing sets keeps both sides partitions but can
            # double a cell.
            label = data.draw(st.sampled_from(sorted(side[target])))
            side[target].discard(label)
            side[data.draw(st.integers(0, len(side) - 1))].add(label)
        elif kind == "relabel":
            # Swapping two labels on one side keeps it a partition and
            # moves both elements to other cells.
            x, y = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
            swap = {x: y, y: x}
            side[:] = [{swap.get(e, e) for e in s} for s in side]
    return KgPartition(n, tuple(map(frozenset, sides[0])), tuple(map(frozenset, sides[1])))


def _check_against_kg_violations(pair):
    # _verdict's rows, as run_protocol reads them: the pair's matrix, or empty when the pair is rejected.
    problems, rows = kg_violations(pair), partitions_module._verdict(pair.n, pair.a_sets, pair.b_sets)[0]
    assert bool(rows) == (not problems), (pair, problems)
    if not problems:
        matrix = partition_to_matrix(pair)
        assert list(map(bytes, rows)) == list(map(bytes, matrix.rows))
        width, keys = _cell_keys(pair.n, pair.a_sets, pair.b_sets)
        keys = list(keys)
        assert [divmod(key, width) for key in sorted(keys)[1:]] == [
            (j, k) for j, row in enumerate(matrix.rows, start=1) for k in compress(range(1, matrix.m + 1), row)
        ]
        for x in range(1, pair.n + 1):
            sizes = [len(s) for side in (pair.a_sets, pair.b_sets) for s in side if x in s]
            assert divmod(keys[x], width) == tuple(sizes)


@given(st.data())
def test_single_pass_rejects_exactly_what_kg_violations_rejects(data):
    n = data.draw(st.integers(1, 40).filter(lambda n: n not in (2, 5, 9)))
    m = data.draw(st.sampled_from(feasible_orders(n)))
    _check_against_kg_violations(_mutate(data, construct(n, m)))


@given(st.data())
def test_single_pass_agrees_on_arbitrary_pairs(data):
    n = data.draw(st.integers(1, 8))
    labels = st.integers(-1, n + 1)
    sides = [
        tuple(frozenset(s) for s in data.draw(st.lists(st.sets(labels, max_size=4), max_size=6)))
        for _ in range(2)
    ]
    _check_against_kg_violations(KgPartition(n, sides[0], sides[1]))


def test_single_pass_rejects_non_integer_labels():
    singleton = (frozenset({"a"}),)
    assert _cell_keys(1, singleton, singleton) is None
    assert kg_violations(KgPartition(1, singleton, singleton))
    # kg_violations compares labels by value and accepts 1.0 for 1; the
    # protocol wants integer positions and says so.
    floats = (frozenset({1.0}),)
    pair = KgPartition(1, floats, floats)
    assert _cell_keys(1, floats, floats) is None and not kg_violations(pair)
    with pytest.raises(ValueError, match="labels must be the integers 1..n"):
        run_protocol(pair, make_cable(1, 0))


# ── guards on the protocol's output ──────────────────────────────────────

def test_coordinate_disagreement_raises(monkeypatch):
    original = cable_module._assemble_b_sets

    def miswired(*args):
        groups, column_of = original(*args)
        return swap_first_and_last(groups), column_of

    monkeypatch.setattr(cable_module, "_assemble_b_sets", miswired)
    with pytest.raises(ProtocolError, match="coordinate mismatch at position"):
        run_protocol(construct(26), make_cable(26, 42))


def test_repeated_coordinates_raise(monkeypatch):
    pair, cable = construct(26), make_cable(26, 0)
    coords = run_protocol(pair, cable).coords_b
    occupied = set(coords)
    # Two wires in different rows and columns whose exchanged columns land
    # on cells that other wires already hold.
    x, y = next(
        (x, y)
        for x in range(1, 27)
        for y in range(1, 27)
        if coords[x - 1][0] != coords[y - 1][0]
        and coords[x - 1][1] != coords[y - 1][1]
        and (coords[x - 1][0], coords[y - 1][1]) in occupied
    )
    original = cable_module._assemble_b_sets

    def exchanged(*args):
        groups, column_of = original(*args)
        swap = {x: y, y: x}
        groups = tuple(frozenset(swap.get(w, w) for w in g) for g in groups)
        column_of = list(column_of)
        column_of[x], column_of[y] = column_of[y], column_of[x]
        return groups, column_of

    monkeypatch.setattr(cable_module, "_assemble_b_sets", exchanged)
    with pytest.raises(ProtocolError, match="unique"):
        run_protocol(pair, cable)


def test_unique_coordinates_off_the_matrix_raise(monkeypatch):
    pair, cable = construct(20, 5), make_cable(20, 0)
    cells = set(run_protocol(pair, cable).coords_a)
    original = cable_module._assemble_b_sets

    def exchanged(*args):
        # Wires 1 and 9 change B-sets, and their columns with them: the ends still agree, and the 20 coordinates
        # still differ, but (1, 3) and (3, 1) are 0-cells of the agreed matrix.
        groups, column_of = original(*args)
        swap = {1: 9, 9: 1}
        groups = tuple([swap.get(w, w) for w in g] for g in groups)
        column_of = list(column_of)
        column_of[1], column_of[9] = column_of[9], column_of[1]
        assert {(1, column_of[1]), (3, column_of[9])}.isdisjoint(cells)
        return groups, column_of

    monkeypatch.setattr(cable_module, "_assemble_b_sets", exchanged)
    with pytest.raises(ProtocolError, match="cells of the agreed matrix"):
        run_protocol(pair, cable)


def test_a_column_past_the_order_raises(monkeypatch):
    pair, cable = construct(20, 5), make_cable(20, 0)
    original = cable_module._assemble_b_sets

    def grown(*args):
        # A wire leaves its B-set of one for the B-set of five, and all six take column 6, past the order:
        # the ends agree, and every coordinate differs, but some lie outside the agreed matrix.
        groups, column_of = original(*args)
        wire = groups[0][0]
        groups = ([], *groups[1:-1], [*groups[-1], wire])
        column_of = list(column_of)
        for w in groups[-1]:
            column_of[w] = 6
        return groups, column_of

    monkeypatch.setattr(cable_module, "_assemble_b_sets", grown)
    with pytest.raises(ProtocolError, match="cells of the agreed matrix"):
        run_protocol(pair, cable)


@pytest.mark.parametrize("end", [cable_module.END_A, cable_module.END_B])
def test_a_corrupted_probe_raises(monkeypatch, end):
    # Two unequal readings exchanged in one probe: opposite end A's plan (phase 1, end B's rows) or opposite end
    # B's (phase 2, end A's columns). The agreement guard reads both halves through the wiring on its own, so it
    # does not take _readings' word for either.
    original = cable_module._readings

    def exchanged(plan_end, size_at, wiring):
        readings = list(original(plan_end, size_at, wiring))
        if plan_end == end:
            other = next(i for i, reading in enumerate(readings) if reading != readings[0])
            readings[0], readings[other] = readings[other], readings[0]
        return tuple(readings)

    monkeypatch.setattr(cable_module, "_readings", exchanged)
    for n, seed in ((26, 42), (26, 0), (2000, 3)):
        with pytest.raises(ProtocolError, match="coordinate mismatch at position [1-9]"):
            run_protocol(construct(n), make_cable(n, seed))


def test_a_corrupted_size_map_in_end_b_assembly_raises(monkeypatch):
    # _assemble_b_sets maps its groups' sizes into column_of, end B's columns; _phases reads phase 2 off the groups'
    # own size map, a second _size_of over the same groups. The two lists are equal unless the assembly is at
    # fault, so the column half of the agreement guard compares them through the wiring: two unequal entries
    # exchanged in the assembly's map alone are a coordinate mismatch. (Phase 2 read off column_of instead would
    # compare the map with itself, and the corrupted columns could still be a bijection onto the 1-cells.)
    original = cable_module._size_of

    def exchanged(sets, n, unit=1):
        size_of = original(sets, n, unit)
        if sys._getframe(1).f_code is cable_module._assemble_b_sets.__code__:
            other = next(x for x in range(2, n + 1) if size_of[x] != size_of[1])
            size_of[1], size_of[other] = size_of[other], size_of[1]
        return size_of

    monkeypatch.setattr(cable_module, "_size_of", exchanged)
    for n, seed in ((26, 42), (26, 0), (2000, 3)):
        with pytest.raises(ProtocolError, match="coordinate mismatch at position [1-9]"):
            run_protocol(construct(n), make_cable(n, seed))


def test_phases_hold_no_n_sized_guard_copies():
    """_phases' traced peak above its inputs at n = 2e5: its outputs (about 61 B a wire) and the ranks and lists
    it frees, but no key list, no copy of a key list through the wiring and no set of keys (221 B a wire)."""
    n = 200_000
    rep, rows = _checked_construction(n, None)
    size_a = [0, *chain.from_iterable(map(repeat, range(1, rep.m + 1), rep.t))]
    wiring = make_cable(n, 3).wiring
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phases = _phases(rows, size_a, wiring)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert len(phases[0]) == n
    assert peak <= 150 * n, peak / n


def test_coordinate_guard_survives_optimized_mode():
    script = textwrap.dedent(
        f"""
        import sys
        from wireid import ProtocolError, cable, construct, make_cable

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        original = cable._assemble_b_sets

        def miswired(*args):
            groups, column_of = original(*args)
            return swap_first_and_last(groups), column_of

        cable._assemble_b_sets = miswired
        try:
            cable.run_protocol(construct(26), make_cable(26, 42))
        except ProtocolError as exc:
            print(exc)
        else:
            sys.exit("no ProtocolError under -O")
        """
    )
    helper = inspect.getsource(swap_first_and_last)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", helper + script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("coordinate mismatch at position")


# ── the document writer against json.dumps ──────────────────────────────

json_scalars = st.integers() | st.text() | st.booleans() | st.none() | st.floats()
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


HEAD = {"schema": 0}


def write(rows, bound=-1, brackets="{}", structured=True):
    """The document of one field "rows", as the writer writes it."""
    return "".join(document(HEAD if structured else "", [("rows", rows, bound, brackets)], structured))


def dumped(value):
    """json.dumps' document of one field "rows" holding value."""
    return json.dumps({**HEAD, "rows": value}, indent=2) + "\n"


@given(json_values, st.text())
def test_writer_matches_json_dumps(value, key):
    """The head is json's to write, and the fields follow it at the same indent."""
    assume(key != "\0rows")
    head = {key: value, "after": [value]}
    assert mismatch("".join(document(head, [], True)), json.dumps(head, indent=2) + "\n") is None
    fields = [("\0rows", IntRuns([1, 2, 3], [(2, 1), (1, 1)]), -1, "{}")]
    expected = json.dumps({**head, "\0rows": [[1, 2], [3]]}, indent=2) + "\n"
    assert mismatch("".join(document(head, fields, True)), expected) is None


@given(st.lists(st.frozensets(st.integers()) | st.sets(st.integers(0, 9), max_size=3)))
def test_writer_writes_sets_as_ascending_lists(sets):
    """Sets reach the writer as _sorted_runs, as partition_to_json and transcript_to_json pass them."""
    expected = dumped([sorted(s) for s in sets])
    assert mismatch(write(_sorted_runs(sets)), expected) is None
    assert mismatch(write(_sorted_runs(tuple(sets)), 9), expected) is None


int_rows = st.lists(
    st.lists(st.integers(-3, 3) | st.integers(2**63, 2**64) | st.integers(), max_size=4).flatmap(
        lambda row: st.sampled_from([list(row), tuple(row), set(row), frozenset(row)])
    ),
    max_size=12,
)


@given(int_rows, st.integers(-1, 3))
def test_writer_matches_json_dumps_on_runs_of_mixed_int_rows(rows, bound):
    """Rows of every kind and mixed lengths, empty rows included, go through the %-operation or, with a
    bound, the tables (a piece with a value past it falls back); each comes out ascending."""
    assert mismatch(write(_sorted_runs(rows), bound), dumped([sorted(row) for row in rows])) is None


@given(st.integers(1, 400).filter(lambda n: feasible_orders(n)).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(feasible_orders(n)), st.randoms(use_true_random=False))
))
def test_partition_json_is_json_dumps_of_plain_lists(case):
    """The construction's pair, and a relabelled copy handed over in shuffled order, as documents."""
    n, m, rng = case
    pair = construct(n, m)
    copy = relabelled(pair, rng)
    a_sets, b_sets = list(copy.a_sets), list(copy.b_sets)
    rng.shuffle(a_sets)
    rng.shuffle(b_sets)
    for partition in (pair, KgPartition(n, a_sets, b_sets)):
        plain = {
            "schema": "kg-partition/1",
            "n": n,
            "a_sets": [sorted(s) for s in partition.a_sets],
            "b_sets": [sorted(s) for s in partition.b_sets],
        }
        assert partition_to_json(partition) == json.dumps(plain, indent=2) + "\n", (n, m)


@given(st.lists(st.tuples(st.integers(-3, 3) | st.integers(2**63, 2**64) | st.integers(), st.integers())),
       st.integers(-1, 3))
def test_writer_writes_int_pairs_as_rows_of_two(pairs, bound):
    firsts, seconds = [a for a, _ in pairs], tuple(b for _, b in pairs)
    assert mismatch(write(_paired_runs(firsts, seconds), bound, "()"), dumped(pairs)) is None
    grid = write(_paired_runs(firsts, seconds), bound, "()", structured=False)
    assert mismatch(grid, "rows: " + " ".join(f"({a},{b})" for a, b in pairs) + "\n") is None


int_runs = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8).flatmap(
    lambda runs: st.tuples(st.just(runs), st.lists(
        st.integers(-3, 3) | st.integers(2**63, 2**64) | st.integers(),
        min_size=sum(size * count for size, count in runs), max_size=sum(size * count for size, count in runs),
    ))
)


def cut(flat, runs):
    """The rows an IntRuns of flat and runs stands for."""
    rows, start = [], 0
    for size, count in runs:
        for _ in range(count):
            rows.append(flat[start : start + size])
            start += size
    return rows


@given(int_runs)
def test_int_runs_writer_writes_each_row_by_its_template(case):
    """Runs of any size and count, empty rows and empty runs included, as sets and as pairs in the grid and
    as lists in JSON."""
    runs, flat = case
    rows = cut(flat, runs)
    for brackets in ("{}", "()"):
        expected = "rows: " + " ".join(brackets[0] + ",".join(map(str, row)) + brackets[1] for row in rows) + "\n"
        assert mismatch(write(IntRuns(flat, runs), -1, brackets, structured=False), expected) is None
        assert mismatch(write(IntRuns(tuple(flat), tuple(runs)), -1, brackets, structured=False), expected) is None
    assert mismatch(write(IntRuns(flat, runs)), dumped(rows)) is None


@pytest.mark.parametrize("flat, runs", [([1, 2, 3], [(1, 2)]), ([1], [(1, 2)]), ([], [(1, 1)]), ([1], [])])
def test_int_runs_writer_rejects_runs_that_miss_the_flat_list(flat, runs):
    # The cutter shares the writer's check, in either format, before the field's first byte.
    for structured in (False, True):
        pieces = document(HEAD if structured else "", [("rows", IntRuns(flat, runs), -1, "{}")], structured)
        next(pieces)  # the head
        with pytest.raises(ValueError, match="the runs take"):
            next(pieces)
    with pytest.raises(ValueError, match="the runs take"):
        _sets(IntRuns(flat, runs))


@pytest.mark.parametrize("value", [b"ab", (x for x in (2, 1)), bytearray(b"ab"), {1}])
def test_writer_raises_like_json_dumps_on_what_json_cannot_write(value):
    # Only what the caller passes as a field is written as rows; json.dumps meets the head.
    with pytest.raises(TypeError, match="is not JSON serializable"):
        "".join(document({"a": value}, [], True))


def test_writer_keeps_bools_off_the_row_template():
    # %d would write True as 1; json writes true. Rows with bools belong in the head, which is json's.
    head = {"rows": [[1, 2], [True, 0], (False,), [3]], "flat": [True, 0]}
    assert "".join(document(head, [], True)) == json.dumps(head, indent=2) + "\n"

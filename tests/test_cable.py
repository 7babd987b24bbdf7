import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from oracles import transcript_from_json
from reference_protocol import reference_coordinates, reference_probe
from wireid.cable import (
    END_A,
    END_B,
    CableInstance,
    ConnectionPlan,
    ProtocolTranscript,
    make_cable,
    probe,
    run_protocol,
    transcript_to_json,
)
from wireid import cable as cable_module, partitions
from wireid.cli import MAX_N
from wireid.partitions import KgPartition, construct, feasible_orders, kg_violations, matrix_to_partition


# ── cables ───────────────────────────────────────────────────────────────

def test_seed_zero_is_identity():
    assert make_cable(3, 0).wiring == (1, 2, 3)


def test_single_wire():
    assert make_cable(1, 7).wiring == (1,)


def test_seeded_wiring_is_reproducible():
    assert make_cable(26, 42) == make_cable(26, 42)
    assert make_cable(26, 42).wiring != make_cable(26, 43).wiring


def test_seeded_wirings_are_pinned():
    assert make_cable(10, 42).wiring == (8, 4, 3, 9, 6, 7, 10, 5, 1, 2)
    assert make_cable(10, 1).wiring == (7, 9, 10, 8, 6, 4, 1, 5, 2, 3)


@pytest.mark.parametrize("seed", [-1, -42])
def test_negative_seeds_are_rejected(seed):
    # random.Random(-42) would reproduce the wiring of seed 42.
    with pytest.raises(ValueError, match="non-negative"):
        make_cable(20, seed)


def test_cable_validation():
    with pytest.raises(ValueError):
        make_cable(0, 1)
    with pytest.raises(ValueError):
        CableInstance(3, (1, 1, 2), seed=0)
    with pytest.raises(ValueError):
        CableInstance(2, (2, "a"), 0)


@given(st.integers(1, 40), st.integers(0, 5000))
def test_wiring_is_always_a_bijection(n, seed):
    cable = make_cable(n, seed)
    assert sorted(cable.wiring) == list(range(1, n + 1))
    assert cable == make_cable(n, seed)


def shuffled(n, seed):
    """The oracle for a seeded wiring: random.shuffle of the positions 1..n."""
    positions = list(range(1, n + 1))
    random.Random(seed).shuffle(positions)
    return tuple(positions)


ORACLE_SEEDS = (1, 2, 42, 2**31 - 1, 2**100 + 7)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_wiring_is_random_shuffle_for_every_small_n(seed):
    # make_cable reads the generator's words in bulk, not through random.shuffle; every n <= 1000
    # covers each change of the draw's bit count below 2**10 on every supported Python.
    for n in range(1, 1001):
        assert make_cable(n, seed).wiring == shuffled(n, seed), n


@pytest.mark.parametrize("seed", [7, 2**100 + 7])
def test_wiring_is_random_shuffle_around_powers_of_two(seed):
    # Each 2**k moves the draw's bit count; past 2**16 it needs a second chunk of words.
    for n in (2**k + d for k in range(1, 18) for d in (-1, 0, 1)):
        assert make_cable(n, seed).wiring == shuffled(n, seed), n


def test_the_draw_holds_a_bounded_chunk_of_words(monkeypatch):
    """make_cable asks the generator for at most 2**16 words at a time (here in several full chunks), and
    for as many words in all as random.shuffle reads one at a time."""
    requests = []

    class Spy(random.Random):
        def getrandbits(self, k):
            requests.append(k)
            return super().getrandbits(k)

    n, seed = 2 * 10**5, 3
    monkeypatch.setattr(random, "Random", Spy)
    wiring = make_cable(n, seed).wiring
    bulk = requests[:]
    requests.clear()
    assert wiring == shuffled(n, seed)
    assert max(bulk) == 32 * 2**16 and bulk.count(max(bulk)) >= 3 and all(k % 32 == 0 for k in bulk)
    assert sum(bulk) // 32 == len(requests) <= 2 * n + 2**16


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 3, 2**31 - 1])
def test_wiring_is_random_shuffle_at_max_n(seed):
    assert make_cable(MAX_N, seed).wiring == shuffled(MAX_N, seed)


@pytest.mark.slow
def test_wiring_at_max_n_is_pinned():
    wiring = make_cable(MAX_N, 3).wiring
    digest = hashlib.sha256(" ".join(map(str, wiring)).encode()).hexdigest()
    assert digest == "f01bfecfd2d8788c87993ae14e1f2f5db079091b739da6f4fa7bf0ce102327c4"


def _check_one_wiring_rule(values, n):
    """CableInstance and probe both accept exactly the ints 1..n in some order, no bools."""
    expected = all(type(v) is int for v in values) and sorted(values) == list(range(1, n + 1))
    plan = ConnectionPlan(END_A, tuple(frozenset({i}) for i in range(1, n + 1)))
    for build in (lambda: CableInstance(n, values, 0), lambda: probe(plan, values, END_B)):
        try:
            build()
        except ValueError:
            assert not expected, values
        else:
            assert expected, values


@given(st.lists(st.integers(-2, 8) | st.sampled_from([1.0, 2.0, True, 2.5]), max_size=8), st.integers(1, 7))
def test_cable_and_probe_accept_the_same_wirings(values, n):
    _check_one_wiring_rule(values, n)


@pytest.mark.parametrize("values", [(-1, 1), (0, 1), (1, 3), (2, 2), (1.0, 2), (True, 2.0)])
def test_bijection_check_on_wrapping_and_non_int_positions(values):
    # -1 would mark position 2 through negative indexing; 1.0 and 2.0 only
    # equal positions.
    _check_one_wiring_rule(values, 2)


# ── plans and probes ─────────────────────────────────────────────────────

def test_plan_validation():
    with pytest.raises(ValueError):
        ConnectionPlan("C", (frozenset({1}),))
    with pytest.raises(ValueError):
        ConnectionPlan(END_A, (frozenset({1}), frozenset({3})))  # misses 2
    with pytest.raises(ValueError):
        ConnectionPlan(END_A, (frozenset({1, 2}), frozenset({2})))
    with pytest.raises(ValueError):
        ConnectionPlan(END_A, (frozenset({1, "a"}),))
    with pytest.raises(ValueError, match="cover positions 1..n"):
        ConnectionPlan(END_A, (frozenset({1.0}), frozenset({2, 3})))  # 1.0 only equals a position
    # An empty group adds no position, and a plan may be empty.
    for groups in ((frozenset(), frozenset({1})), ()):
        assert ConnectionPlan(END_A, groups).groups == groups


def test_cable_rejects_a_bool_position():
    # True equals position 1, but positions are the ints 1..n.
    with pytest.raises(ValueError, match="bijection on positions 1..n"):
        CableInstance(2, (2, True), 0)


def test_plan_rejects_a_bool_position():
    with pytest.raises(ValueError, match="cover positions 1..n"):
        ConnectionPlan(END_A, (frozenset({True}), frozenset({2})))


def test_probe_rejects_a_bool_position():
    plan = ConnectionPlan(END_A, (frozenset({1}), frozenset({2})))
    with pytest.raises(ValueError, match="the ints 1..n"):
        probe(plan, (2, True), END_B)


def test_probe_all_singletons():
    plan = ConnectionPlan(END_A, tuple(frozenset({i}) for i in range(1, 5)))
    assert probe(plan, make_cable(4, 3).wiring, END_B) == (1, 1, 1, 1)


def test_probe_single_group():
    plan = ConnectionPlan(END_A, (frozenset(range(1, 6)),))
    assert probe(plan, make_cable(5, 9).wiring, END_B) == (5, 5, 5, 5, 5)


def test_probe_requires_opposite_end():
    plan = ConnectionPlan(END_A, (frozenset({1}),))
    with pytest.raises(ValueError, match="opposite end"):
        probe(plan, (1,), END_A)
    with pytest.raises(ValueError):
        probe(plan, (1,), "C")


def test_probe_size_mismatch():
    plan = ConnectionPlan(END_A, (frozenset({1}),))
    with pytest.raises(ValueError):
        probe(plan, (1, 2), END_B)


@pytest.mark.parametrize("queried_end", [END_A, END_B])
@pytest.mark.parametrize("groups, wiring", [
    ((frozenset({1}), frozenset({2, 3})), (1, 1, 3)),  # read (1,1,2) at A and (2,0,2) at B
    ((frozenset({1}), frozenset({2, 3})), (-1, 2, 3)),  # -1 indexes the last position
    ((frozenset({1}), frozenset({2, 3})), (1, 2, 2.0)),
    ((frozenset({1}), frozenset({2, 3})), (1.0, 2, 3)),
    ((frozenset({1.0}), frozenset({2, 3})), (1, 2, 3)),  # the plan itself is rejected
])
def test_probe_rejects_positions_other_than_the_ints_1_to_n(groups, wiring, queried_end):
    plan_end = END_B if queried_end == END_A else END_A
    if not all(isinstance(x, int) for g in groups for x in g):
        with pytest.raises(ValueError, match="cover positions 1..n"):
            ConnectionPlan(plan_end, groups)
        return
    with pytest.raises(ValueError, match="the ints 1..n"):
        probe(ConnectionPlan(plan_end, groups), wiring, queried_end)


def test_worked_group_sizes_reach_the_far_end(matrix26):
    pair = matrix_to_partition(matrix26, range(1, 27))
    plan = ConnectionPlan(END_A, pair.a_sets)
    expected = sorted(len(g) for g in plan.groups for _ in g)
    for seed in (0, 5, 11):
        readings = probe(plan, make_cable(26, seed).wiring, END_B)
        assert sorted(readings) == expected


def _grouping(draw_labels):
    groups = {}
    for pos, label in enumerate(draw_labels, start=1):
        groups.setdefault(label, set()).add(pos)
    return tuple(frozenset(g) for g in groups.values())


@given(st.data())
def test_probe_multiset_is_wiring_invariant(data):
    n = data.draw(st.integers(1, 12))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    plan = ConnectionPlan(END_A, _grouping(labels))
    wiring = tuple(data.draw(st.permutations(range(1, n + 1))))
    readings = probe(plan, wiring, END_B)
    assert sorted(readings) == sorted(len(g) for g in plan.groups for _ in g)


@given(st.data())
def test_probe_is_invariant_under_within_group_relabeling(data):
    n = data.draw(st.integers(1, 10))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    plan = ConnectionPlan(END_A, _grouping(labels))
    wiring = tuple(data.draw(st.permutations(range(1, n + 1))))
    # A permutation mapping every plan group onto itself must not change
    # any reading: component size depends only on the grouping.
    sigma = {}
    for group in plan.groups:
        members = sorted(group)
        sigma.update(zip(members, data.draw(st.permutations(members))))
    relabeled = tuple(wiring[sigma[a] - 1] for a in range(1, n + 1))
    assert probe(plan, relabeled, END_B) == probe(plan, wiring, END_B)


def _draw_plan(data, n, end):
    """A plan at end over positions 1..n, with up to two empty groups."""
    labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return ConnectionPlan(end, _grouping(labels) + (frozenset(),) * data.draw(st.integers(0, 2)))


@given(st.data())
def test_probe_and_coordinates_read_the_plans_size_maps_as_the_reference_does(data):
    """Each plan keeps the size map of its one structure check; probe and the
    transcript's derived coordinates read it. n = 0 draws the empty plan."""
    n = data.draw(st.integers(0, 12))
    wiring = tuple(data.draw(st.permutations(range(1, n + 1))))
    plan_a, plan_b = _draw_plan(data, n, END_A), _draw_plan(data, n, END_B)
    assert plan_a.n == plan_b.n == n
    probe_b, probe_a = probe(plan_a, wiring, END_B), probe(plan_b, wiring, END_A)
    assert probe_b == reference_probe(plan_a, wiring, END_B)
    assert probe_a == reference_probe(plan_b, wiring, END_A)
    transcript = ProtocolTranscript(plan_a, probe_b, plan_b, probe_a)
    assert (transcript.coords_a, transcript.coords_b) == reference_coordinates(transcript)


# ── the identification protocol ──────────────────────────────────────────

def test_protocol_single_wire():
    transcript = run_protocol(construct(1), make_cable(1, 0))
    assert transcript.coords_a == ((1, 1),)
    assert transcript.coords_b == ((1, 1),)


def test_protocol_reproduces_worked_narrative(matrix26):
    pair = matrix_to_partition(matrix26, range(1, 27))
    transcript = run_protocol(pair, make_cable(26, 0))
    # With identity wiring, end B's canonical reassembly lands exactly on
    # the pair's own B-sets.
    assert set(transcript.phase2_plan.groups) == set(pair.b_sets)
    # Every wire's coordinates are its label's cell in the matrix.
    expected = []
    for i in range(6):
        for j in range(6):
            if matrix26.rows[i][j]:
                expected.append((i + 1, j + 1))
    assert transcript.coords_a == tuple(expected)
    assert transcript.coords_b == tuple(expected)


def test_protocol_consistency_through_hidden_wiring(matrix26):
    pair = matrix_to_partition(matrix26, range(1, 27))
    cable = make_cable(26, 42)
    transcript = run_protocol(pair, cable)
    for a in range(1, 27):
        assert transcript.coords_b[cable.wiring[a - 1] - 1] == transcript.coords_a[a - 1]
    assert len(set(transcript.coords_a)) == 26


def test_protocol_sweep():
    for n in range(1, 121):
        for m in feasible_orders(n):
            pair = construct(n, m)
            for seed in (0, 1, 2):
                cable = make_cable(n, seed)
                transcript = run_protocol(pair, cable)
                for a in range(1, n + 1):
                    b = cable.wiring[a - 1]
                    assert transcript.coords_b[b - 1] == transcript.coords_a[a - 1]
                assert len(set(transcript.coords_a)) == n


def test_protocol_checks_the_wiring_only_when_the_cable_is_built(monkeypatch):
    cable, pair = make_cable(26, 3), construct(26)
    checked = []
    original = partitions._side_sizes

    def counting(sets, n, *rest):
        checked.extend(map(tuple, sets))
        return original(sets, n, *rest)

    monkeypatch.setattr(partitions, "_side_sizes", counting)
    monkeypatch.setattr(cable_module, "_side_sizes", counting)
    run_protocol(pair, cable)
    assert checked and cable.wiring not in checked


def test_protocol_rejects_size_mismatch():
    with pytest.raises(ValueError, match="wires"):
        run_protocol(construct(4), make_cable(3, 0))


def test_protocol_rejects_invalid_pair():
    singletons = (frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError, match="invalid partition"):
        run_protocol(KgPartition(2, singletons, singletons), make_cable(2, 0))


@pytest.mark.parametrize("a_sets, b_sets", [
    (({True},), ({True},)), (({1},), ({True},)), (({True},), ({1},)),
    ([{1.0 if x == 1 else x for x in s} for s in construct(26).a_sets], construct(26).b_sets),  # 1.0 for 1
])
def test_protocol_rejects_bool_labels(a_sets, b_sets):
    pair = KgPartition(sum(map(len, a_sets)), a_sets, b_sets)
    assert kg_violations(pair) == []  # it judges labels by value, and True == 1 == 1.0
    with pytest.raises(ValueError, match="invalid partition pair:\nlabels must be the integers 1..n"):
        run_protocol(pair, make_cable(pair.n, 0))


# ── transcript serialization ─────────────────────────────────────────────

def test_transcript_json_round_trip():
    transcript = run_protocol(construct(12), make_cable(12, 5))
    assert transcript_from_json(transcript_to_json(transcript)) == transcript


transcript_fields = ("phase1_plan", "phase1_probe", "phase2_plan", "phase2_probe", "coords_a", "coords_b")
transcript_documents = st.fixed_dictionaries(
    {"schema": st.just("cable-transcript/1")},
    optional={field: json_values for field in transcript_fields},
)


@given(st.text() | json_values.map(json.dumps) | transcript_documents.map(json.dumps))
def test_transcript_from_json_fuzz_raises_only_value_error(text):
    try:
        transcript_from_json(text)
    except ValueError:
        pass


def test_transcript_from_json_rejects_deep_nesting():
    with pytest.raises(ValueError, match="not valid JSON"):
        transcript_from_json("[" * 100_000)


def test_transcript_from_json_rejects_coordinates_the_transcript_does_not_give():
    document = json.loads(transcript_to_json(run_protocol(construct(12), make_cable(12, 5))))
    for name in ("coords_a", "coords_b"):
        tampered = dict(document, **{name: document[name][1:] + document[name][:1]})
        with pytest.raises(ValueError, match=f"{name} differ"):
            transcript_from_json(json.dumps(tampered))


def test_transcript_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        transcript_from_json("not json")
    with pytest.raises(ValueError, match="schema|document"):
        transcript_from_json('{"schema": "bogus/1"}')

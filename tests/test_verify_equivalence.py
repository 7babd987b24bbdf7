"""kg_violations against the version it replaced (tests/reference_verify.py):
the same message list, in the same order and wording, on every input."""

import ast
import gc
import inspect
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_verify import reference_kg_violations
import wireid
from wireid import matrices, partitions
from wireid.partitions import KgPartition, construct, feasible_orders, kg_violations


def _same_messages(pair):
    messages = kg_violations(pair)
    assert messages == reference_kg_violations(pair), pair
    return messages


def _relabelled(pair, rng):
    perm = list(range(1, pair.n + 1))
    rng.shuffle(perm)
    relabel = [0] + perm
    return KgPartition(
        pair.n,
        tuple(frozenset(relabel[x] for x in s) for s in pair.a_sets),
        tuple(frozenset(relabel[x] for x in s) for s in pair.b_sets),
    )


def _invalidating_swap(pair):
    """The pair with two A-side labels exchanged so that one cell is doubled,
    or None if no such exchange exists.

    x in cell (j, k) and y in cell (j2, k2) with j2 != j and k2 != k trade
    A-sets; x lands in (j2, k), which a third element already holds.
    """
    cell = {}
    for side, index in ((pair.a_sets, 0), (pair.b_sets, 1)):
        for s in side:
            for x in s:
                cell.setdefault(x, [0, 0])[index] = len(s)
    occupied = {tuple(c) for c in cell.values()}
    for x in range(1, pair.n + 1):
        j, k = cell[x]
        for y in range(1, pair.n + 1):
            j2, k2 = cell[y]
            if j2 != j and k2 != k and (j2, k) in occupied:
                swap = {x: y, y: x}
                a_sets = tuple(frozenset(swap.get(e, e) for e in s) for s in pair.a_sets)
                return KgPartition(pair.n, a_sets, pair.b_sets)
    return None


def _check_constructed(pair, rng):
    assert _same_messages(pair) == []
    assert _same_messages(_relabelled(pair, rng)) == []
    swapped = _invalidating_swap(pair)
    if swapped is not None:
        assert any(m.startswith("cell (") for m in _same_messages(swapped))
    return swapped is not None


def test_matches_reference_for_every_small_order():
    rng = random.Random(4)
    without_swap = [
        (n, m)
        for n in range(1, 121)
        for m in feasible_orders(n)
        if not _check_constructed(construct(n, m), rng)
    ]
    assert without_swap == [(1, 1)]  # a single element has no one to swap with


@pytest.mark.slow
def test_matches_reference_for_sampled_large_n():
    rng = random.Random(20261)
    for _ in range(10):
        n = rng.randrange(20_000, 100_001)
        while not feasible_orders(n):
            n += 1
        assert _check_constructed(construct(n), rng), n


# ── hypothesis: mutated and arbitrary pairs with mixed label types ───────

def _mutate(data, pair):
    sides = [[set(s) for s in pair.a_sets], [set(s) for s in pair.b_sets]]
    n = pair.n
    for _ in range(data.draw(st.integers(0, 4))):
        side = sides[data.draw(st.integers(0, 1))]
        target = data.draw(st.integers(0, len(side) - 1))
        kind = data.draw(st.sampled_from(
            ["overlap", "gap", "out_of_range", "move", "relabel", "empty", "float", "bool", "str"]
        ))
        if kind == "overlap":
            side[target].add(data.draw(st.integers(1, n)))
        elif kind == "gap" and side[target]:
            side[target].discard(data.draw(st.sampled_from(sorted(side[target], key=repr))))
        elif kind == "out_of_range":
            side[target].add(data.draw(st.sampled_from([0, -1, -n, n + 1, n + 7, 0.5, n + 0.5])))
        elif kind == "move" and side[target]:
            label = data.draw(st.sampled_from(sorted(side[target], key=repr)))
            side[target].discard(label)
            side[data.draw(st.integers(0, len(side) - 1))].add(label)
        elif kind == "relabel":
            x, y = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
            swap = {x: y, y: x}
            side[:] = [{swap.get(e, e) for e in s} for s in side]
        elif kind == "empty":
            side.insert(target, set())
        elif kind in ("float", "bool"):
            # Same value, other type: 3 -> 3.0, 1 -> True, 0 -> False.
            x = data.draw(st.integers(0 if kind == "bool" else 1, 1 if kind == "bool" else n))
            convert = float if kind == "float" else bool
            side[:] = [{convert(e) if e == x and type(e) is int else e for e in s} for s in side]
            if x == 0:
                side[target].add(False)
        elif kind == "str":
            side[target].add(str(data.draw(st.integers(1, n))))
    return KgPartition(n, tuple(map(frozenset, sides[0])), tuple(map(frozenset, sides[1])))


@given(st.data())
def test_matches_reference_on_mutated_pairs(data):
    n = data.draw(st.integers(1, 40).filter(lambda n: n not in (2, 5, 9)))
    m = data.draw(st.sampled_from(feasible_orders(n)))
    _same_messages(_mutate(data, construct(n, m)))


labels = (
    st.integers(-1, 9)
    | st.sampled_from([1.0, 2.0, True, False, 0.0, "1", "a"])
    | st.floats(allow_nan=True)
    | st.text(max_size=2)
)


@given(st.integers(1, 8), st.lists(st.sets(labels, max_size=4), max_size=6),
       st.lists(st.sets(labels, max_size=4), max_size=6))
def test_matches_reference_on_arbitrary_pairs(n, a_sets, b_sets):
    _same_messages(KgPartition(n, tuple(map(frozenset, a_sets)), tuple(map(frozenset, b_sets))))


@given(st.data())
def test_matches_reference_on_value_equal_non_int_labels(data):
    # Valid and doubled-cell pairs whose labels are 1.0, True and the like:
    # both versions compare them by value and name the int elements.
    n = data.draw(st.integers(1, 30).filter(lambda n: n not in (2, 5, 9)))
    pair = construct(n, data.draw(st.sampled_from(feasible_orders(n))))
    pair = _invalidating_swap(pair) if data.draw(st.booleans()) and n > 3 else pair
    floats = data.draw(st.sets(st.integers(1, n)))
    use_true = data.draw(st.booleans())

    def convert(s):
        return frozenset(True if x == 1 and use_true else float(x) if x in floats else x for x in s)

    _same_messages(KgPartition(n, tuple(map(convert, pair.a_sets)), pair.b_sets))


# ── the verdict on parsed lists: partitions._verdict ────────────────────

int_edit = st.tuples(st.integers(0, 1), st.integers(0, 99), st.lists(st.integers(-1, 40), max_size=3), st.booleans())


@given(st.data())
def test_verdict_words_int_lists_in_any_set_order_as_the_reference_does(data):
    # verify hands _verdict the parsed lists: in any order, and a label may repeat within a list.
    n = data.draw(st.integers(1, 30).filter(lambda n: n not in (2, 5, 9)))
    pair = construct(n, data.draw(st.sampled_from(feasible_orders(n))))
    sides = [[sorted(s) for s in side] for side in (pair.a_sets, pair.b_sets)]
    for index, target, labels, replace in data.draw(st.lists(int_edit, max_size=3)):
        side = sides[index]
        target %= len(side)
        side[target] = labels if replace else side[target] + labels
    a_sets, b_sets = (data.draw(st.permutations(side)) for side in sides)
    rows, messages = partitions._verdict(n, a_sets, b_sets)
    pair = KgPartition(n, a_sets, b_sets)
    assert messages == reference_kg_violations(pair)
    assert len(rows) == (0 if messages else pair.order)


def test_verdict_builds_no_key_list_or_key_set_for_a_valid_pair():
    """_verdict's traced peak above its inputs on a valid pair at n = 2e5, relabelled and its sets shuffled: its
    two size maps (8 B an element each) and the grid, but no list or set of the cell keys (about 100 B an element)."""
    n, rng = 200_000, random.Random(7)
    pair = _relabelled(construct(n), rng)
    a_sets, b_sets = list(pair.a_sets), list(pair.b_sets)
    rng.shuffle(a_sets)
    rng.shuffle(b_sets)
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows, messages = partitions._verdict(n, a_sets, b_sets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert messages == [] and len(rows) == pair.order
    assert peak <= 40 * n, peak / n


# ── the shared structure check: partitions._side_sizes ──────────────────

def _check_side_sizes(pair):
    """_side_sizes gives a list exactly when the reference finds nothing wrong
    with that side and all its labels are ints (bools are ints), and the list
    is the size of the set holding each element, read off directly."""
    reference = reference_kg_violations(pair)
    for name, sets in (("A", pair.a_sets), ("B", pair.b_sets)):
        sizes = partitions._side_sizes(sets, pair.n)
        exact = not any(message.startswith(f"{name}-sets") for message in reference)
        ints = all(isinstance(x, int) for s in sets for x in s)
        assert (sizes is not None) == (exact and ints), (name, sets, reference)
        if sizes is not None:
            size = {x: len(s) for s in sets for x in s}
            assert sizes == [0] + [size[x] for x in range(1, pair.n + 1)]


@given(st.data())
def test_side_sizes_matches_reference_structure_on_mutated_pairs(data):
    n = data.draw(st.integers(1, 40).filter(lambda n: n not in (2, 5, 9)))
    m = data.draw(st.sampled_from(feasible_orders(n)))
    _check_side_sizes(_mutate(data, construct(n, m)))


@given(st.integers(1, 8), st.lists(st.sets(labels, max_size=4), max_size=6),
       st.lists(st.sets(labels, max_size=4), max_size=6))
def test_side_sizes_matches_reference_structure_on_arbitrary_pairs(n, a_sets, b_sets):
    pair = KgPartition(n, tuple(map(frozenset, a_sets)), tuple(map(frozenset, b_sets)))
    _check_side_sizes(pair)


def test_a_judgement_makes_one_structure_pass_per_side(monkeypatch):
    # A crowded pair is worded from the two size maps that judged it; value-equal float labels
    # cost one pass per side to fail and one more per side on their int images.
    calls = []
    original = partitions._side_sizes

    def counting(sets, n, *rest):
        calls.append(n)
        return original(sets, n, *rest)

    monkeypatch.setattr(partitions, "_side_sizes", counting)
    valid = construct(26)
    swap = {2: 7, 7: 2}  # the first labels of the A-sets {2} and {7, 8}
    crowded = KgPartition(26, tuple(frozenset(swap.get(x, x) for x in s) for s in valid.a_sets), valid.b_sets)
    floats = KgPartition(26, *([frozenset(map(float, s)) for s in side] for side in (crowded.a_sets, crowded.b_sets)))
    for pair, passes, messages in ((valid, 2, []), (crowded, 2, ["cell (1,1) holds 2 elements: [1, 7]"]),
                                   (floats, 4, ["cell (1,1) holds 2 elements: [1, 7]"])):
        calls.clear()
        assert kg_violations(pair) == reference_kg_violations(pair) == messages
        assert len(calls) == passes, pair


BOUNDARY_N = 12


@pytest.mark.parametrize("side", ["a_sets", "b_sets"])
@pytest.mark.parametrize("old, new, scheme_accepts", [
    (BOUNDARY_N, -1, False),  # writes slot n, so every slot 1..n is written
    (1, -(BOUNDARY_N + 1), False),  # writes slot 0 in place of slot 1
    (1, 0, False),
    (1, BOUNDARY_N + 1, False),
    (1, True, True),
    (1, 1.0, False),
])
def test_boundary_labels_with_n_labels_in_all(side, old, new, scheme_accepts):
    # A valid pair with one label replaced: the label count stays n, so the
    # count check passes and only the guard named in each case can reject.
    pair = construct(BOUNDARY_N)
    sets = tuple(frozenset(new if x == old else x for x in s) for s in getattr(pair, side))
    assert sum(map(len, sets)) == BOUNDARY_N
    pair = KgPartition(n=pair.n, **{"a_sets": pair.a_sets, "b_sets": pair.b_sets, side: sets})
    assert (_same_messages(pair) == []) == (new == old)  # True and 1.0 stand for 1
    size_a, size_b = (partitions._side_sizes(sets, pair.n) for sets in (pair.a_sets, pair.b_sets))
    accepted = size_a is not None and size_b is not None and len(set(zip(size_a, size_b))) == BOUNDARY_N + 1
    assert accepted == scheme_accepts


def test_oracle_stays_independent_of_the_matrix_layer():
    source = "".join(
        map(inspect.getsource,
            (kg_violations, partitions._verdict, partitions._key_rows, partitions._crowded_cells,
             partitions._side_sizes, partitions._size_of))
    )
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    matrix_layer = {"matrices", "_rows", "_sets", "_grid_columns", "_b_table", "matrix_to_partition",
                    "BinaryMatrix", "construct_matrix"}
    # The module name itself is listed: a call such as matrices.construct_matrix(...) shows up as its Name.
    assert all(any(hasattr(where, name) for where in (wireid, partitions, matrices)) for name in matrix_layer)
    assert not names & matrix_layer

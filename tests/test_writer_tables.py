"""format_int_runs' tables and ranges: with a bound, runs of small ints are
written by lookups in tables of 0..bound instead of one %-operation per run,
rows cut from a range of positive ints are slices of one text of its labels,
and every byte must stay what the %-operation writes. The oracle writes each
row by its own template, ``template(size) % tuple(row)``, and joins the rows
by sep."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wireid import cli
from wireid._jsonout import IntRuns, _row_template, dict_pieces, format_int_runs
from wireid.cable import ConnectionPlan, ProtocolTranscript, transcript_to_json
from wireid.partitions import _checked_construction, _rows

# Every template the package writes ints with: JSON rows at the two indents
# the documents use, the grid's sets and coordinates, and the grid's probes.
TEMPLATES = {
    "json field": _row_template("\n  "),
    "json row": _row_template("\n    "),
    "braces": cli._braces,
    "parens": cli._parens,
    "bare": cli._bare,
}
SEPS = (" ", "", ",\n  ", ",\n    ")


def cut(flat, runs):
    rows, start = [], 0
    for size, count in runs:
        for _ in range(count):
            rows.append(flat[start : start + size])
            start += size
    return rows


def oracle(rows, template, sep):
    return sep.join(template(len(row)) % tuple(row) for row in rows)


def mismatch(text, expected):
    """None if the texts are equal, else where they first differ: pytest's diff of two long texts is quadratic,
    and Hypothesis fails a test many times while it shrinks an example."""
    if text == expected:
        return None
    at = next((i for i, (x, y) in enumerate(zip(text, expected)) if x != y), min(len(text), len(expected)))
    return at, text[at - 20 : at + 20], expected[at - 20 : at + 20]


@st.composite
def bounded_rows(draw):
    """(bound, runs, flat): runs of rows of 0 to 3 ints, or one long row, with
    values in 0..bound (both ends drawn often) and, in some draws, values the
    tables miss: -1, bound + 1, True (a hit: %d writes it as 1) and 2.5."""
    bound = draw(st.integers(0, 300))
    runs = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=4)
        | st.integers(1, 400).map(lambda size: [(size, 1)])
    )
    inside = st.sampled_from([0, bound]) | st.integers(0, bound)
    values = inside | st.sampled_from([-1, bound + 1, True, 2.5]) if draw(st.booleans()) else inside
    flat = draw(st.lists(values, min_size=sum(size * count for size, count in runs),
                         max_size=sum(size * count for size, count in runs)))
    return bound, runs, flat


@given(bounded_rows(), st.sampled_from(sorted(TEMPLATES)), st.sampled_from(SEPS))
def test_tables_write_what_the_templates_write(case, name, sep):
    bound, runs, flat = case
    template = TEMPLATES[name]
    expected = oracle(cut(flat, runs), template, sep)
    assert format_int_runs(IntRuns(flat, runs), template, sep, bound) == expected
    assert format_int_runs(IntRuns(tuple(flat), runs), template, sep, bound) == expected
    assert format_int_runs(IntRuns(flat, runs), template, sep) == expected  # no bound: the %-operation alone


@given(bounded_rows())
def test_bounded_dict_fields_match_json_dumps(case):
    bound, runs, flat = case
    rows = cut(flat, runs)
    payload = {"rows": IntRuns(flat, runs), "flat": flat, "plain": IntRuns(flat, runs)}
    # IntRuns rows go through %d, which writes True as 1 and 2.5 as 2. A flat list is bounded only
    # when its caller vouches that it holds ints alone: one with a bool or a float in it goes under
    # a key that is not bounded, and is json's to write.
    as_ints = [[int(value) for value in row] for row in rows]
    expected = {"rows": as_ints, "flat": flat, "plain": as_ints}
    bounds = {"rows": bound, "flat": bound} if set(map(type, flat)) <= {int} else {"rows": bound}
    text = "".join(dict_pieces(payload.items(), bounds))
    assert text == json.dumps(expected, indent=2)


def test_in_bound_values_are_looked_up_not_formatted():
    # The tables take the template's pieces from its row of two; only the %-operation asks for the
    # row's own size.
    asked = []

    def template(size):
        asked.append(size)
        return cli._bare(size)

    assert format_int_runs(IntRuns([3, 0, 5, 5, 1], [(5, 1)]), template, "", 5) == "3,0,5,5,1"
    assert asked == [2]
    assert format_int_runs(IntRuns([3, 0, 6, 5, 1], [(5, 1)]), template, "", 5) == "3,0,6,5,1"
    assert asked == [2, 2, 5]


@st.composite
def range_rows(draw):
    """(flat, runs): a step-1 range starting near 1, 9, 99, ..., 999,999, so that rows cross a digit count and
    thousands, cut into runs of rows of 1 to 4 ints or one long run. Now and then the range starts at 0 or below
    or has another step, or a size-0 row or a count-0 run is put in: those go to the %-operation."""
    start = draw(st.sampled_from([1, 9, 99, 999, 9_999, 99_999, 999_999])) + draw(st.integers(-3, 3))
    runs = draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 300)), min_size=1, max_size=4)
        | st.tuples(st.integers(1, 3), st.integers(1000, 3000)).map(lambda run: [run])
    )
    if draw(st.integers(0, 7)) == 0:
        runs.insert(draw(st.integers(0, len(runs))), draw(st.sampled_from([(0, 1), (0, 3), (2, 0)])))
    step = draw(st.sampled_from([1] * 6 + [2, -1]))
    return range(start, start + step * sum(size * count for size, count in runs), step), runs


@given(range_rows(), st.sampled_from(sorted(TEMPLATES)), st.sampled_from(SEPS), st.sampled_from([-1, 0, 9, 300]))
def test_ranges_write_what_the_templates_write(case, name, sep, bound):
    flat, runs = case
    template = TEMPLATES[name]
    expected = oracle(cut(flat, runs), template, sep)
    assert mismatch(format_int_runs(IntRuns(flat, runs), template, sep, bound), expected) is None
    assert mismatch(format_int_runs(IntRuns(list(flat), runs), template, sep, bound), expected) is None  # list path


@pytest.mark.parametrize("start", [1, 2, 6, 95, 996, 9_995, 99_994, 999_993])
def test_ranges_cross_every_digit_count_and_thousand(start):
    # Rows of each size from 1 to 5 end on, start on and straddle 10^k, and the long run crosses thousands.
    runs = [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (4, 600), (1, 7)]
    flat = range(start, start + sum(size * count for size, count in runs))
    for name, template in TEMPLATES.items():
        for sep in SEPS:
            expected = oracle(cut(flat, runs), template, sep)
            assert mismatch(format_int_runs(IntRuns(flat, runs), template, sep), expected) is None


@pytest.mark.parametrize("runs, asked", [
    ([(3, 2), (1, 4)], [2]),  # sliced out of the labels' text: only the row of two is asked for its pieces
    ([(3, 2), (1, 0)], [3]),  # a count-0 run: the %-operation
    ([(0, 1), (3, 2)], [0, 3]),  # a size-0 row: the %-operation
])
def test_ranges_are_sliced_only_in_runs_of_non_empty_rows(runs, asked):
    seen = []

    def template(size):
        seen.append(size)
        return cli._braces(size)

    flat = range(998, 998 + sum(size * count for size, count in runs))
    assert format_int_runs(IntRuns(flat, runs), template, " ") == oracle(cut(flat, runs), cli._braces, " ")
    assert seen == asked


@pytest.mark.parametrize("flat, runs", [
    (range(1, 4), [(1, 2)]), (range(1, 2), [(1, 2)]), (range(5, 5), [(1, 1)]), (range(1, 2), []),
    (range(1000, 3001), [(2, 1000)]),
])
def test_ranges_reject_runs_that_miss_them_as_lists_do(flat, runs):
    for rows in (IntRuns(flat, runs), IntRuns(list(flat), runs)):
        with pytest.raises(ValueError, match=f"the runs take {sum(s * c for s, c in runs)} ints, but the flat"):
            format_int_runs(rows, cli._braces, " ")


@pytest.mark.slow
@pytest.mark.parametrize("n, m", [(100_000, None), (1_000_000, 1413)])
def test_construct_writes_the_a_side_the_list_path_writes(capsys, n, m):
    # The digest sweep stops at n = 20,000; here the A side's labels run past 10^5 and up to 10^6.
    listed = IntRuns(list(range(1, n + 1)), _rows(range(1, n + 1), _checked_construction(n, m)[0].t).runs)
    order = [] if m is None else ["--m", str(m)]
    assert cli.main(["construct", "--n", str(n), *order]) == 0
    expected = "a_sets: " + format_int_runs(listed, cli._braces, " ") + "\n"
    assert expected in capsys.readouterr().out
    assert cli.main(["construct", "--n", str(n), *order, "--format", "structured"]) == 0
    expected = '  "a_sets": [\n    ' + format_int_runs(listed, _row_template("\n    "), ",\n    ") + '\n  ],\n'
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("transcript, expected", [
    (
        ProtocolTranscript(ConnectionPlan("A", ()), (), ConnectionPlan("B", ()), ()),
        '{\n  "schema": "cable-transcript/1",\n  "phase1_plan": [],\n  "phase1_probe": [],\n'
        '  "phase2_plan": [],\n  "phase2_probe": [],\n  "coords_a": [],\n  "coords_b": []\n}\n',
    ),
    (
        ProtocolTranscript(
            ConnectionPlan("A", (frozenset(), frozenset({1}))), (1,), ConnectionPlan("B", (frozenset({1}),)), (1,)
        ),
        '{\n  "schema": "cable-transcript/1",\n  "phase1_plan": [\n    [],\n    [\n      1\n    ]\n  ],\n'
        '  "phase1_probe": [\n    1\n  ],\n  "phase2_plan": [\n    [\n      1\n    ]\n  ],\n'
        '  "phase2_probe": [\n    1\n  ],\n  "coords_a": [\n    [\n      1,\n      1\n    ]\n  ],\n'
        '  "coords_b": [\n    [\n      1,\n      1\n    ]\n  ]\n}\n',
    ),
])
def test_transcript_edge_cases_keep_their_bytes(transcript, expected):
    assert transcript_to_json(transcript) == expected


def test_transcript_probes_hold_ints_alone():
    # Probes that are not the plans' readings: 2 is past the largest group, -1 is not a size at all, and
    # both are written as json writes them. True would be written as true in its probe and as 1 in the
    # coordinates derived from it, so the transcript rejects it, as it does 1.0.
    a, b = ConnectionPlan("A", (frozenset({1}), frozenset({2}))), ConnectionPlan("B", (frozenset({1}), frozenset({2})))
    transcript = ProtocolTranscript(a, (2, 0), b, (1, -1))
    document = json.loads(transcript_to_json(transcript))
    assert document["phase1_probe"] == [2, 0] and document["phase2_probe"] == [1, -1]
    assert document["coords_a"] == [[1, 1], [1, -1]] and document["coords_b"] == [[2, 1], [0, 1]]
    assert transcript_to_json(transcript) == json.dumps(document, indent=2) + "\n"
    for probe_1, probe_2 in (((2, 0), (True, -1)), ((2, 0), (1.0, -1)), ((False, 0), (1, -1))):
        with pytest.raises(ValueError, match="probe readings must be ints, not bools or other numbers"):
            ProtocolTranscript(a, probe_1, b, probe_2)

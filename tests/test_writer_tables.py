"""format_int_runs' tables: with a bound, runs of small ints are written by
lookups in tables of 0..bound instead of one %-operation per run, and every
byte must stay what the %-operation writes. The oracle writes each row by its
own template, ``template(size) % tuple(row)``, and joins the rows by sep."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wireid import cli
from wireid._jsonout import IntRuns, _row_template, dict_pieces, format_int_runs
from wireid.cable import ConnectionPlan, ProtocolTranscript, transcript_to_json

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

"""The one writer, _jsonout.document, on its fields: with a bound, runs of small
ints are written by lookups in tables of 0..bound instead of one %-operation
per piece, rows cut from a range of positive ints are slices of one text of
its labels, each field is written in pieces of at most CHUNK values, and every
byte must stay what the %-operation writes. The oracle writes each row on its
own, with %d for each value, and joins the rows as each format does."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mismatch
from wireid import _jsonout, cli
from wireid._jsonout import IntRuns, document
from wireid.cable import ConnectionPlan, ProtocolTranscript, make_cable, run_protocol, transcript_to_json
from wireid.partitions import _checked_construction, _rows, construct, feasible_orders, partition_to_json

# Every way the package writes a field's rows: sets, pairs and bare ints (a probe's rows of one), in
# either format.
LAYOUTS = [(structured, brackets) for structured in (False, True) for brackets in ("{}", "()", "")]
HEAD = {"schema": 0}
DEFAULT_CHUNK = _jsonout.CHUNK


def cut(flat, runs):
    rows, start = [], 0
    for size, count in runs:
        for _ in range(count):
            rows.append(flat[start : start + size])
            start += size
    return rows


def written(rows, bound, layout):
    """The document of one field "rows", as the writer writes it."""
    structured, brackets = layout
    return "".join(document(HEAD if structured else "", [("rows", rows, bound, brackets)], structured))


def oracle(rows, layout):
    """written's document with each row written on its own. Without brackets the values join one list
    (no caller writes an empty row there; JSON would take it as [])."""
    structured, brackets = layout
    if structured:
        value = [[int(x) for x in row] for row in rows] if brackets else [
            x for row in rows for x in (map(int, row) if row else [[]])]
        return json.dumps({**HEAD, "rows": value}, indent=2) + "\n"
    rows = [brackets[:1] + ",".join("%d" % x for x in row) + brackets[1:] for row in rows]
    return "rows: " + (" " if brackets else ",").join(rows) + "\n"


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


@given(bounded_rows(), st.sampled_from(LAYOUTS), st.sampled_from([1, 2, 3, 7, DEFAULT_CHUNK]))
def test_tables_write_what_the_templates_write(case, layout, chunk):
    bound, runs, flat = case
    expected = oracle(cut(flat, runs), layout)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_jsonout, "CHUNK", chunk)
        assert mismatch(written(IntRuns(flat, runs), bound, layout), expected) is None
        assert mismatch(written(IntRuns(tuple(flat), runs), bound, layout), expected) is None
        assert mismatch(written(IntRuns(flat, runs), -1, layout), expected) is None  # no bound: the %-operation alone


@given(bounded_rows())
def test_bounded_dict_fields_match_json_dumps(case):
    bound, runs, flat = case
    # Rows go through %d, which writes True as 1 and 2.5 as 2; a flat list is one field of rows of one.
    as_ints = [[int(value) for value in row] for row in cut(flat, runs)]
    fields = [("rows", IntRuns(flat, runs), bound, "{}"), ("flat", IntRuns(flat, [(1, len(flat))]), bound, ""),
              ("plain", IntRuns(flat, runs), -1, "()")]
    expected = {**HEAD, "rows": as_ints, "flat": list(map(int, flat)), "plain": as_ints}
    assert mismatch("".join(document(HEAD, fields, True)), json.dumps(expected, indent=2) + "\n") is None


def test_in_bound_values_are_looked_up_not_formatted(monkeypatch):
    # The tables write a piece whose values all lie in 0..bound; one miss sends the piece to the %-operation.
    texts, table_text = [], _jsonout._table_text

    def spied(*args):
        texts.append(table_text(*args))
        return texts[-1]

    monkeypatch.setattr(_jsonout, "_table_text", spied)
    assert written(IntRuns([3, 0, 5, 5, 1], [(1, 5)]), 5, (False, "")) == "rows: 3,0,5,5,1\n"
    assert texts == ["3,0,5,5,1"]
    assert written(IntRuns([3, 0, 6, 5, 1], [(1, 5)]), 5, (False, "")) == "rows: 3,0,6,5,1\n"
    assert texts == ["3,0,5,5,1", None]
    assert written(IntRuns([3, 0, 5, 5, 1], [(1, 5)]), -1, (False, "")) == "rows: 3,0,5,5,1\n"
    assert len(texts) == 2  # no bound: no tables


def test_rows_of_one_build_only_the_row_end_table(monkeypatch):
    # A probe's rows of one take every value from the table that also closes a row: the inner table, for the
    # values before a row's last, is built only when some row holds more than one value.
    inner_tables, table_text = [], _jsonout._table_text

    def spied(inner, *args):
        inner_tables.append(inner)
        return table_text(inner, *args)

    monkeypatch.setattr(_jsonout, "_table_text", spied)
    assert written(IntRuns([3, 0, 5], [(1, 3)]), 5, (False, "")) == "rows: 3,0,5\n"
    assert written(IntRuns([3, 0, 5], [(1, 1), (2, 1)]), 5, (False, "()")) == "rows: (3) (0,5)\n"
    assert inner_tables[0] is None and inner_tables[1] == {value: "%d," % value for value in range(6)}


@pytest.mark.parametrize("value", [0, 7, "kg-construction/1", [], (), [1, 2, 3], (4,), ["..1", "1.."], True, None,
                                   {}, {1: [2, {}], None: {"x": [True, []]}, 2.5: (), False: "é"}])
def test_the_structured_head_is_what_json_indents(value):
    head = {"schema": "x", "value": value}
    assert "".join(document(head, [], True)) == json.dumps(head, indent=2) + "\n"


@st.composite
def range_rows(draw):
    """(flat, runs): a step-1 range starting near 1, 9, 99, ..., 999,999, so that rows cross a digit count and
    thousands, cut into runs of rows of 1 to 4 ints or one long run. Now and then the range starts at 0 or below
    or has another step, or a size-0 row (which sends its piece to the %-operation) or a count-0 run is put in."""
    start = draw(st.sampled_from([1, 9, 99, 999, 9_999, 99_999, 999_999])) + draw(st.integers(-3, 3))
    runs = draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 300)), min_size=1, max_size=4)
        | st.tuples(st.integers(1, 3), st.integers(1000, 3000)).map(lambda run: [run])
    )
    if draw(st.integers(0, 7)) == 0:
        runs.insert(draw(st.integers(0, len(runs))), draw(st.sampled_from([(0, 1), (0, 3), (2, 0)])))
    step = draw(st.sampled_from([1] * 6 + [2, -1]))
    return range(start, start + step * sum(size * count for size, count in runs), step), runs


@given(range_rows(), st.sampled_from(LAYOUTS), st.sampled_from([-1, 0, 9, 300]), st.sampled_from([1, 3, 700, 2**16]))
def test_ranges_write_what_the_templates_write(case, layout, bound, chunk):
    flat, runs = case
    expected = oracle(cut(flat, runs), layout)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_jsonout, "CHUNK", chunk)
        assert mismatch(written(IntRuns(flat, runs), bound, layout), expected) is None
        assert mismatch(written(IntRuns(list(flat), runs), bound, layout), expected) is None  # list path


@pytest.mark.parametrize("start", [1, 2, 6, 95, 996, 9_995, 99_994, 999_993])
def test_ranges_cross_every_digit_count_and_thousand(start):
    # Rows of each size from 1 to 5 end on, start on and straddle 10^k, and the long run crosses thousands.
    runs = [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (4, 600), (1, 7)]
    flat = range(start, start + sum(size * count for size, count in runs))
    for layout in LAYOUTS:
        assert mismatch(written(IntRuns(flat, runs), -1, layout), oracle(cut(flat, runs), layout)) is None


@pytest.mark.parametrize("runs, asked", [
    ([(3, 2), (1, 4)], [[(3, 2), (1, 4)]]),  # sliced out of the labels' text
    ([(3, 2), (1, 0)], [[(3, 2)]]),  # a count-0 run holds no row: the rest is sliced
    ([(0, 1), (3, 2)], []),  # a size-0 row: the %-operation
])
def test_ranges_are_sliced_only_in_runs_of_non_empty_rows(monkeypatch, runs, asked):
    seen, range_text = [], _jsonout._range_text

    def spied(labels, runs, *args):
        seen.append(runs)
        return range_text(labels, runs, *args)

    monkeypatch.setattr(_jsonout, "_range_text", spied)
    flat = range(998, 998 + sum(size * count for size, count in runs))
    assert written(IntRuns(flat, runs), -1, (False, "{}")) == oracle(cut(flat, runs), (False, "{}"))
    assert seen == asked


@pytest.mark.parametrize("flat, runs", [
    (range(1, 4), [(1, 2)]), (range(1, 2), [(1, 2)]), (range(5, 5), [(1, 1)]), (range(1, 2), []),
    (range(1000, 3001), [(2, 1000)]),
])
def test_ranges_reject_runs_that_miss_them_as_lists_do(flat, runs):
    for rows in (IntRuns(flat, runs), IntRuns(list(flat), runs)):
        for layout in LAYOUTS:
            with pytest.raises(ValueError, match=f"the runs take {sum(s * c for s, c in runs)} ints, but the flat"):
                written(rows, -1, layout)


@pytest.mark.slow
@pytest.mark.parametrize("n, m", [(100_000, None), (1_000_000, 1413)])
def test_construct_writes_the_a_side_the_list_path_writes(capsys, n, m):
    # The digest sweep stops at n = 20,000; here the A side's labels run past 10^5 and up to 10^6.
    listed = IntRuns(list(range(1, n + 1)), _rows(range(1, n + 1), _checked_construction(n, m)[0].t).runs)
    order = [] if m is None else ["--m", str(m)]
    assert cli.main(["construct", "--n", str(n), *order]) == 0
    assert "".join(document("", [("a_sets", listed, -1, "{}")], False)) in capsys.readouterr().out
    assert cli.main(["construct", "--n", str(n), *order, "--format", "structured"]) == 0
    field = "".join(document(HEAD, [("a_sets", listed, -1, "{}")], True))[len(json.dumps(HEAD, indent=2)) - 2 : -3]
    assert field in capsys.readouterr().out


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


# ── pieces: every field is written in bounded pieces, and where they are cut changes no byte ──

def stdout_of(argv, out=None):
    """The command's stdout, or out, the stdout it was given."""
    with contextlib.redirect_stdout(out or io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    return stdout if out else stdout.getvalue()


def test_every_piece_size_writes_the_same_bytes(monkeypatch):
    # With the default CHUNK every field below n = 300 is one piece; with these, the fields are cut
    # after every row or every few values, and every cut must leave the bytes as they were.
    requests, documents = [], []
    for n in [*range(1, 40), *range(40, 301, 23), 300]:
        for m in feasible_orders(n)[:1] + feasible_orders(n)[-1:]:
            for fmt in ("grid", "structured"):
                requests.append(["construct", "--n", str(n), "--m", str(m), "--format", fmt])
                requests.append(["simulate", "--n", str(n), "--m", str(m), "--seed", "3", "--format", fmt])
            pair = construct(n, m)
            documents.append(lambda pair=pair: partition_to_json(pair))
            documents.append(lambda pair=pair, n=n: transcript_to_json(run_protocol(pair, make_cable(n, 5))))
    expected = [stdout_of(argv) for argv in requests] + [write() for write in documents]
    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(_jsonout, "CHUNK", chunk)
        texts = [stdout_of(argv) for argv in requests] + [write() for write in documents]
        assert [mismatch(text, want) for text, want in zip(texts, expected)] == [None] * len(expected), chunk


class Recorder:
    """A stdout that keeps only the digest of what it is given and the length of each write."""

    def __init__(self):
        self.digest, self.sizes = hashlib.sha256(), []

    def write(self, text):
        self.digest.update(text.encode())
        self.sizes.append(len(text))
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["grid", "structured"])
@pytest.mark.parametrize("n, m", [(100_000, None), (1_000_000, 1413)])
def test_pieces_keep_the_bytes_across_piece_boundaries(n, m, fmt, monkeypatch):
    # Here every long field crosses default piece boundaries. Its bytes must be those of the field written
    # as one piece (CHUNK past any field's length, as the digest sweep writes every field) and of pieces
    # cut at other places.
    order = [] if m is None else ["--m", str(m)]
    for command in (["construct"], ["simulate", "--seed", "3"]):
        argv = [*command, "--n", str(n), *order, "--format", fmt]
        digests = []
        for chunk in (DEFAULT_CHUNK, 1009, 2**62):
            monkeypatch.setattr(_jsonout, "CHUNK", chunk)
            digests.append(stdout_of(argv, Recorder()).digest.hexdigest())
        assert digests[0] == digests[1] == digests[2], argv


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["grid", "structured"])
def test_no_write_after_the_head_reaches_2_mb(fmt):
    # Written whole, the longest fields here would be single writes of 11 MB (grid) and 35 MB (structured).
    # At n = 2e5 the longest whole grid field is under 2 MB, so that size could not tell.
    sizes = stdout_of(["simulate", "--n", "1000000", "--m", "1413", "--seed", "3", "--format", fmt], Recorder()).sizes
    assert len(sizes) > 6 and max(sizes[1:]) < 2_000_000, max(sizes[1:])

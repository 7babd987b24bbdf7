import ast
import contextlib
import errno
import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from itertools import chain, combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wireid
from conftest import flip_first_cell, flip_off_diagonal_cell, json_values, swap_first_and_last
from oracles import transcript_from_json
from wireid import cable, cli, matrices, partitions
from wireid._jsonout import IntRuns, _sorted_runs, document
from wireid.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from wireid.matrices import format_degree_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── the grid set writer ──────────────────────────────────────────────────

@given(st.lists(st.frozensets(st.integers(-5, 40) | st.integers(2**63, 2**64), max_size=5), max_size=15))
def test_fmt_sets_matches_the_f_string_join(sets):
    sets = sorted(sets, key=len) if len(sets) % 2 else sets  # canonical runs and scattered sizes
    expected = "sets: " + " ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in sets) + "\n"
    assert "".join(document("", [("sets", _sorted_runs(sets), -1, "{}")], False)) == expected
    rows = list(map(sorted, sets))
    runs = [(size, len(list(run))) for size, run in groupby(map(len, rows))]
    assert "".join(document("", [("sets", IntRuns(list(chain.from_iterable(rows)), runs), -1, "{}")], False)) == expected


# ── bounds ───────────────────────────────────────────────────────────────

def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--max-m", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1 1", "2 3 4", "3 6 8", "4 10 15"]


def test_bounds_single_row(capsys):
    code, out, _ = run(capsys, "bounds", "--max-m", "1")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1 1"]


def test_bounds_includes_order_six(capsys):
    code, out, _ = run(capsys, "bounds", "--max-m", "6")
    assert code == EXIT_OK
    assert "6 21 33" in out.splitlines()


def test_bounds_structured(capsys):
    code, out, _ = run(capsys, "bounds", "--max-m", "2", "--format", "structured")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "kg-bounds/1"
    assert payload["rows"][1] == {"m": 2, "min_n": 3, "max_n": 4}


def test_bounds_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bounds", "--max-m", "0")
    assert code == EXIT_USAGE
    assert "max-m" in err


def test_bounds_takes_max_m_up_to_the_largest_order_of_any_n_up_to_max_n(capsys):
    assert cli.MAX_M == partitions.feasible_orders(cli.MAX_N)[-1] == 1413
    code, out, err = run(capsys, "bounds", "--max-m", "1413")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == f"1413 {partitions.min_elements(1413)} {partitions.max_elements(1413)}"
    for max_m in ("1414", str(10**12)):
        for fmt in ("grid", "structured"):
            message = f"error: --max-m must be at most 1413, the largest order of any n up to 1000000, got {max_m}\n"
            assert run(capsys, "bounds", "--max-m", max_m, "--format", fmt) == (EXIT_USAGE, "", message)


# ── construct ────────────────────────────────────────────────────────────

def test_construct_worked_example(capsys):
    code, out, _ = run(capsys, "construct", "--n", "26")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n=26 m=6"
    assert lines[1] == "t=6,2,3,4,5,6"
    assert lines[2] == "s=1 k=6"
    grid = lines[lines.index("matrix:") + 1 :][:6]
    assert len(grid) == 6 and all(len(row) == 6 for row in grid)
    assert any(line.startswith("a_sets:") for line in lines)
    assert any(line.startswith("b_sets:") for line in lines)


def construct_stdout(n, m, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", "--n", str(n), "--m", str(m), "--format", fmt]) == EXIT_OK
    return out.getvalue()


def simulate_stdout(n, m, seed, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", "--n", str(n), "--m", str(m), "--seed", str(seed), "--format", fmt]) == EXIT_OK
    return out.getvalue()


def braced(sets):
    """The grid's sets, each as its ascending elements in braces."""
    return " ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in sets)


def frozenset_rendering(n, m, fmt):
    """construct's stdout rendered from construct_trace's frozensets, each
    side sorted by size, then content, and each set ascending."""
    trace = partitions.construct_trace(n, m)
    rep = trace.representation
    a_sets, b_sets = (
        sorted(map(sorted, sets), key=lambda s: (len(s), s)) for sets in (trace.partition.a_sets, trace.partition.b_sets)
    )
    if fmt == "structured":
        payload = {"schema": cli.CONSTRUCTION_SCHEMA, "n": n, "m": m, "t": list(rep.t), "s": rep.s, "k": rep.k,
                   "matrix": trace.matrix.to_text().splitlines(), "a_sets": a_sets, "b_sets": b_sets}
        return json.dumps(payload, indent=2) + "\n"
    return (
        f"n={n} m={m}\nt={format_degree_sequence(rep.t)}\ns={rep.s} k={rep.k}\nmatrix:\n{trace.matrix.to_text()}"
        f"a_sets: {braced(a_sets)}\nb_sets: {braced(b_sets)}\n"
    )


def simulate_rendering(n, m, seed, fmt):
    """simulate's stdout rendered from run_protocol on construct's frozensets."""
    transcript = cable.run_protocol(partitions.construct(n, m), cable.make_cable(n, seed))
    if fmt == "structured":
        return cable.transcript_to_json(transcript)
    sets = [braced(plan.groups) for plan in (transcript.phase1_plan, transcript.phase2_plan)]
    probes = [format_degree_sequence(probe) for probe in (transcript.phase1_probe, transcript.phase2_probe)]
    coords = [" ".join(f"({j},{k})" for j, k in pairs) for pairs in (transcript.coords_a, transcript.coords_b)]
    return (f"n={n} m={m} seed={seed}\nphase1_plan: {sets[0]}\nphase1_probe: {probes[0]}\n"
            f"phase2_plan: {sets[1]}\nphase2_probe: {probes[1]}\ncoords_a: {coords[0]}\ncoords_b: {coords[1]}\n")


def refuse(*args, **kwargs):
    raise AssertionError("a frozenset, plan or transcript was built")


@pytest.mark.parametrize("fmt", ["grid", "structured"])
def test_the_cli_writes_the_public_bytes_without_cutting_the_constructions_frozensets(fmt, monkeypatch):
    orders = {n: partitions.feasible_orders(n) for n in (1, 26, 1000, 5000)}
    sizes = [(n, m) for n, ms in orders.items() for m in sorted({ms[0], ms[-1]})]
    constructs = [frozenset_rendering(n, m, fmt) for n, m in sizes]
    requests = [(n, m, seed) for n, m in sizes for seed in (0, 3)]
    simulations = [simulate_rendering(*request, fmt) for request in requests]
    # No command builds a frozenset, a ConnectionPlan or a ProtocolTranscript (only run_protocol does).
    # construct reads the construction's B side off the byte grid by _grid_columns; simulate reads none: end B
    # joins its wires to its B-sets off the rows, and never cuts the construction's sets.
    calls, grid_columns = [], partitions._grid_columns

    def counted(*args):
        calls.append("_grid_columns")
        return grid_columns(*args)

    for module in (partitions, cable, cli):
        monkeypatch.setattr(module, "_grid_columns", counted, raising=False)  # cable imports none
        for name in ("_sets", "frozenset", "ConnectionPlan", "ProtocolTranscript"):  # a builtin shadowed per module
            monkeypatch.setattr(module, name, refuse, raising=False)
    for request, expected in zip(requests, simulations):
        calls.clear()
        assert simulate_stdout(*request, fmt) == expected, request
        assert calls == [], request
    for (n, m), expected in zip(sizes, constructs):
        calls.clear()
        assert construct_stdout(n, m, fmt) == expected, (n, m)
        assert calls == ["_grid_columns"], (n, m)


@pytest.mark.slow
def test_construct_writes_the_frozensets_in_canonical_order_through_n_400():
    # construct writes its sets from the labels in the order the construction
    # cut them, not from the frozensets; the bytes must be the same.
    for n in range(1, 400):
        for m in partitions.feasible_orders(n):
            for fmt in ("grid", "structured"):
                assert construct_stdout(n, m, fmt) == frozenset_rendering(n, m, fmt), (n, m, fmt)


@pytest.mark.slow
def test_construct_writes_the_frozensets_in_canonical_order_at_sampled_large_n():
    rng = random.Random(18)
    for n in (rng.randint(100_000, 300_000) for _ in range(3)):
        orders = partitions.feasible_orders(n)
        for m in (orders[0], orders[-1], rng.choice(orders)):
            for fmt in ("grid", "structured"):
                assert construct_stdout(n, m, fmt) == frozenset_rendering(n, m, fmt), (n, m, fmt)


@pytest.mark.slow
@pytest.mark.parametrize("argv, digest", [
    (["--n", "200000", "--seed", "3", "--format", "structured"],
     "6e7ca3a3c59fa1fab20a2d422057a760b129d80f594c99a5f922fb0539df3579"),
    (["--n", "823081", "--seed", "3"], "2467bbc10384cc7149f8d2594749cf46852f8a57f169fa342a9bc7c443ed6048"),
])
def test_simulate_keeps_its_bytes_at_large_n(argv, digest):
    # stdout's SHA-256 at the smallest feasible order, pinned where the reference comparisons only sample.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", *argv]) == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_construct_trivial(capsys):
    code, out, _ = run(capsys, "construct", "--n", "1")
    assert code == EXIT_OK
    assert "a_sets: {1}" in out


def test_construct_infeasible_n(capsys):
    code, _, err = run(capsys, "construct", "--n", "5")
    assert code == EXIT_INFEASIBLE
    assert "no order exists for n" in err


def test_construct_out_of_range_for_order(capsys):
    code, _, err = run(capsys, "construct", "--n", "40", "--m", "4")
    assert code == EXIT_INFEASIBLE
    assert "n out of range for order m" in err


def test_construct_rejects_a_huge_order_without_summing_up_to_it(capsys):
    # max_elements(m) is an O(m) sum; the lower bound alone rules this out.
    code, out, err = run(capsys, "construct", "--n", "26", "--m", "1000000000000")
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert "n out of range for order m (n=26, m=1000000000000," in err


def test_construct_structured_output(capsys):
    code, out, _ = run(capsys, "construct", "--n", "26", "--format", "structured")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "kg-construction/1"
    assert payload["t"] == [6, 2, 3, 4, 5, 6]
    assert len(payload["matrix"]) == 6
    assert sum(len(s) for s in payload["a_sets"]) == 26


# ── verify ───────────────────────────────────────────────────────────────

def test_construct_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--n", "26", "--format", "structured")
    assert code == EXIT_OK
    doc = tmp_path / "pair.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == EXIT_OK
    assert "valid" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "construct", "--n", "12", "--format", "structured")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify", "-")
    assert code == EXIT_OK


def test_verify_flags_violations(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "schema": "kg-partition/1",
        "n": 2,
        "a_sets": [[1], [2]],
        "b_sets": [[1], [2]],
    }))
    code, _, err = run(capsys, "verify", str(doc))
    assert code == EXIT_INVALID
    assert "cell (1,1)" in err


def test_verify_parse_error(tmp_path, capsys):
    doc = tmp_path / "junk.json"
    doc.write_text("{ this is not json")
    code, _, err = run(capsys, "verify", str(doc))
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_wrong_schema(tmp_path, capsys):
    doc = tmp_path / "other.json"
    doc.write_text('{"schema": "unknown/1", "n": 1, "a_sets": [[1]], "b_sets": [[1]]}')
    code, _, err = run(capsys, "verify", str(doc))
    assert code == EXIT_USAGE


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file.json")
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_verify_names_a_file_that_is_not_utf8(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_bytes(b"\xff\xfe")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert run(capsys, "verify", str(doc)) == (EXIT_USAGE, "", f"error: cannot read {doc}: {reason}\n")


def test_verify_names_stdin_that_is_not_utf8(capsys, monkeypatch):
    # A stdin that decodes with surrogateescape (as under a C locale) is read as bytes and decoded as a file is.
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert run(capsys, "verify", "-") == (EXIT_USAGE, "", f"error: cannot read -: {reason}\n")


def test_verify_rejects_deeply_nested_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, out, err = run(capsys, "verify", "-")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: not valid JSON:") and err.count("\n") == 1



def test_verify_with_stdin_closed_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", None)  # what the interpreter leaves when fd 0 is closed
    assert run(capsys, "verify", "-") == (EXIT_USAGE, "", "error: cannot read -: stdin is closed\n")


def test_verify_with_fd_0_closed_exits_3():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    result = subprocess.run([sys.executable, "-m", "wireid.cli", "verify", "-"], capture_output=True, text=True,
                            preexec_fn=lambda: os.close(0), env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_USAGE, "", "error: cannot read -: stdin is closed\n")


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_verify_drops_the_document_text_before_it_judges(tmp_path):
    """verify FILE on the 29.9 MB n = 10^6, m = 1413 structured document peaks at or under 125 MB in a fresh
    process: holding the document's text through the judgement takes it to about 140 MB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    doc = tmp_path / "pair.json"
    with open(doc, "w") as out:
        subprocess.run([sys.executable, "-m", "wireid.cli", "construct", "--n", "1000000", "--m", "1413", "--format",
                        "structured"], stdout=out, env=env, check=True, timeout=300)
    peak = ("import sys\nfrom wireid.cli import main\nstatus = main(sys.argv[1:])\n"
            "print(status, *[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')])")
    result = subprocess.run([sys.executable, "-c", peak, "verify", str(doc)], capture_output=True, text=True,
                            env=env, timeout=300)
    verdict, status, peak_kb = result.stdout.split("\n")[0], *result.stdout.split("\n")[1].split()
    assert (verdict, status, result.stderr) == ("valid Knowlton-Graham pair: n=1000000 order=1413", "0", "")
    assert int(peak_kb) <= 125 * 1024, f"verify peaked at {int(peak_kb) / 1024:.1f} MB"


label_lists = st.lists(st.lists(st.integers(-2, 40) | json_values, max_size=6), max_size=8)
partition_documents = st.fixed_dictionaries(
    {"schema": st.sampled_from(["kg-partition/1", "kg-construction/1"])},
    optional={
        "n": st.integers(-2, 10_000) | json_values,
        "a_sets": label_lists | json_values,
        "b_sets": label_lists | json_values,
    },
)


def verify_stdin(text):
    """Exit status, stdout and stderr of ``wireid verify -`` reading text."""
    stdin, stdout, stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", stdin)
        patch.setattr("sys.stdout", stdout)
        patch.setattr("sys.stderr", stderr)
        code = main(["verify", "-"])
    return code, stdout.getvalue(), stderr.getvalue()


@given(st.text() | json_values.map(json.dumps) | partition_documents.map(json.dumps))
def test_verify_fuzz_exits_0_2_or_3_without_traceback(text):
    # n stays at most 10_000: _verdict's failure branch builds a set of 1..n,
    # so a huge n costs memory and time before any check can reject it.
    code, out, err = verify_stdin(text)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE)
    assert "Traceback" not in err
    assert (out != "") == (code == EXIT_OK)
    assert (err != "") == (code != EXIT_OK)  # a rejection (exit 2) or an error (exit 3) is worded


def public_verify(text):
    """What verify writes, by the public path: partition_from_json, then
    kg_violations, then the pair's order."""
    try:
        partition = partitions.partition_from_json(text, schemas=(partitions.PARTITION_SCHEMA, cli.CONSTRUCTION_SCHEMA))
    except ValueError as exc:
        return EXIT_USAGE, "", f"error: {exc}\n"
    problems = partitions.kg_violations(partition)
    if problems:
        return EXIT_INVALID, "", "\n".join(problems) + "\n"
    return EXIT_OK, f"valid Knowlton-Graham pair: n={partition.n} order={partition.order}\n", ""


@st.composite
def int_partition_documents(draw):
    """Partition documents with int labels: a constructed pair relabelled and
    shuffled, then perhaps broken (labels swapped or moved between sets,
    repeated in their own set or another, dropped, out of range, an empty
    set added), or lists of small ints with no structure at all."""
    schema = draw(st.sampled_from(["kg-partition/1", "kg-construction/1"]))
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(1, 12))
        sides = draw(st.lists(st.lists(st.lists(st.integers(-1, 14), max_size=5), max_size=6), min_size=2, max_size=2))
        return json.dumps({"schema": schema, "n": n, "a_sets": sides[0], "b_sets": sides[1]})
    n = draw(st.integers(1, 60).filter(lambda n: n not in (2, 5, 9)))
    pair = partitions.construct(n, draw(st.sampled_from(partitions.feasible_orders(n))))
    perm = draw(st.permutations(range(1, n + 1)))
    sides = []
    for sets in (pair.a_sets, pair.b_sets):
        sides.append([draw(st.permutations([perm[x - 1] for x in s])) for s in draw(st.permutations(sets))])
    for _ in range(draw(st.integers(0, 2))):
        side = draw(st.sampled_from(sides))
        if not all(side):  # an earlier edit emptied a set
            continue
        s, t = draw(st.sampled_from(side)), draw(st.sampled_from(side))
        i, j = draw(st.integers(0, len(s) - 1)), draw(st.integers(0, len(t) - 1))
        edit = draw(st.sampled_from(["swap", "move", "repeat", "own", "drop", "range", "empty"]))
        if edit == "swap":  # crowds a cell when s and t differ in size, mostly
            s[i], t[j] = t[j], s[i]
        elif edit == "move":
            t.append(s.pop(i))
        elif edit in ("repeat", "own"):  # an overlap, or a set that still holds what it held
            (s if edit == "own" else t).append(s[i])
        elif edit == "drop":
            del s[i]
        elif edit == "range":
            s[i] = draw(st.sampled_from([0, -1, n + 1]))
        elif edit == "empty":
            side.insert(draw(st.integers(0, len(side))), [])
    return json.dumps({"schema": schema, "n": n, "a_sets": sides[0], "b_sets": sides[1]})


@settings(max_examples=300)
@given(int_partition_documents())
def test_verify_writes_what_the_public_path_writes(text):
    assert verify_stdin(text) == public_verify(text)


def test_verify_words_a_crowded_cell_from_the_keys_it_holds(monkeypatch):
    # Exact partitions of 1..n with a crowded cell: no KgPartition and no kg_violations.
    pair = partitions.construct(26)
    a_sets, b_sets = [sorted(s) for s in pair.a_sets], [sorted(s) for s in pair.b_sets]
    docs = []
    for s, t in combinations(range(len(a_sets)), 2):
        swapped = [list(u) for u in a_sets]
        swapped[s][0], swapped[t][0] = swapped[t][0], swapped[s][0]
        docs.append(json.dumps({"schema": "kg-partition/1", "n": 26, "a_sets": swapped, "b_sets": b_sets}))
    expected = [public_verify(text) for text in docs]
    assert sum(code == EXIT_INVALID for code, _, _ in expected) > 10

    def forbidden(*args):
        raise AssertionError("verify judged exact partitions through a KgPartition")

    monkeypatch.setattr(partitions, "KgPartition", forbidden)
    monkeypatch.setattr(partitions, "_canonical_order", forbidden)
    assert [verify_stdin(text) for text in docs] == expected


def test_verify_words_a_structure_failure_without_sorting_the_sets(monkeypatch):
    # Out-of-range labels: the lists are frozen to word the failure, never sorted.
    docs = [json.dumps({"schema": "kg-partition/1", "n": 3, "a_sets": a_sets, "b_sets": [[3, 1], [2]]})
            for a_sets in ([[3, 2], [7]], [[0], [3, 2, 2]], [[4, 1], [-1], [2, 3], []])]
    expected = [public_verify(text) for text in docs]
    assert all(code == EXIT_INVALID for code, _, _ in expected)

    def forbidden(*args):
        raise AssertionError("verify sorted the sets")

    monkeypatch.setattr(partitions, "_canonical_order", forbidden)
    assert [verify_stdin(text) for text in docs] == expected


@pytest.mark.parametrize("text, order", [
    ('{"schema": "kg-partition/1", "n": 1, "a_sets": [[1, 1]], "b_sets": [[1]]}', 1),
    ('{"schema": "kg-construction/1", "n": 3, "a_sets": [[2, 1, 2], [3]], "b_sets": [[1], [3, 2]]}', 2),
])
def test_verify_judges_a_label_repeated_inside_its_set_on_the_sets(text, order):
    n = json.loads(text)["n"]
    assert verify_stdin(text) == (EXIT_OK, f"valid Knowlton-Graham pair: n={n} order={order}\n", "")


# ── simulate ─────────────────────────────────────────────────────────────

def test_simulate_worked_size(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "26", "--seed", "42")
    assert code == EXIT_OK
    assert out.startswith("n=26 m=6 seed=42")
    assert "coords_a:" in out and "coords_b:" in out


def test_simulate_structured(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "8", "--seed", "3", "--format", "structured")
    assert code == EXIT_OK
    transcript = transcript_from_json(out)
    assert len(transcript.phase1_probe) == 8


def test_simulate_trivial(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "1", "--seed", "0")
    assert code == EXIT_OK
    assert "coords_a: (1,1)" in out


def test_simulate_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "simulate", "--n", "26", "--seed", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


def test_simulate_checks_seed_before_constructing(capsys):
    # n=5 has no order; the seed is rejected before the construction runs.
    code, out, err = run(capsys, "simulate", "--n", "5", "--seed", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "26", "--format", "structured"],
    ["construct", "--n", "1", "--format", "structured"],
    ["bounds", "--max-m", "3", "--format", "structured"],
    ["simulate", "--n", "26", "--seed", "7", "--format", "structured"],
    ["bounds", "--max-m", "300", "--format", "structured"],
])
def test_structured_output_is_json_dumps_indent_2(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_simulate_infeasible(capsys):
    code, _, err = run(capsys, "simulate", "--n", "9")
    assert code == EXIT_INFEASIBLE
    assert "no order exists for n" in err


# ── usage errors ─────────────────────────────────────────────────────────

@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["construct"],                      # missing --n
    ["construct", "--n", "ten"],
    ["construct", "--n", "26", "--frobnicate"],
    ["bounds"],
])
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE


# argparse's bytes for help and usage errors at COLUMNS=80, the same on Python 3.10 through 3.13: the parser
# build_parser makes from the argument table must keep them.
HELP = {
    (): """\
usage: wireid [-h] {construct,bounds,verify,simulate} ...

Knowlton-Graham partitions and cable wire identification

positional arguments:
  {construct,bounds,verify,simulate}
    construct           build a partition pair for n elements
    bounds              feasible n range per order
    verify              check a serialized partition pair
    simulate            run the two-ended identification protocol

options:
  -h, --help            show this help message and exit
""",
    ("construct",): """\
usage: wireid construct [-h] --n N [--m M] [--format {grid,structured}]

options:
  -h, --help            show this help message and exit
  --n N                 number of elements
  --m M                 order (smallest feasible if omitted)
  --format {grid,structured}
""",
    ("bounds",): """\
usage: wireid bounds [-h] --max-m MAX_M [--format {grid,structured}]

options:
  -h, --help            show this help message and exit
  --max-m MAX_M         largest order to tabulate (at most 1413)
  --format {grid,structured}
""",
    ("verify",): """\
usage: wireid verify [-h] path

positional arguments:
  path        partition document, or - for stdin

options:
  -h, --help  show this help message and exit
""",
    ("simulate",): """\
usage: wireid simulate [-h] --n N [--m M] [--seed SEED]
                       [--format {grid,structured}]

options:
  -h, --help            show this help message and exit
  --n N                 number of wires
  --m M                 order (smallest feasible if omitted)
  --seed SEED           hidden wiring seed, non-negative (0 = identity)
  --format {grid,structured}
""",
}
USAGE_ERRORS = {
    (): "usage: wireid [-h] {construct,bounds,verify,simulate} ...\n"
        "wireid: error: the following arguments are required: command\n",
    ("construct",): "usage: wireid construct [-h] --n N [--m M] [--format {grid,structured}]\n"
                    "wireid construct: error: the following arguments are required: --n\n",
    ("construct", "--n", "ten"): "usage: wireid construct [-h] --n N [--m M] [--format {grid,structured}]\n"
                                 "wireid construct: error: argument --n: invalid int value: 'ten'\n",
}


def exit_and_streams(capsys, argv):
    """main's exit status (SystemExit's code where argparse exits), stdout and stderr for argv."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", HELP)
def test_help_keeps_argparses_bytes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_and_streams(capsys, [*command, "-h"]) == (EXIT_OK, HELP[command], "")


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_keep_argparses_bytes(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_and_streams(capsys, list(argv)) == (EXIT_USAGE, "", USAGE_ERRORS[argv])


def parsed_by_argparse(argv):
    """The Namespace build_parser().parse_args(argv) returns, or None where argparse exits or raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except (SystemExit, TypeError):  # a usage error, or an item that is not a str
            return None


FLAGS = ["--n", "--m", "--seed", "--format", "--max-m", "--fo", "--se", "--max", "--n=5", "-h", "--help", "--", "-"]
VALUES = ["0", "26", "-3", "+7", " 7", "1_000", "٣", "1e3", "x", "", "grid", "gri", "structured", "-", "doc.json"]
NOT_STR = [5, None, b"26", ["26"]]
INTS = ["0", "26", "+7", " 7", "1_000", "٣"]
FLAGS_OF = {"construct": ("--n", "--m", "--format"), "bounds": ("--max-m", "--format"),
            "simulate": ("--n", "--m", "--seed", "--format")}


def usually(draw, usual, other):
    """One of usual, or one of other a quarter of the time."""
    return draw(st.sampled_from(other if draw(st.integers(0, 3)) == 0 else usual))


@st.composite
def argvs(draw):
    """Mostly the plain form: a command and a list of its flags (any order, some left out or repeated), each
    with a value it takes, or verify and a path, where a quarter of the flags and values are any of FLAGS,
    VALUES and NOT_STR; then up to two items replaced by, or inserted as, one of those, a command or an
    unknown word."""
    command = draw(st.sampled_from(["verify", *FLAGS_OF]))
    if command == "verify":
        argv = [command, usually(draw, ["-", "doc.json", ""], VALUES + NOT_STR)]
    else:
        argv = [command]
        for _ in range(draw(st.integers(0, 5))):
            flag = usually(draw, FLAGS_OF[command], FLAGS + NOT_STR)
            argv += [flag, usually(draw, ["grid", "structured"] if flag == "--format" else INTS, VALUES + NOT_STR)]
    tokens = st.sampled_from([*FLAGS, *VALUES, *NOT_STR, "construct", "bogus"])
    for position, token, insert in draw(st.lists(st.tuples(st.integers(0, 12), tokens, st.booleans()), max_size=2)):
        position %= len(argv) + insert
        argv[position:position + (not insert)] = [token]
    return argv


@settings(max_examples=400)
@given(argvs())
def test_the_direct_reader_returns_argparses_namespace_or_declines(argv):
    """_plain_args never raises, and returns either the Namespace argparse returns for the same argv or None:
    never a Namespace where argparse exits (repeated flags take the last value, as in argparse)."""
    plain = cli._plain_args(argv)
    assert plain is None or plain == parsed_by_argparse(argv)


PLAIN_FORMS = [
    # perfbench/workloads.py: construct_request, with and without --m; simulate_request; verify_docs
    (["construct", "--n", "26", "--format", "grid"], EXIT_OK),
    (["construct", "--n", "28", "--format", "structured", "--m", "7"], EXIT_OK),
    (["simulate", "--n", "26", "--seed", "1234567", "--format", "structured"], EXIT_OK),
    (["verify", "-"], EXIT_OK),
    # scripts/stdout_digest.py's requests that argparse does not reject
    (["construct", "--n", "26", "--m", "6", "--format", "structured"], EXIT_OK),
    (["construct", "--n", "9", "--format", "grid"], EXIT_INFEASIBLE),
    (["simulate", "--n", "26", "--m", "6", "--seed", "3", "--format", "grid"], EXIT_OK),
    (["simulate", "--n", "9", "--seed", "0", "--format", "structured"], EXIT_INFEASIBLE),
    (["bounds", "--max-m", "0", "--format", "structured"], EXIT_USAGE),
    (["verify", "/nonexistent/wireid-digest.json"], EXIT_USAGE),
    (["construct", "--n", "0"], EXIT_USAGE),
    (["construct", "--n", "10", "--m", "2"], EXIT_INFEASIBLE),
    # the README's examples
    (["bounds", "--max-m", "8"], EXIT_OK),
    (["construct", "--n", "26"], EXIT_OK),
    (["construct", "--n", "26", "--format", "structured"], EXIT_OK),
    (["simulate", "--n", "26", "--seed", "42"], EXIT_OK),
]


@pytest.mark.parametrize("argv, status", PLAIN_FORMS)
def test_the_plain_forms_build_no_parser(argv, status, capsys, monkeypatch):
    """Every argv shape the benchmark, the digest script and the README send is read without argparse."""
    def no_parser():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr("sys.stdin", io.StringIO(document_of_size(1)))
    assert run(capsys, *argv)[0] == status


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "0"],
    ["construct", "--n", "10", "--m", "0"],
    ["simulate", "--n", "-3"],
])
def test_nonpositive_sizes_exit_3(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "positive" in err


class Reached(Exception):
    """Raised in place of a step whose work grows with n (or with --m)."""


def stop_at_the_work_of_size_n(monkeypatch):
    def stopper(name):
        def stop(*args):
            raise Reached(name)
        return stop

    for module, name in ((cli, "make_cable"), (partitions, "feasible_orders"), (partitions, "represent"),
                         (cli, "_verdict")):
        monkeypatch.setattr(module, name, stopper(name))


def document_of_size(n):
    """A partition document for n, 70 bytes long for n = 10**7."""
    return '{"schema":"kg-partition/1","n":%d,"a_sets":[[1]],"b_sets":[[1]]}' % n


@pytest.mark.parametrize("n, argv", [
    (10**12, ["construct", "--n", str(10**12)]),  # would allocate until killed
    (10**24, ["construct", "--n", str(10**24), "--m", str(10**12)]),  # would hang in the O(m) max_elements
    (10**7, ["simulate", "--n", str(10**7), "--seed", "1"]),  # make_cable would allocate 1..n first
    (10**7, ["verify", "-"]),  # a 70-byte document
])
def test_n_above_max_n_exits_3_before_any_work_of_size_n(n, argv, capsys, monkeypatch):
    stop_at_the_work_of_size_n(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(document_of_size(n)))
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: n must be at most 1000000, got n={n}\n")


@pytest.mark.parametrize("argv, step", [
    (["construct", "--n", "1000000"], "feasible_orders"),
    (["construct", "--n", "1000000", "--m", "1413"], "represent"),
    (["simulate", "--n", "1000000", "--seed", "1"], "make_cable"),
    (["verify", "-"], "_verdict"),
])
def test_n_at_max_n_reaches_the_work(argv, step, capsys, monkeypatch):
    assert cli.MAX_N == 10**6
    stop_at_the_work_of_size_n(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(document_of_size(10**6)))
    assert run(capsys, *argv) == (EXIT_INTERNAL, "", f"error: internal error: Reached: {step}\n")


# ── internal check failures ──────────────────────────────────────────────

def test_protocol_error_exits_4(capsys, monkeypatch):
    original = cable._assemble_b_sets

    def miswired(*args):
        groups, column_of = original(*args)
        return swap_first_and_last(groups), column_of

    monkeypatch.setattr(cable, "_assemble_b_sets", miswired)
    code, out, err = run(capsys, "simulate", "--n", "26", "--seed", "3")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: internal check failed: coordinate mismatch at position")
    assert err.count("\n") == 1


def test_assembly_error_exits_4(capsys, monkeypatch):
    original = cable._assemble_b_sets

    def misread(r, side, readings):
        readings = list(readings)
        readings[readings.index(5)] = 6
        return original(r, side, readings)

    monkeypatch.setattr(cable, "_assemble_b_sets", misread)
    code, out, err = run(capsys, "simulate", "--n", "26", "--seed", "3")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal check failed: observed 4 wires of bundle size 5 but the scheme has 5\n"


def test_construction_error_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(matrices, "_construct", flip_off_diagonal_cell(matrices._construct))
    code, out, err = run(capsys, "construct", "--n", "26")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: internal check failed: the constructed matrix for r=")
    assert err.endswith("is not symmetric\n") and err.count("\n") == 1


def test_simulate_construction_error_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(matrices, "_construct", flip_off_diagonal_cell(matrices._construct))
    code, out, err = run(capsys, "simulate", "--n", "26", "--seed", "3", "--format", "structured")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.endswith("is not symmetric\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["construct", "simulate"])
@pytest.mark.parametrize("t, message", [
    ((2, 3, 3), "error: internal check failed: row 2 has sum 3, not a multiple of 2\n"),  # t_2 not a multiple of 2
    ((1, 2, 3), "error: internal check failed: need exactly 6 labels (one per 1-entry), got 8\n"),  # sums to 6, not 8
    ((3, 0, 3), "error: internal check failed: sums are not constructible (need equal totals and, once sorted "
                "nonincreasing, gap-free within [0, m]): r=3,0,3 c=3,0,3\n"),  # not gap-free
])
def test_a_representation_the_construction_cannot_cut_is_rejected_through_main(command, t, message, capsys,
                                                                               monkeypatch):
    # The construction's own checks must reject them. The input n passed its checks, so the fault is
    # the construction's own (represent's output here): an internal error, exit 4.
    rep = matrices._unchecked(partitions.Representation, m=3, t=t, s=0, k=1)
    monkeypatch.setattr(partitions, "represent", lambda n, m: rep)
    assert run(capsys, command, "--n", "8") == (EXIT_INTERNAL, "", message)


def test_construction_output_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(matrices, "_construct", flip_first_cell(matrices._construct))
    code, out, err = run(capsys, "construct", "--n", "26")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == ("error: internal check failed: "
                   "the constructed matrix does not realize r=6,2,3,4,5,6 c=6,2,3,4,5,6\n")


def test_unexpected_exception_exits_4_with_one_line(capsys, monkeypatch):
    def crash(n, m):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_checked_construction", crash)
    code, out, err = run(capsys, "construct", "--n", "26")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("argv", [["construct", "--n", "26"], ["simulate", "--n", "26", "--seed", "1"]])
def test_memory_error_below_max_n_exits_4_with_one_line(argv, capsys, monkeypatch):
    """Running out of memory below MAX_N is wireid's fault, not the input's: exit 4,
    one line. The construction is made to raise, so nothing large is allocated."""
    def exhausted(n, m):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "_checked_construction", exhausted)
    assert run(capsys, *argv) == (EXIT_INTERNAL, "", "error: internal error: MemoryError: out of memory\n")


# ── the exit table ───────────────────────────────────────────────────────

def test_only_main_picks_a_failure_status():
    """The commands raise and main's except clauses alone map the exception
    to exit 1, 3 or 4; a command returns 0, or 2 for verify's verdict."""
    tree = ast.parse(inspect.getsource(cli))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {node.name for node in commands} == {"cmd_construct", "cmd_bounds", "cmd_verify", "cmd_simulate"}
    failure_statuses = {"EXIT_INFEASIBLE", "EXIT_USAGE", "EXIT_INTERNAL"}
    named = sorted(f"{node.name} names {name.id}" for node in commands for name in ast.walk(node)
                   if isinstance(name, ast.Name) and name.id in failure_statuses)
    assert not named, named


# ── a reader that closes a stream early ──────────────────────────────────

def run_and_close_early(argv, stream):
    """Exit status and the bytes left on the other stream when a reader
    takes 10 bytes of stream ("stdout" or "stderr") and closes it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "wireid.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    closed, other = (proc.stdout, proc.stderr) if stream == "stdout" else (proc.stderr, proc.stdout)
    try:
        assert len(closed.read(10)) == 10
        closed.close()
        rest = other.read()
        return proc.wait(timeout=60), rest
    finally:
        proc.kill()
        proc.wait()
        other.close()


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "100000"],  # print
    ["simulate", "--n", "50000", "--format", "structured"],  # one sys.stdout.write
    ["bounds", "--max-m", "1413", "--format", "structured"],  # one print of 104,073 bytes, more than a pipe holds
])
def test_a_reader_closing_stdout_early_gets_exit_0_and_no_stderr(argv):
    assert run_and_close_early(argv, "stdout") == (EXIT_OK, b"")


def test_a_reader_closing_stderr_early_leaves_the_verdict(tmp_path):
    # One "do not cover" line lists 99,999 labels, far more than a pipe holds.
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"schema": "kg-partition/1", "n": 100000, "a_sets": [[1]], "b_sets": [[1]]}))
    assert run_and_close_early(["verify", str(path)], "stderr") == (EXIT_INVALID, b"")


class UnwritableStderr(io.StringIO):
    """A stderr whose every write raises error."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "reader gone"), OSError(errno.EBADF, "fd 2 closed")])
@pytest.mark.parametrize("argv, crash, status", [
    (["construct", "--n", "5"], None, EXIT_INFEASIBLE),
    (["construct", "--n", "0"], None, EXIT_USAGE),
    (["verify", "/no/such/file.json"], None, EXIT_USAGE),
    (["simulate", "--n", "26", "--seed", "-1"], None, EXIT_USAGE),
    (["bounds", "--max-m", "0"], None, EXIT_USAGE),
    (["construct", "--n", "26"], partitions.ConstructionError("lost"), EXIT_INTERNAL),
    (["construct", "--n", "26"], KeyError("lost"), EXIT_INTERNAL),
])
def test_an_error_line_on_a_closed_stderr_leaves_the_status(argv, crash, status, error, monkeypatch):
    if crash is not None:
        def crashing(n, m):
            raise crash

        monkeypatch.setattr(cli, "_checked_construction", crashing)
    monkeypatch.setattr("sys.stderr", UnwritableStderr(error))
    assert main(argv) == status


def test_a_closed_stderr_pipe_leaves_exit_3():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stderr fails with EPIPE
    try:
        result = subprocess.run([sys.executable, "-m", "wireid.cli", "construct", "--n", "0"], stdout=subprocess.PIPE,
                                stderr=write_end, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (EXIT_USAGE, b"")


def test_an_error_line_with_fd_2_closed_leaves_exit_3():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    result = subprocess.run([sys.executable, "-m", "wireid.cli", "construct", "--n", "0"], stdout=subprocess.PIPE,
                            preexec_fn=lambda: os.close(2), env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (result.returncode, result.stdout) == (EXIT_USAGE, b"")


# ── the console script ───────────────────────────────────────────────────

@pytest.mark.parametrize("argv, status", [
    (["construct", "--n", "26"], EXIT_OK),
    (["--help"], EXIT_OK),
    (["construct", "--n", "x"], EXIT_USAGE),
])
def test_main_without_argv_reads_the_command_line(argv, status, capsys, monkeypatch):
    """The wireid console script calls main() with no argv, so it reads sys.argv[1:]: run as
    python -m wireid.cli, it exits and writes what main(argv) does in-process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    result = subprocess.run([sys.executable, "-m", "wireid.cli", *argv], capture_output=True,
                            env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), timeout=60)
    monkeypatch.setenv("COLUMNS", "80")
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == exit_and_streams(capsys, argv)
    assert result.returncode == status


# ── the cyclic collector ─────────────────────────────────────────────────

@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys, monkeypatch):
    singletons = (frozenset({1}), frozenset({2}))  # both elements in cell (1,1)
    invalid = partitions.partition_to_json(partitions.KgPartition(2, singletons, singletons))
    monkeypatch.setattr("sys.stdin", io.StringIO(invalid))
    cases = [
        (["simulate", "--n", "26", "--seed", "3"], EXIT_OK),
        (["construct", "--n", "5"], EXIT_INFEASIBLE),
        (["verify", "-"], EXIT_INVALID),
        (["bounds", "--max-m", "0"], EXIT_USAGE),
        (["construct", "--n", "0"], EXIT_USAGE),
        (["construct", "--n", "26"], EXIT_INTERNAL),
    ]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, expected in cases:
            if expected == EXIT_INTERNAL:
                monkeypatch.setattr(cli, "_checked_construction", lambda n, m: 1 / 0)
            assert run(capsys, *argv)[0] == expected, argv
            assert gc.isenabled() == enabled, argv
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "x"])
        assert excinfo.value.code == EXIT_USAGE and gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def garbage_per_run(capsys, argvs):
    """The unreachable objects gc.collect() finds after each run of main, the collector off while they run."""
    was_enabled = gc.isenabled()
    gc.disable()
    counts = []
    try:
        for argv in argvs:
            gc.collect()
            assert main(argv) == EXIT_OK
            counts.append(gc.collect())
            capsys.readouterr()
    finally:
        if was_enabled:
            gc.enable()
    return counts


def test_a_run_leaves_no_cyclic_garbage_that_grows_with_n(capsys):
    """With the collector off, a run in the plain form leaves no unreachable objects, and one that argparse
    reads leaves argparse's alone: as many at n = 20000 as at n = 1000. The pipeline builds no reference
    cycles, so main loses nothing by switching the collector off."""
    plain = [["simulate", "--n", "1000"], ["simulate", "--n", "20000", "--format", "structured"]]
    assert garbage_per_run(capsys, plain) == [0, 0]
    # The first run warms caches that later runs reuse.
    parsed = [["simulate", "--n=1000"], ["simulate", "--n=1000"], ["simulate", "--n=20000", "--format=structured"]]
    counts = garbage_per_run(capsys, parsed)
    assert counts[1] == counts[2] > 0, counts


def test_construct_leaves_no_more_garbage_in_either_format_than_the_grid_run(capsys):
    """The structured head's lists and ints, and the structured bounds table, are written without json's
    indenting encoder, whose closures reference each other: with the collector off, construct at n = 1000 or
    n = 20000 and bounds --max-m 10, in either format, leave no unreachable objects, as construct's grid run
    at n = 1000 leaves none."""
    argvs = [["construct", "--n", "1000"], ["construct", "--n", "1000", "--format", "structured"],
             ["construct", "--n", "20000", "--format", "structured"], ["construct", "--n", "20000"],
             ["bounds", "--max-m", "10", "--format", "structured"], ["bounds", "--max-m", "10"]]
    assert garbage_per_run(capsys, argvs) == [0] * len(argvs)

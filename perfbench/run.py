"""wireid benchmark: closed-loop CLI requests, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct_large --seed 1 --seconds 25 --trace 0

One client sends one request at a time (a closed loop). Every request is one
`wireid` invocation, run as wireid.cli.main(argv) in a fresh worker process
(worker.py), so each pays the cold start a real invocation pays. A pass
sends the workload's fixed request list once. Passes repeat until the next
one would end after --seconds, with at least MIN_PASSES of them.

Reported times are reference seconds: each worker also times a fixed piece
of interpreter work (calibrate.py), and its request's times are scaled by how
fast that work ran. The record keeps the raw times.

The first pass checks every output with checks.py, which does not import
wireid; later passes must reproduce its bytes exactly. A SHA-256 over every
request's exit status and stdout is compared with reference_digests.json
when that file has an entry for the workload and seed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: self times, call counts and
errors per wrapped function and module (see tracer.py), log-log slopes of
self time against n, and the tracing overhead. Spans are written to
perfbench/out/ when the run ends.

The last line of stdout is the result object; the line before it is the
run's record (versions, sizes, percentile used, digests, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from calibrate import REFERENCE_S
from tracer import MODULES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference_digests.json")

MIN_PASSES = 3
REQUEST_TIMEOUT_S = 120
STOP_STARTING_PASSES_S = 120  # keep the whole run under the 180 s limit
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)

TIMED_SELF = (
    "matrices.construct_matrix",
    "matrices.permute_to_sums",
    "matrices.BinaryMatrix",
    "matrices.BinaryMatrix.to_text",
    "partitions.feasible_orders",
    "partitions.represent",
    "partitions.construct_trace",
    "partitions.matrix_to_partition",
    "partitions.KgPartition",
    "partitions.partition_from_json",
    "partitions.kg_violations",
    "partitions.partition_to_matrix",
    "cable.make_cable",
    "cable.ConnectionPlan",
    "cable.probe",
    "cable.run_protocol",
    "cable.transcript_to_json",
    "cli.main",
)
COUNTED = ("matrices.construct_matrix", "partitions.kg_violations", "cable.probe")
SLOPED = (
    "matrices.construct_matrix",
    "partitions.matrix_to_partition",
    "partitions.kg_violations",
    "cable.run_protocol",
)


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def run_request(request_id: int, request, traced: bool) -> dict:
    """Start a worker, time its cold start, send it one request, collect the reply.

    "setup_s" and "seconds" are in reference seconds (see calibrate.py);
    "raw_setup_s" and "raw_seconds" are as measured."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.read(1)
        setup_s = time.perf_counter() - start
        if ready != b"R":
            raise HarnessError(f"worker did not start (exit status {proc.wait()})")
        message = marshal.dumps((request_id, list(request.argv), request.stdin, traced))
        try:
            raw, _ = proc.communicate(message, timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"setup_s": setup_s, "error": f"no reply within {REQUEST_TIMEOUT_S} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        code, stdout, seconds, rss_kb, calibration_s, spans, error = marshal.loads(raw)
    except (EOFError, ValueError, TypeError) as exc:
        return {"setup_s": setup_s, "error": f"worker died (exit status {proc.returncode}): {exc}"}
    scale = REFERENCE_S / calibration_s
    return {
        "setup_s": setup_s * scale,
        "raw_setup_s": setup_s,
        "code": code,
        "stdout": stdout,
        "seconds": seconds * scale,
        "raw_seconds": seconds,
        "scale": scale,
        "rss_kb": rss_kb,
        "spans": spans,
        "error": error,
    }


def output_digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(f"{code}\n".encode() + stdout).hexdigest()


def run_pass(requests, traced: bool, first: list | None, failures: list) -> list[dict]:
    """Send every request once. With first=None, check every output; later
    passes must reproduce the first pass's bytes and share its verdict."""
    replies = []
    for i, request in enumerate(requests):
        reply = run_request(i, request, traced)
        problem = reply["error"]
        if problem is None:
            reply["digest"] = output_digest(reply["code"], reply["stdout"])
            if first is None:
                problem = request.check(reply["code"], reply["stdout"])
            elif first[i].get("digest") != reply["digest"]:
                problem = "output differs from the first pass"
            elif not first[i]["ok"]:
                problem = "same output as the first pass, which failed its check"
        reply["ok"] = problem is None
        if problem:
            failures.append(f"request {i} {' '.join(request.argv)}: {problem}")
        reply["stdout_bytes"] = len(reply.pop("stdout", b""))
        replies.append(reply)
    return replies


def tail_level(samples_min: int) -> float:
    """Highest ladder percentile with at least ten of samples_min samples beyond it.
    It depends on the list length alone, so faster code, which makes more
    passes, still reports the same percentile."""
    for level in TAIL_LADDER:
        if samples_min * (100 - level) / 100 >= 10:
            return level
    return 50.0


def percentile(values: list[float], level: float) -> float:
    """Harrell-Davis estimate of a percentile: the mean of all order statistics,
    weighted by the Beta((k+1)q, (k+1)(1-q)) mass over each one's 1/k of [0, 1].
    Request costs in a list differ by design, so a single order statistic jumps
    across the gap between two requests with run-to-run noise; this weighted
    mean moves smoothly."""
    ordered = sorted(values)
    k, q = len(ordered), level / 100
    a, b = (k + 1) * q, (k + 1) * (1 - q)
    steps = 64
    logs = []
    for i in range(k):
        xs = [(i + (j + 0.5) / steps) / k for j in range(steps)]
        logs.append([(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs])
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(requests, passes, level: float, measure_s: float) -> dict:
    untraced = [p for traced, p in passes if not traced]
    # A request's latency is its median over the passes. A failed sample misses
    # every latency limit: it counts as taking the whole run.
    latencies = [
        statistics.median(r["seconds"] if r["ok"] else measure_s for r in column) for column in zip(*untraced)
    ]
    wall = robust_wall(untraced, measure_s)
    attempted = sum(len(p) for _, p in passes)
    failed = sum(not r["ok"] for _, p in passes for r in p)
    return {
        "setup_s": (statistics.median(r["setup_s"] for p in untraced for r in p), "s"),
        "wall_s": (wall, "s"),
        "elements_per_s": (sum(r.n for r in requests) / wall, "1/s"),
        "request_p50_s": (percentile(latencies, 50), "s"),
        "request_tail_s": (percentile(latencies, level), "s"),
        "peak_rss_mb": (statistics.median(max(r.get("rss_kb", 0) for r in p) / 1024 for p in untraced), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def robust_wall(replies_per_pass, missing: float, key: str = "seconds") -> float:
    """Time for one pass of the list: each request's median over the passes, summed.
    A burst of machine noise then moves one sample of a request, not the total."""
    return sum(statistics.median(r.get(key, missing) for r in column) for column in zip(*replies_per_pass))


def median_of_present(replies_per_pass, key: str) -> float | None:
    """Median of `key` over the replies that have it; None when none has."""
    values = [r[key] for p in replies_per_pass for r in p if key in r]
    return statistics.median(values) if values else None


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse_traced_pass(requests, replies) -> tuple[dict, dict]:
    """Per-layer totals for one traced pass, and per-request self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    per_request: dict[str, list] = defaultdict(list)
    for request, reply in zip(requests, replies):
        spans = reply.get("spans") or []
        child = [0.0] * len(spans)
        for _, _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        mine: dict[str, float] = defaultdict(float)
        for rid, sid, parent, name, start, end, raised in spans:
            self_s = (end - start - child[sid]) * reply["scale"]
            mine[name] += self_s
            totals[f"{name}.calls"] += 1
            totals[f"{module_of(name)}.self_s"] += self_s
            if raised and (parent < 0 or module_of(spans[parent][3]) != module_of(name)):
                totals[f"{module_of(name)}.errors"] += 1
        for name, self_s in mine.items():
            totals[f"{name}.self_s"] += self_s
            per_request[name].append((request.n, self_s))
        totals["cli.stdout_bytes"] += reply["stdout_bytes"]
        totals["trace.spans"] += len(spans)
    return totals, per_request


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(self time) against log(n); 0 when undefined."""
    xs = [math.log(n) for n, t in points if t > 0]
    ys = [math.log(t) for n, t in points if t > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(requests, passes) -> dict:
    traced = [analyse_traced_pass(requests, p) for is_traced, p in passes if is_traced]
    traced_wall = robust_wall([p for is_traced, p in passes if is_traced], 0.0)
    untraced_wall = robust_wall([p for is_traced, p in passes if not is_traced], 0.0)

    def median_of(key: str) -> float:
        return statistics.median(totals.get(key, 0.0) for totals, _ in traced)

    metrics = {}
    for name in TIMED_SELF:
        metrics[f"{name}.self_s"] = (median_of(f"{name}.self_s"), "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (median_of(f"{name}.calls"), "count")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (median_of(f"{module}.self_s"), "s")
        metrics[f"{module}.errors"] = (median_of(f"{module}.errors"), "count")
    metrics["cli.stdout_bytes"] = (median_of("cli.stdout_bytes"), "B")
    for name in SLOPED:
        points = [pt for _, per_request in traced for pt in per_request.get(name, [])]
        metrics[f"{name}.slope"] = (loglog_slope(points), "1")
    named = sum(metrics[f"{name}.self_s"][0] for name in TIMED_SELF)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.self_share"] = (named / traced_wall if traced_wall else 0.0, "ratio")
    metrics["trace.spans"] = (median_of("trace.spans"), "count")
    return metrics


def repo_facts() -> dict:
    """Python version, usable cores, commit and size of src/ for the record."""
    lines, digest = 0, hashlib.sha256()
    for folder, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(path.encode() + b"\0" + data)
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD's commit, read from ./.git; 'unknown' outside a repository. git itself
    is not run because it would search the parent directories for a repository."""
    try:
        with open(".git/HEAD", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_setup(workload: str, seed: int) -> tuple[list, list[str]]:
    """The timed request list, and the digests of the set-up requests' outputs."""
    setup, build = WORKLOADS[workload]
    built, digests = [], []
    for i, request in enumerate(setup(seed)):
        reply = run_request(i, request, False)
        problem = reply["error"] or request.check(reply["code"], reply["stdout"])
        if problem:
            raise HarnessError(f"set-up request {' '.join(request.argv)} failed: {problem}")
        built.append(reply["stdout"])
        digests.append(output_digest(reply["code"], reply["stdout"]))
    return build(seed, built), digests


def measure(requests, seconds: float, trace: bool, failures: list) -> list[tuple[bool, list[dict]]]:
    """At least MIN_PASSES passes, more while the next is expected to end
    within `seconds`; with `trace`, every second pass is traced."""
    passes: list[tuple[bool, list[dict]]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed + statistics.median(durations) > seconds or elapsed > STOP_STARTING_PASSES_S
        ):
            return passes
        traced = trace and len(passes) % 2 == 1
        first = passes[0][1] if passes else None
        passes.append((traced, run_pass(requests, traced, first, failures)))
        durations.append(time.perf_counter() - start - elapsed)


def compare_digest(workload: str, seed: int, digest: str, write: bool) -> tuple[str | None, bool]:
    """The reference digest for (workload, seed), if any, and whether `digest` matches it.
    With `write`, store `digest` as the reference first."""
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    if write:
        reference.setdefault(workload, {})[str(seed)] = digest
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2, sort_keys=True)
            handle.write("\n")
    expected = reference.get(workload, {}).get(str(seed))
    return expected, expected is None or expected == digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's digest as the reference for the workload and seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wireid", "cli.py")):
        raise HarnessError("run from the root of a wireid checkout: src/wireid/cli.py not found")

    started = time.perf_counter()
    requests, digests = run_setup(args.workload, args.seed)
    build_s = time.perf_counter() - started
    failures: list[str] = []
    started = time.perf_counter()
    passes = measure(requests, args.seconds, bool(args.trace), failures)
    measure_s = time.perf_counter() - started

    digests += [r.get("digest", "-") for r in passes[0][1]]
    digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
    expected, digest_ok = compare_digest(
        args.workload, args.seed, digest, args.write_reference and not failures
    )
    if not digest_ok:
        print(f"digest mismatch: {digest} != reference {expected}", file=sys.stderr)

    untraced = [p for traced, p in passes if not traced]
    samples = sum(len(p) for p in untraced)
    level = tail_level(MIN_PASSES * len(requests))
    if args.trace:
        metrics = per_layer(requests, passes)
    else:
        metrics = end_to_end(requests, passes, level, measure_s)
    result = {
        "correct": not failures and digest_ok,
        "attempted": sum(len(p) for _, p in passes),
        "failed": sum(not r["ok"] for _, p in passes for r in p),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **repo_facts(),
        "requests_per_pass": len(requests),
        "passes": len(passes),
        "traced_passes": len(passes) - len(untraced),
        "build_s": build_s,
        "measure_s": measure_s,
        "raw_wall_s": robust_wall(untraced, measure_s, "raw_seconds"),
        "raw_setup_s": median_of_present(untraced, "raw_setup_s"),
        "reference_s": REFERENCE_S,
        "median_scale": median_of_present(untraced, "scale"),
        "tail_percentile": level,
        "latency_samples": samples,
        "samples_beyond_tail": samples - math.ceil(level / 100 * samples),
        "digest": digest,
        "reference_digest": expected,
        "digest_ok": digest_ok,
        "failures": failures[:20],
    }
    write_outputs(args, requests, passes, record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def write_outputs(args, requests, passes, record: dict, result: dict) -> None:
    """Record, result and every request's samples to perfbench/out/; spans too when traced."""
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    samples = [
        {
            "argv": " ".join(request.argv),
            "n": request.n,
            **{key: [p[i].get(key) for _, p in passes] for key in ("seconds", "raw_seconds", "scale", "rss_kb")},
        }
        for i, request in enumerate(requests)
    ]
    with open(os.path.join(OUT_DIR, f"result-{name}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result, "requests": samples}, handle, indent=2)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{name}.jsonl"), "w", encoding="utf-8") as handle:
            for index, (traced, replies) in enumerate(passes):
                for reply in replies if traced else ():
                    for span in reply.get("spans") or ():
                        handle.write(json.dumps([index, *span]) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)

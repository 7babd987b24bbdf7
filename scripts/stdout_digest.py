"""One SHA-256 over what the wireid command writes across a sweep of inputs.

Runs ``wireid.cli.main`` in-process and hashes the exit status, stdout and
stderr of every request:

- ``construct`` and ``simulate`` (wiring seeds 0 and 3) in both formats for
  every n below 200 (or below --max-n) at up to three feasible orders (an n
  with none runs once, without --m), and for n = 1000, 5000 and 20000 where
  they do not exceed --max-n;
- ``construct`` in both formats at the largest feasible order of n = 1000,
  5000 and 20000 (again up to --max-n), where every set size has many sets;
- ``verify -`` of every structured construct document and of four copies:
  its first A-set label moved out of range; the pair relabelled with its
  sets shuffled (valid, not in canonical order); two labels swapped between
  A-sets of different sizes so that some cell holds two elements (where such
  a swap exists); and one label repeated inside its own set;
- ``bounds`` in both formats at a few --max-m values, 0 included;
- requests that fail on their input: ``verify`` of a missing file, ``verify
  -`` of malformed JSON, of a wrong schema and of a non-integer label, a
  negative wiring seed, n = 0 and an order too small for n.

Two checkouts write the same bytes for these requests iff they print the
same digest:

    PYTHONPATH=src python scripts/stdout_digest.py [--max-n N]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys

from wireid.cli import main
from wireid.partitions import feasible_orders

SMALL_N = 200
LARGE_N = (1000, 5000, 20000)
BOUNDS_MAX_M = (0, 1, 2, 3, 10, 50, 300)
MISSING_PATH = "/nonexistent/wireid-digest.json"
BAD_DOCUMENTS = (
    '{"schema": "kg-partition/1", "n": 1, "a_sets": [[1]]',
    '{"schema": "kg-other/1", "n": 1, "a_sets": [[1]], "b_sets": [[1]]}',
    '{"schema": "kg-partition/1", "n": 2, "a_sets": [[1, 2.5]], "b_sets": [[1], [2]]}',
)
REJECTED = (
    ["simulate", "--n", "10", "--seed", "-1"],
    ["construct", "--n", "0"],
    ["construct", "--n", "10", "--m", "2"],
)


def run(digest, argv: list[str], stdin: str = "") -> str:
    """Run one request into digest; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse usage errors
                status = exc.code
    finally:
        sys.stdin = saved_stdin
    for part in (" ".join(argv), str(status), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    return out.getvalue()


def relabelled(rng: random.Random, n: int, payload: dict) -> dict:
    """The pair under a random relabelling of 1..n, each side's sets and each
    set's labels shuffled."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = dict(payload)
    for field in ("a_sets", "b_sets"):
        sets = [[perm[x - 1] for x in s] for s in payload[field]]
        for s in sets:
            rng.shuffle(s)
        rng.shuffle(sets)
        out[field] = sets
    return out


def crowding_swap(payload: dict) -> dict | None:
    """A copy with two labels swapped between A-sets of different sizes so
    that some (j, k) cell holds two elements, or None if no swap does that."""
    a_sets, b_sets = payload["a_sets"], payload["b_sets"]
    b_size = {x: len(s) for s in b_sets for x in s}
    holder = {(len(s), b_size[x]): x for s in a_sets for x in s}
    for i, s in enumerate(a_sets):
        for t in a_sets[i + 1 :]:
            if len(s) == len(t):
                continue
            for x in s:
                for y in t:
                    # x moves to cell (|t|, k_x), y to (|s|, k_y); each cell keeps its old holder
                    if holder.get((len(t), b_size[x]), y) != y or holder.get((len(s), b_size[y]), x) != x:
                        swap = {x: y, y: x}
                        sets = [[swap.get(z, z) for z in u] for u in a_sets]
                        return {**payload, "a_sets": sets}
    return None


def sweep(digest, n: int) -> None:
    orders = [str(m) for m in feasible_orders(n)[:3]]
    for order in ([["--m", m] for m in orders] or [[]]):
        run(digest, ["construct", "--n", str(n), *order, "--format", "grid"])
        doc = run(digest, ["construct", "--n", str(n), *order, "--format", "structured"])
        for fmt in ("grid", "structured"):
            for seed in ("0", "3"):
                run(digest, ["simulate", "--n", str(n), *order, "--seed", seed, "--format", fmt])
        if orders:
            run(digest, ["verify", "-"], doc)
            payload = json.loads(doc)
            rng = random.Random(f"{n}:{order}")
            shuffled, swapped, repeated = (relabelled(rng, n, payload) for _ in range(3))
            side = rng.choice(repeated["a_sets"] + repeated["b_sets"])
            side.append(rng.choice(side))
            payload["a_sets"][0][0] = n + 1
            for copy in (payload, shuffled, crowding_swap(swapped), repeated):
                if copy is not None:
                    run(digest, ["verify", "-"], json.dumps(copy, indent=2))


def widest(digest, n: int) -> None:
    m = str(feasible_orders(n)[-1])
    for fmt in ("grid", "structured"):
        run(digest, ["construct", "--n", str(n), "--m", m, "--format", fmt])


def main_sweep(max_n: int) -> str:
    digest = hashlib.sha256()
    for n in [*range(1, min(max_n, SMALL_N)), *(n for n in LARGE_N if n <= max_n)]:
        sweep(digest, n)
    for n in LARGE_N:
        if n <= max_n:
            widest(digest, n)
    for max_m in BOUNDS_MAX_M:
        for fmt in ("grid", "structured"):
            run(digest, ["bounds", "--max-m", str(max_m), "--format", fmt])
    run(digest, ["verify", MISSING_PATH])
    for doc in BAD_DOCUMENTS:
        run(digest, ["verify", "-"], doc)
    for argv in REJECTED:
        run(digest, argv)
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=LARGE_N[-1],
                        help="sweep n below min(200, this) and the large n up to it (default 20000)")
    print(main_sweep(parser.parse_args().max_n))

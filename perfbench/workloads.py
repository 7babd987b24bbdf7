"""The benchmark's request lists, generated from a seed.

A workload is a fixed list of wireid invocations (argv plus stdin). The
program sees nothing else. Each request carries its own output check from
checks.py and the n it works on. Request sizes are stratified: the range is
cut into equal strata of n**-power, one request at the centre of each,
moved by a seeded factor of up to 0.5%. That keeps most requests near the
small end, gives every seed other inputs, and keeps both the total work of
a list and its largest request nearly the same from seed to seed, so that
run-to-run spread measures the program, not the draw.

WORKLOADS maps a name to (setup, requests). setup(seed) lists requests run
before timing; requests(seed, outputs) builds the timed list from their
stdout. Only verify_docs has set-up: the constructs whose documents it reads.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Callable

import checks

GRID, STRUCTURED = "grid", "structured"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    n: int
    check: Callable[[int, bytes], str | None]  # (exit status, stdout) -> problem or None
    stdin: bytes | None = None


def stratified_sizes(rng: random.Random, count: int, lo: int, hi: int, power: float = 1.0) -> list[int]:
    """The centres of equal strata of n**-power over [lo, hi], each moved by up to 0.5%."""
    sizes = []
    for i in range(count):
        u = (i + 0.5) / count
        centre = (lo**-power - u * (lo**-power - hi**-power)) ** (-1 / power)
        sizes.append(round(centre * rng.uniform(0.995, 1.005)))
    return sizes


def _expect_ok(check: Callable[[bytes], str | None], code: int, stdout: bytes) -> str | None:
    if code != 0:
        return f"exit status {code}, want 0"
    return check(stdout)


def construct_request(n: int, fmt: str, m: int | None = None) -> Request:
    argv = ["construct", "--n", str(n), "--format", fmt]
    if m is not None:
        argv += ["--m", str(m)]
    check = functools.partial(checks.check_construct, n, m, fmt)
    return Request(tuple(argv), n, functools.partial(_expect_ok, check))


def simulate_request(n: int, seed: int, fmt: str) -> Request:
    argv = ("simulate", "--n", str(n), "--seed", str(seed), "--format", fmt)
    check = functools.partial(checks.check_simulate, n, seed, fmt)
    return Request(argv, n, functools.partial(_expect_ok, check))


def construct_large(seed: int) -> list[Request]:
    """12 smallest-order constructs over n in 2e4..1e5 (strata of n**-2, so
    that the O(n**1.5) cost of the largest does not swamp the rest), formats
    alternating, and two at n = min_elements(m) with --m given: m near 200
    and near 250."""
    rng = random.Random(f"construct_large:{seed}")
    sizes = stratified_sizes(rng, 12, 20_000, 100_000, power=2)
    requests = [construct_request(n, (GRID, STRUCTURED)[i % 2]) for i, n in enumerate(sizes)]
    for m, fmt in ((rng.randint(199, 201), GRID), (rng.randint(249, 251), STRUCTURED)):
        requests.append(construct_request(m * (m + 1) // 2, fmt, m))
    return requests


def simulate_seeded(seed: int) -> list[Request]:
    """14 simulations over n in 5e3..3e4 with distinct positive wiring seeds,
    formats alternating."""
    rng = random.Random(f"simulate_seeded:{seed}")
    sizes = stratified_sizes(rng, 14, 5_000, 30_000)
    wiring_seeds = rng.sample(range(1, 2**31), len(sizes))
    return [
        simulate_request(n, s, (GRID, STRUCTURED)[i % 2])
        for i, (n, s) in enumerate(zip(sizes, wiring_seeds))
    ]


VERIFY_BASES = 4
MALFORMED_BASES = (1, 3)


def verify_docs_setup(seed: int) -> list[Request]:
    """The structured constructs whose output verify_docs reads."""
    rng = random.Random(f"verify_docs:{seed}")
    return [construct_request(n, STRUCTURED) for n in stratified_sizes(rng, VERIFY_BASES, 20_000, 100_000)]


def _relabel(rng: random.Random, sets: list[list[int]], perm: list[int]) -> list[list[int]]:
    out = [[perm[x - 1] for x in s] for s in sets]
    rng.shuffle(out)
    return out


def _swap_invalid(rng: random.Random, n: int, a_sets: list[list[int]], b_sets: list[list[int]]) -> list[list[int]]:
    """A-sets with two elements of different A-set sizes swapped, chosen so
    that some (j, k) cell then holds two elements."""
    for _ in range(1000):
        s, t = rng.sample(range(len(a_sets)), 2)
        if len(a_sets[s]) == len(a_sets[t]):
            continue
        i, j = rng.randrange(len(a_sets[s])), rng.randrange(len(a_sets[t]))
        swapped = [list(x) for x in a_sets]
        swapped[s][i], swapped[t][j] = a_sets[t][j], a_sets[s][i]
        if checks.pair_problem(n, swapped, b_sets) == "some (j,k) cell holds two elements":
            return swapped
    raise RuntimeError("no invalidating swap found")


def _verify_request(n: int, doc: bytes, want_code: int, want_stdout: bytes = b"") -> Request:
    return Request(("verify", "-"), n, functools.partial(checks.check_verify, want_code, want_stdout), doc)


def verify_docs(seed: int, built: list[bytes]) -> list[Request]:
    """Four documents per built construction: the construct output itself;
    the pair relabelled and its sets shuffled (still valid); a relabelled
    kg-partition/1 document with one swap that breaks the KG property
    (exit 2); and either another valid relabelling or, for two of the
    bases, a malformed document (exit 3)."""
    rng = random.Random(f"verify_docs:{seed}:docs")
    requests = []
    for base, raw in enumerate(built):
        doc = json.loads(raw)
        n, a_sets, b_sets = doc["n"], doc["a_sets"], doc["b_sets"]
        valid = f"valid Knowlton-Graham pair: n={n} order={checks.order_of(a_sets, b_sets)}\n".encode()
        requests.append(_verify_request(n, raw, 0, valid))

        def relabelled():
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            return _relabel(rng, a_sets, perm), _relabel(rng, b_sets, perm)

        a1, b1 = relabelled()
        requests.append(_verify_request(n, json.dumps({**doc, "a_sets": a1, "b_sets": b1}, indent=2).encode(), 0, valid))

        a2, b2 = relabelled()
        bad = {"schema": "kg-partition/1", "n": n, "a_sets": _swap_invalid(rng, n, a2, b2), "b_sets": b2}
        requests.append(_verify_request(n, json.dumps(bad, indent=2).encode(), 2))

        a3, b3 = relabelled()
        fourth = {"schema": "kg-partition/1", "n": n, "a_sets": a3, "b_sets": b3}
        if base == MALFORMED_BASES[0]:
            b3[-1][-1] = str(b3[-1][-1])  # a string label: well-formed JSON, wrong type
            requests.append(_verify_request(n, json.dumps(fourth, indent=2).encode(), 3))
        elif base == MALFORMED_BASES[1]:
            text = json.dumps(fourth, indent=2)
            requests.append(_verify_request(n, text[: len(text) * 3 // 5].encode(), 3))  # truncated JSON
        else:
            requests.append(_verify_request(n, json.dumps(fourth, indent=2).encode(), 0, valid))
    return requests


WORKLOADS = {
    "construct_large": (lambda seed: [], lambda seed, built: construct_large(seed)),
    "simulate_seeded": (lambda seed: [], lambda seed, built: simulate_seeded(seed)),
    "verify_docs": (verify_docs_setup, verify_docs),
}

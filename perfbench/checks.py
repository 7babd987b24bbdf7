"""Output checks for the benchmark, written without importing wireid.

Each check takes the request's parameters and the program's stdout and
returns None when the output is right, or a one-line reason when it is not.
The checks recount everything from the printed sets themselves, so a defect
in the program's own verifier cannot hide a wrong answer here.
"""

from __future__ import annotations

import json
import random
import re

SET_RE = re.compile(r"\{([0-9,]*)\}")
COORD_RE = re.compile(r"\((\d+),(\d+)\)")


def max_elements(m: int) -> int:
    """J(m) = sum over j of j * floor(m / j), the largest n of order m."""
    return sum(j * (m // j) for j in range(1, m + 1))


def smallest_order(n: int) -> int | None:
    """Smallest m with m(m+1)/2 <= n <= J(m); None for n in {2, 5, 9}."""
    m = 1
    while m * (m + 1) // 2 <= n:
        if n <= max_elements(m):
            return m
        m += 1
    return None


def pair_problem(n: int, a_sets: list, b_sets: list) -> str | None:
    """None iff both sides partition 1..n and no (j, k) cell holds two elements."""
    sizes = []
    for name, sets in (("A", a_sets), ("B", b_sets)):
        size = [0] * (n + 1)
        for s in sets:
            if not s:
                return f"{name}-sets contain an empty set"
            for x in s:
                if type(x) is not int or not 1 <= x <= n:
                    return f"{name}-sets contain {x!r}, outside 1..{n}"
                if size[x]:
                    return f"{name}-sets hold {x} twice"
                size[x] = len(s)
        if not all(size[1:]):
            return f"{name}-sets do not cover 1..{n}"
        sizes.append(size)
    size_a, size_b = sizes
    if len({(size_a[x], size_b[x]) for x in range(1, n + 1)}) != n:
        return "some (j,k) cell holds two elements"
    return None


def order_of(a_sets: list, b_sets: list) -> int:
    return max(len(s) for s in a_sets + b_sets)


def _grid_sets(line: str, prefix: str) -> list[list[int]]:
    if not line.startswith(prefix):
        raise ValueError(f"expected a line starting {prefix!r}")
    return [[int(x) for x in body.split(",")] if body else [] for body in SET_RE.findall(line)]


def check_construct(n: int, m: int | None, fmt: str, stdout: bytes) -> str | None:
    """Both sides partition 1..n, the order is the requested (or smallest
    feasible) one and no (j, k) cell holds two elements."""
    want_m = m if m is not None else smallest_order(n)
    text = stdout.decode("utf-8")
    try:
        if fmt == "structured":
            doc = json.loads(text)
            if doc.get("schema") != "kg-construction/1" or doc.get("n") != n or doc.get("m") != want_m:
                return f"header is {doc.get('schema')!r} n={doc.get('n')} m={doc.get('m')}, want n={n} m={want_m}"
            a_sets, b_sets = doc["a_sets"], doc["b_sets"]
        else:
            lines = text.splitlines()
            if lines[0] != f"n={n} m={want_m}" or lines[3] != "matrix:":
                return f"header is {lines[0]!r}, want 'n={n} m={want_m}'"
            a_sets = _grid_sets(lines[4 + want_m], "a_sets: ")
            b_sets = _grid_sets(lines[5 + want_m], "b_sets: ")
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return f"unparsable construct output: {exc}"
    problem = pair_problem(n, a_sets, b_sets)
    if problem:
        return problem
    if order_of(a_sets, b_sets) != want_m:
        return f"largest set has {order_of(a_sets, b_sets)} elements, want order {want_m}"
    return None


def wiring(n: int, seed: int) -> list[int]:
    """The documented hidden wiring: identity for seed 0, otherwise
    random.Random(seed).shuffle over positions 1..n."""
    positions = list(range(1, n + 1))
    if seed:
        random.Random(seed).shuffle(positions)
    return positions


def check_simulate(n: int, seed: int, fmt: str, stdout: bytes) -> str | None:
    """Coordinates agree through the recomputed wiring and are unique."""
    text = stdout.decode("utf-8")
    try:
        if fmt == "structured":
            doc = json.loads(text)
            if doc.get("schema") != "cable-transcript/1":
                return f"schema is {doc.get('schema')!r}"
            coords_a = [tuple(c) for c in doc["coords_a"]]
            coords_b = [tuple(c) for c in doc["coords_b"]]
        else:
            lines = text.splitlines()
            want = f"n={n} m={smallest_order(n)} seed={seed}"
            if lines[0] != want:
                return f"header is {lines[0]!r}, want {want!r}"
            if not (lines[5].startswith("coords_a: ") and lines[6].startswith("coords_b: ")):
                return "coordinate lines missing"
            coords_a = [(int(j), int(k)) for j, k in COORD_RE.findall(lines[5])]
            coords_b = [(int(j), int(k)) for j, k in COORD_RE.findall(lines[6])]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable simulate output: {exc}"
    if len(coords_a) != n or len(coords_b) != n:
        return f"got {len(coords_a)} and {len(coords_b)} coordinates for {n} wires"
    wired = wiring(n, seed)
    for a in range(n):
        if coords_b[wired[a] - 1] != coords_a[a]:
            return f"ends disagree at A-position {a + 1}"
    if len(set(coords_a)) != n:
        return "coordinates are not unique"
    return None


def check_verify(want_code: int, want_stdout: bytes, code: int, stdout: bytes) -> str | None:
    """The expected exit status, and the expected stdout with it."""
    if code != want_code:
        return f"exit status {code}, want {want_code}"
    if stdout != want_stdout:
        return f"stdout {stdout[:80]!r}, want {want_stdout[:80]!r}"
    return None

"""Test oracles: independent checks of what the package builds and reads.

`gale_ryser_feasible` (the classical majorization criterion, which accepts
arbitrary sum orders) and `enumerate_matrices` (exhaustive backtracking,
desk scale only) decide realizability without the gap-free constructor.
`partition_to_matrix` reads a pair's matrix off its sets through dicts,
apart from the protocol's single validation pass. `transcript_from_json`
and `matrix_from_text` parse the documents and grids the package writes,
so tests can round-trip them. `kg_pair_orders` and `index_divisible_totals`
check the paper's counting claims by exhaustion, from their definitions: the
first over pairs of partitions themselves, the second over the matrices of
the matrix lemma; neither names anything from the package.

The package does not ship these. They use only its public types and
formatting, never its constructor, its matrix-to-partition chunking or
its KG checks; a test reads this file's source to keep it that way.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Hashable, Iterator, Sequence

from wireid.cable import END_A, END_B, TRANSCRIPT_SCHEMA, ConnectionPlan, ProtocolTranscript
from wireid.matrices import BinaryMatrix, DegreeSequence, format_degree_sequence
from wireid.partitions import KgPartition

# Exhaustive enumeration is 2^(m^2) in the worst case; anything past 5 is
# oracle misuse.
MAX_ENUMERATION_SIDE = 5


def _check_pair_lengths(r: Sequence[int], c: Sequence[int]) -> int:
    if len(r) != len(c):
        raise ValueError(f"row and column sums must have equal length, got {len(r)} and {len(c)}")
    if len(r) == 0:
        raise ValueError("degree sequences must have length at least 1")
    return len(r)


def conjugate(seq: Sequence[int]) -> DegreeSequence:
    """Conjugate partition, padded to the input length: entry k counts values >= k+1."""
    m = len(seq)
    return tuple(sum(1 for v in seq if v >= k) for k in range(1, m + 1))


def gale_ryser_feasible(r: Sequence[int], c: Sequence[int]) -> bool:
    """Whether any m x m 0-1 matrix has row sums r and column sums c.

    Classical majorization test: totals must agree, and every prefix of the
    nonincreasingly sorted column sums must be dominated by the conjugate of
    the row sums. Input order is irrelevant.
    """
    r, c = tuple(r), tuple(c)
    m = _check_pair_lengths(r, c)
    for seq in (r, c):
        if any(v < 0 or v > m for v in seq):
            raise ValueError(f"sums must lie in [0, {m}]: {format_degree_sequence(seq)}")
    if sum(r) != sum(c):
        return False
    c_desc = sorted(c, reverse=True)
    conj = conjugate(r)
    need = have = 0
    for t in range(m):
        need += c_desc[t]
        have += conj[t]
        if need > have:
            return False
    return True


def enumerate_matrices(r: Sequence[int], c: Sequence[int], limit: int) -> list[BinaryMatrix]:
    """All (up to limit) 0-1 matrices with the given sums, by row backtracking.

    A dumb exhaustive oracle for desk-scale verification; refuses m > 5.
    Stays independent of the constructor and of the majorization test.
    """
    r, c = tuple(r), tuple(c)
    m = _check_pair_lengths(r, c)
    if m > MAX_ENUMERATION_SIDE:
        raise ValueError(f"exhaustive enumeration is limited to m <= {MAX_ENUMERATION_SIDE}, got m={m}")
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if any(v < 0 for v in r + c):
        raise ValueError("sums must be non-negative")

    found: list[BinaryMatrix] = []
    if sum(r) != sum(c) or any(v > m for v in r + c):
        return found

    remaining = list(c)
    grid: list[tuple[int, ...]] = []

    def place(row_idx: int) -> None:
        if len(found) >= limit:
            return
        if row_idx == m:
            if all(v == 0 for v in remaining):
                found.append(BinaryMatrix(tuple(grid)))
            return
        rows_left = m - row_idx - 1
        open_cols = [k for k in range(m) if remaining[k] > 0]
        if len(open_cols) < r[row_idx]:
            return
        for cols in itertools.combinations(open_cols, r[row_idx]):
            for k in cols:
                remaining[k] -= 1
            # Any column still demanding more 1s than there are rows left is
            # a dead end.
            if all(remaining[k] <= rows_left for k in range(m)):
                grid.append(tuple(1 if k in cols else 0 for k in range(m)))
                place(row_idx + 1)
                grid.pop()
            for k in cols:
                remaining[k] += 1

    place(0)
    return found


def kg_pair_orders(n: int) -> set[int]:
    """The orders (largest set sizes) of the pairs of partitions of 1..n that put at most one element in each
    (A-set size, B-set size) cell, by exhaustion: empty when no such pair exists. Relabelling keeps the property,
    so the A side is fixed to consecutive blocks, one per integer partition of n, and the B side runs over
    every set partition of 1..n. A pair is judged on its two size vectors (the size of each element's set),
    so B sides with equal vectors are judged once. Bell(n) set partitions: desk scale only (n = 10 takes
    seconds)."""
    a_sides = [tuple(itertools.chain.from_iterable(itertools.repeat(size, size) for size in sizes))
               for sizes in _integer_partitions(n, n)]
    b_sides = set()
    for blocks in _set_partitions(n):
        size = Counter(blocks)
        b_sides.add(tuple(map(size.__getitem__, blocks)))
    orders = set()
    for a in a_sides:
        for b in b_sides:
            order = max(a[0], max(b))
            if order not in orders and len(set(zip(a, b))) == n:
                orders.add(order)
    return orders


def _integer_partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Each partition of n into parts of at most largest, as a nonincreasing tuple."""
    if not n:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - part, part):
            yield (part, *rest)


def _set_partitions(n: int, prefix: tuple[int, ...] = (), blocks: int = 0) -> Iterator[tuple[int, ...]]:
    """Each partition of 1..n into non-empty blocks, as its restricted growth string: element x's block
    number, each number at most one more than every number before it."""
    if len(prefix) == n:
        yield prefix
        return
    for block in range(blocks + 1):
        yield from _set_partitions(n, (*prefix, block), max(blocks, block + 1))


def index_divisible_totals(m: int) -> set[int]:
    """The 1-counts of the m x m 0-1 matrices whose row j and column j sums are multiples of j, with row m or
    column m non-empty (the matrices of the order-m pairs), by exhaustion. Rows 2..m run over the rows whose
    size is a multiple of their index; row 1's bit in column k >= 2 is then forced, as the one bit (if any)
    that makes column k's sum a multiple of k, and its bit in column 1 is free."""
    lines = list(itertools.product((0, 1), repeat=m))
    later_rows = [[bits for bits in lines if sum(bits) % j == 0] for j in range(2, m + 1)]
    totals = set()
    for rows in itertools.product(*later_rows):
        below = [sum(column) for column in zip(*rows)] if rows else [0] * m  # column sums over rows 2..m
        first = [-total % k for k, total in enumerate(below[1:], 2)]  # row 1's bits in columns 2..m
        if any(bit > 1 for bit in first):
            continue
        for corner in (0, 1):  # row 1's bit in column 1
            last_row, last_column = (rows[-1], below[-1] + first[-1]) if rows else ((corner,), corner)
            if any(last_row) or last_column:
                totals.add(sum(below) + sum(first) + corner)
    return totals


def partition_to_matrix(partition: KgPartition) -> BinaryMatrix:
    """The 0-1 matrix of a partition pair: entry (j, k) marks the element
    lying in an A-set of size j and a B-set of size k.

    Raises if either side fails to partition the elements or if some cell
    would hold two elements (the pair is not a KG pair).
    """
    size_a: dict[Hashable, int] = {}
    for s in partition.a_sets:
        for x in s:
            if x in size_a:
                raise ValueError(f"A-sets overlap on {x!r}; not a partition")
            size_a[x] = len(s)
    size_b: dict[Hashable, int] = {}
    for s in partition.b_sets:
        for x in s:
            if x in size_b:
                raise ValueError(f"B-sets overlap on {x!r}; not a partition")
            size_b[x] = len(s)
    if set(size_a) != set(size_b):
        raise ValueError("A-sets and B-sets cover different elements")
    if not size_a:
        raise ValueError("partition has no elements")

    m = max(max(size_a.values()), max(size_b.values()))
    grid = [[0] * m for _ in range(m)]
    for x in size_a:
        j, k = size_a[x], size_b[x]
        if grid[j - 1][k - 1]:
            raise ValueError(f"cell ({j},{k}) holds more than one element; not a Knowlton-Graham pair")
        grid[j - 1][k - 1] = 1
    return BinaryMatrix(tuple(tuple(row) for row in grid))


def transcript_from_json(text: str) -> ProtocolTranscript:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != TRANSCRIPT_SCHEMA:
        raise ValueError(f"expected a {TRANSCRIPT_SCHEMA!r} document")
    try:
        transcript = ProtocolTranscript(
            phase1_plan=ConnectionPlan(END_A, tuple(frozenset(g) for g in payload["phase1_plan"])),
            phase1_probe=tuple(payload["phase1_probe"]),
            phase2_plan=ConnectionPlan(END_B, tuple(frozenset(g) for g in payload["phase2_plan"])),
            phase2_probe=tuple(payload["phase2_probe"]),
        )
        # The transcript derives its coordinates; the document must state the same.
        for name in ("coords_a", "coords_b"):
            if payload[name] != [list(pair) for pair in getattr(transcript, name)]:
                raise ValueError(f"{name} differ from the coordinates the plans and probes give")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed transcript document: {exc}") from exc
    return transcript


def matrix_from_text(text: str) -> BinaryMatrix:
    """Parse the '.'/'1' grid format; rejects ragged lines and stray characters."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix text")
    m = len(lines)
    rows = []
    for line in lines:
        if len(line) != m:
            raise ValueError(f"ragged matrix text: expected {m} characters per line, got {len(line)}")
        if set(line) - {".", "1"}:
            raise ValueError(f"matrix text may contain only '.' and '1', got {line!r}")
        rows.append(tuple(1 if ch == "1" else 0 for ch in line))
    return BinaryMatrix(tuple(rows))

"""Square 0-1 matrices with prescribed row and column sums.

A degree sequence is a plain tuple of non-negative integers; a sequence of
length m prescribes the number of 1s in each row (or each column) of an
m x m matrix. The central operation is :func:`construct_matrix`, which
realizes, in the order given, any pair of degree sequences with equal
totals whose nonincreasing sorts are gap-free (consecutive entries drop by
at most 1). It works level by level on the sorted sums: peel off the first
row and column, reduce the remaining sums, sort, and repeat on the smaller
square. Two index arrays map the shrinking square back to the input's rows
and columns, so each level writes straight into the output: O(m^2) work
and no recursion depth limit. It cannot fail once :func:`can_construct`
accepts the sorted input; that guarantee is asserted at every level, not
rescued.

Two independent routes exist for cross-checking realizability:
:func:`gale_ryser_feasible` (the classical majorization criterion, which
accepts arbitrary sum orders) and :func:`enumerate_matrices` (exhaustive
backtracking, desk scale only). Tests play these off against the
constructor; keep them independent of it.

Text format: a matrix serializes as m lines of m characters, ``'1'`` for a
one and ``'.'`` for a zero, newline-terminated. Degree sequences serialize
as comma-separated integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

DegreeSequence = tuple[int, ...]

# Exhaustive enumeration is 2^(m^2) in the worst case; anything past 5 is
# oracle misuse.
MAX_ENUMERATION_SIDE = 5


@dataclass(frozen=True)
class BinaryMatrix:
    """An m x m grid with entries in {0, 1}."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if m == 0:
            raise ValueError("matrix must have at least one row")
        for row in rows:
            if len(row) != m:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in a {m}-row matrix")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"matrix entries must be 0 or 1, got {v!r}")

    @property
    def m(self) -> int:
        return len(self.rows)

    def row_sums(self) -> DegreeSequence:
        """Number of 1s in each row, top to bottom."""
        return tuple(sum(row) for row in self.rows)

    def col_sums(self) -> DegreeSequence:
        """Number of 1s in each column, left to right."""
        return tuple(sum(col) for col in zip(*self.rows))

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(tuple(zip(*self.rows)))

    def to_text(self) -> str:
        """Render as m newline-terminated lines of '.'/'1' characters."""
        return "".join("".join("1" if v else "." for v in row) + "\n" for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
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
        return cls(tuple(rows))


def format_degree_sequence(seq: Sequence[int]) -> str:
    return ",".join(str(v) for v in seq)


def _check_pair_lengths(r: Sequence[int], c: Sequence[int]) -> int:
    if len(r) != len(c):
        raise ValueError(f"row and column sums must have equal length, got {len(r)} and {len(c)}")
    if len(r) == 0:
        raise ValueError("degree sequences must have length at least 1")
    return len(r)


def can_construct(r: Sequence[int], c: Sequence[int]) -> bool:
    """Hypotheses under which construct_matrix is guaranteed to succeed.

    True iff the two sequences have equal totals, are nonincreasing with
    values in [0, m], and are gap-free: each entry is at least its
    predecessor minus 1. Order matters; callers sort first if they only
    care about the multiset.
    """
    m = _check_pair_lengths(r, c)
    if sum(r) != sum(c):
        return False
    for seq in (r, c):
        if seq[0] > m or seq[-1] < 0:
            return False
        for j in range(m - 1):
            if not (seq[j] - 1 <= seq[j + 1] <= seq[j]):
                return False
    return True


def construct_matrix(r: Sequence[int], c: Sequence[int]) -> BinaryMatrix:
    """Build an m x m 0-1 matrix whose row i sums to r[i] and column j to c[j].

    Requires can_construct on the stable nonincreasing sorts of r and c, and
    works on those sorts level by level: with p and q the largest remaining
    row and column sums, the first row carries 1s in columns 1..p and the
    first column carries 1s in rows 1..q (sharing the corner), so the
    remaining (m-1)-square must realize r' = (r2-1, ..., rq-1, r(q+1), ...,
    rm) and the mirror c'; those are stably re-sorted and form the next
    level. Two index arrays map each sorted position to its row and column
    in the input, starting at the stable sort of the input, so every level
    writes its row and column straight into the one m x m output: O(m^2)
    work in all, no sub-matrix copy, no recursion depth limit. Rows
    (columns) with equal sums take the sorted construction's rows (columns)
    in input order, so sorted input gives the sorted construction itself.
    Self-dual: equal inputs produce a symmetric matrix.
    """
    r, c = tuple(r), tuple(c)
    if not can_construct(sorted(r, reverse=True), sorted(c, reverse=True)):
        raise ValueError(
            f"sums are not constructible (need equal totals and, once sorted nonincreasing, gap-free "
            f"within [0, m]): r={format_degree_sequence(r)} c={format_degree_sequence(c)}"
        )
    return BinaryMatrix(_construct(r, c))


def _construct(r: DegreeSequence, c: DegreeSequence) -> list[list[int]]:
    m = len(r)
    out = [[0] * m for _ in range(m)]
    # Current position -> original row (column) of the output.
    r_cur, rows = _sort_descending(list(r), list(range(m)))
    c_cur, cols = _sort_descending(list(c), list(range(m)))
    # A zero first sum means the rest is zero too: equal totals force both.
    while r_cur and r_cur[0]:
        p, q = r_cur[0], c_cur[0]
        top = out[rows[0]]
        for k in range(p):
            top[cols[k]] = 1
        for j in range(1, q):
            out[rows[j]][cols[0]] = 1
        # Positions 2..q of r lose one to the first column (and 2..p of c
        # to the first row).
        r_cur, rows = _sort_descending([v - 1 for v in r_cur[1:q]] + r_cur[q:], rows[1:])
        c_cur, cols = _sort_descending([v - 1 for v in c_cur[1:p]] + c_cur[p:], cols[1:])
        # The reduced, sorted sums satisfy the same hypotheses; this is the
        # heart of the construction and must never fail.
        assert not r_cur or can_construct(r_cur, c_cur), (r, c, r_cur, c_cur)
    return out


def _sort_descending(values: list[int], origin: list[int]) -> tuple[list[int], list[int]]:
    """Stable descending sort of values, carrying origin along."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return [values[i] for i in order], [origin[i] for i in order]


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

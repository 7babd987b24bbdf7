"""Reference implementations the package's fast paths are checked against.

`reference_construct` is the gap-free constructor written as the literal
recursion: peel off the first row and column, reduce, stably re-sort,
realize the smaller square recursively, and un-sort it. Each level copies a
whole (m-1)-square, so it costs O(m^3) and recurses once per level (Python's
recursion limit stops it near m = 1000). It asserts can_construct on the
reduced, sorted sums at every level. The package's loop relies on that
lemma but checks only its output, so the lemma stays checked wherever the
tests run this reference. `reference_matrix_to_partition`
labels the 1-cells through a cell -> label map and rescans the matrix once
for the rows and once for the columns. `reference_permute_to_sums` (with
`_match_targets`) is the stable row and column matching that used to bring
the sorted construction into the order of the requested sums;
construct_matrix on unsorted sums must equal it applied to the sorted
construction. `reference_canonical_order` is KgPartition's set order as
first written: a full sort by cardinality, then sorted content, with a
repr-keyed fallback for labels that do not sort.

None imports the package's constructor or its matrix-to-partition
chunking; tests compare those with these bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Hashable, Iterable, Sequence

from wireid.matrices import BinaryMatrix, DegreeSequence, can_construct, format_degree_sequence
from wireid.partitions import KgPartition


def reference_construct(r: Sequence[int], c: Sequence[int]) -> BinaryMatrix:
    """The matrix construct_matrix must produce for sums accepted by can_construct."""
    r, c = tuple(r), tuple(c)
    if not can_construct(r, c):
        raise ValueError(f"sums are not constructible: r={r} c={c}")
    return BinaryMatrix(_construct(r, c))


def _construct(r: tuple[int, ...], c: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    m = len(r)
    if m == 1:
        return ((r[0],),)
    p, q = r[0], c[0]
    if p == 0:
        # Equal totals force q == 0 as well; the whole matrix is zero.
        return tuple((0,) * m for _ in range(m))
    # 1-based positions 2..q of r lose one to the new first column (and
    # 2..p of c to the new first row).
    r_sub = tuple(r[j] - 1 if j + 1 <= q else r[j] for j in range(1, m))
    c_sub = tuple(c[j] - 1 if j + 1 <= p else c[j] for j in range(1, m))
    r_sorted, r_order = _sort_descending(r_sub)
    c_sorted, c_order = _sort_descending(c_sub)
    assert can_construct(r_sorted, c_sorted), (r, c, r_sorted, c_sorted)
    inner = _construct(r_sorted, c_sorted)
    # Un-sort: inner row i realizes the sum originally at position r_order[i].
    sub = [[0] * (m - 1) for _ in range(m - 1)]
    for i in range(m - 1):
        for j in range(m - 1):
            sub[r_order[i]][c_order[j]] = inner[i][j]
    out = [[0] * m for _ in range(m)]
    out[0][0] = 1
    for k in range(1, p):
        out[0][k] = 1
    for j in range(1, q):
        out[j][0] = 1
    for i in range(m - 1):
        for j in range(m - 1):
            out[i + 1][j + 1] = sub[i][j]
    return tuple(tuple(row) for row in out)


def _sort_descending(seq: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stable descending sort; returns (sorted values, sorted position -> original position)."""
    order = sorted(range(len(seq)), key=lambda i: -seq[i])
    return tuple(seq[i] for i in order), tuple(order)


def reference_permute_to_sums(
    matrix: BinaryMatrix, row_targets: Sequence[int], col_targets: Sequence[int]
) -> BinaryMatrix:
    """Permute rows and columns so the sums equal the targets exactly.

    The targets must be permutations of the current sums. Ties break
    stably: equal-valued rows (columns) keep their relative input order.
    """
    row_order = _match_targets(matrix.row_sums(), tuple(row_targets), "row")
    col_order = _match_targets(matrix.col_sums(), tuple(col_targets), "column")
    rows = tuple(
        tuple(matrix.rows[row_order[i]][col_order[j]] for j in range(matrix.m))
        for i in range(matrix.m)
    )
    return BinaryMatrix(rows)


def _match_targets(current: DegreeSequence, target: DegreeSequence, kind: str) -> tuple[int, ...]:
    if sorted(current) != sorted(target):
        raise ValueError(
            f"{kind} targets are not a permutation of the matrix's {kind} sums: "
            f"have {format_degree_sequence(current)}, want {format_degree_sequence(target)}"
        )
    queues: dict[int, deque[int]] = {}
    for idx, value in enumerate(current):
        queues.setdefault(value, deque()).append(idx)
    return tuple(queues[value].popleft() for value in target)


def reference_matrix_to_partition(matrix: BinaryMatrix, labels: Iterable[Hashable]) -> KgPartition:
    """The pair matrix_to_partition must produce; same validation, same messages."""
    labels = tuple(labels)
    m = matrix.m
    r, c = matrix.row_sums(), matrix.col_sums()
    for j in range(1, m + 1):
        if r[j - 1] % j:
            raise ValueError(f"row {j} has sum {r[j - 1]}, not a multiple of {j}")
        if c[j - 1] % j:
            raise ValueError(f"column {j} has sum {c[j - 1]}, not a multiple of {j}")
    total = sum(r)
    if len(labels) != total:
        raise ValueError(f"need exactly {total} labels (one per 1-entry), got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")

    cell_label: dict[tuple[int, int], Hashable] = {}
    ordered = iter(labels)
    for i in range(m):
        for j in range(m):
            if matrix.rows[i][j]:
                cell_label[(i, j)] = next(ordered)

    a_sets: list[frozenset] = []
    for i in range(m):
        row_labels = [cell_label[(i, j)] for j in range(m) if matrix.rows[i][j]]
        a_sets.extend(_blocks(row_labels, i + 1))
    b_sets: list[frozenset] = []
    for j in range(m):
        col_labels = [cell_label[(i, j)] for i in range(m) if matrix.rows[i][j]]
        b_sets.extend(_blocks(col_labels, j + 1))
    return KgPartition(n=len(labels), a_sets=tuple(a_sets), b_sets=tuple(b_sets))


def _blocks(items: list, size: int) -> list[frozenset]:
    assert len(items) % size == 0
    return [frozenset(items[i : i + size]) for i in range(0, len(items), size)]


def _canonical_key(s: Collection) -> tuple:
    """Canonical set order, shared by KgPartition and cable.ConnectionPlan:
    by cardinality, then by sorted content."""
    return len(s), tuple(sorted(s))


def reference_canonical_order(sets: Iterable[Collection]) -> tuple[frozenset, ...]:
    """The order KgPartition must store one side's sets in."""
    frozen = [frozenset(s) for s in sets]
    try:
        frozen.sort(key=_canonical_key)
    except TypeError:  # mixed label types in a malformed pair
        frozen.sort(key=lambda s: (len(s), tuple(sorted(map(repr, s)))))
    return tuple(frozen)

"""Knowlton-Graham partition pairs.

A pair of partitions of {1..n} has the Knowlton-Graham (KG) property when,
for every (j, k), at most one element lies in an A-set of size j and a
B-set of size k; the (j, k) cells then serve as unique coordinates. Such a
pair of order m (largest set size m) is the same thing as an m x m 0-1
matrix whose row and column sums are multiples of their index: rows chunk
into A-sets, columns into B-sets.

Feasibility is a pure counting question: order-m pairs exist exactly for
m(m+1)/2 <= n <= max_elements(m), and some order works for every n except
2, 5 and 9. The constructive path goes through :func:`represent`, which
writes n as a sum of multiples t_j of j whose values form a consecutive
run, so the sorted sums are gap-free and the matrix layer can realize them
in t order (symmetrically, since rows and columns get the same sums).

:func:`kg_violations` checks the KG property by direct counting over the
sets, with no matrix machinery; it is the direct-counting oracle for
everything else here.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress
from math import isqrt
from operator import add, index
from typing import Collection, Hashable, Iterable, Iterator, Sequence

from ._jsonout import IntRuns, _parts, _sorted_runs, document
from .matrices import BinaryMatrix, ConstructionError, _Frozen, _byte_rows, _checked_grid, _unchecked, can_construct

PARTITION_SCHEMA = "kg-partition/1"


class InfeasibleOrderError(ValueError):
    """No Knowlton-Graham pair exists for the requested (n, order)."""

    def __init__(self, n: int, m: int | None = None):
        self.n = n
        self.m = m
        if m is None:
            message = f"no order exists for n (n={n})"
        elif n < min_elements(m):  # max_elements(m) costs O(m); m may be huge
            message = f"n out of range for order m (n={n}, m={m}, needs n >= {min_elements(m)})"
        else:
            message = (
                f"n out of range for order m (n={n}, m={m}, "
                f"feasible range {min_elements(m)}..{max_elements(m)})"
            )
        super().__init__(message)


def min_elements(m: int) -> int:
    """Smallest n admitting an order-m pair: m(m+1)/2."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return m * (m + 1) // 2


def max_elements(m: int) -> int:
    """Largest n admitting an order-m pair: sum over j of j*floor(m/j)."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return sum(j * (m // j) for j in range(1, m + 1))


def feasible_orders(n: int) -> list[int]:
    """All orders m whose feasible range contains n, ascending.

    Both bounds increase with m, so the orders form an interval: isqrt
    gives its top and a bisection over max_elements its bottom. Empty
    exactly for n in {2, 5, 9}. A non-int n raises TypeError.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    hi = (isqrt(8 * n + 1) - 1) // 2
    lo = bisect_left(range(1, hi + 1), n, key=max_elements) + 1
    return list(range(lo, hi + 1))


class Representation(_Frozen):
    """n written as t_1 + ... + t_m with each t_j a positive multiple of j.

    Valid iff it is what :func:`represent` builds for its own sum, so (s, k)
    pin the shape: t_j = j for j > s; t_s = k*s with 1 < k <= floor(m/s) when
    s >= 1; t_j = j*floor(m/j) for 1 < j < s; m - s < t_1 <= m when s > 1;
    k = 1 when s = 0. The values form a consecutive run, so sorted descending
    they are gap-free, as :func:`can_construct` checks.
    """

    m: int
    t: tuple[int, ...]
    s: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", tuple(self.t))
        m, t = self.m, self.t
        if m < 1 or len(t) != m:
            raise ValueError(f"need m >= 1 values, got m={m}, t={t}")
        canonical = _canonical(self.n, m)
        if (t, self.s, self.k) != canonical:
            raise ValueError(f"(t, s, k)={(t, self.s, self.k)} is not represent({self.n}, {m}), which is {canonical}")
        ordered = sorted(t, reverse=True)
        if not can_construct(ordered, ordered):
            raise ValueError(f"sorted values must drop by at most 1: {ordered}")

    @property
    def n(self) -> int:
        return sum(self.t)


def represent(n: int, m: int) -> Representation:
    """Canonical representation of n as a sum of m positive multiples.

    Defined by a walk from the maximal case n = max_elements(m), where
    s = floor(m/2), k = floor(m/s) and t_1 = m, down one unit at a time:
    decrement t_1; if s > 1 and t_1 has dropped to m - s, reset t_1 to m
    and take s out of t_s; if t_s has reached s, shrink s by one. The walk
    ends exactly at the triangular case t_j = j (s = 0).
    """
    t, s, k = _canonical(n, m)
    # __post_init__ compares with _canonical, and the construction checks gap-freeness itself.
    return _unchecked(Representation, m=m, t=t, s=s, k=k)


def _canonical(n: int, m: int) -> tuple[tuple[int, ...], int, int]:
    """(t, s, k) of represent(n, m), where the walk ends, in O(m): level s
    takes s*(floor(m/s) - 1) of the d = max_elements(m) - n units, and the
    level where d runs out gives k and t_1 by division. n must be an int."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    if n < min_elements(m) or n > (top := max_elements(m)):  # max_elements(m) costs O(m); m may be huge
        raise InfeasibleOrderError(n, m)

    d = top - index(n)
    s = m // 2
    while s and d >= s * (m // s - 1):
        d -= s * (m // s - 1)
        s -= 1
    t = [j * (m // j) if 1 < j < s else j for j in range(1, m + 1)]
    k = m // s - d // s if s else 1
    if s:
        t[s - 1] = k * s
    if s > 1:
        t[0] = m - d % s
    return tuple(t), s, k


def _canonical_order(sets: Iterable[Collection]) -> tuple[frozenset, ...]:
    """The sets as frozensets sorted by cardinality, then sorted content."""
    frozen = list(map(frozenset, sets))
    try:
        frozen.sort(key=lambda s: (len(s), sorted(s)))
    except TypeError:  # mixed label types in a malformed pair
        frozen.sort(key=lambda s: (len(s), sorted(map(repr, s))))
    return tuple(frozen)


class KgPartition(_Frozen):
    """Two partitions (A-sets, B-sets) of the same n elements.

    Sets are stored in canonical order (by cardinality, then by sorted
    content; input already in that order sorts in one pass). The class
    accepts malformed pairs, overlaps, gaps and all; kg_violations judges.
    """

    n: int
    a_sets: tuple[frozenset, ...]
    b_sets: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        object.__setattr__(self, "a_sets", _canonical_order(self.a_sets))
        object.__setattr__(self, "b_sets", _canonical_order(self.b_sets))

    @property
    def order(self) -> int:
        return max(len(s) for s in self.a_sets + self.b_sets)


def kg_violations(partition: KgPartition) -> list[str]:
    """Diagnostics for everything that stops a pair from being a valid KG pair.

    Structure first (each side must be an exact partition of {1..n}); if
    the structure holds, every (j, k) cell holding two or more elements is
    listed with its witnesses. Empty list means the pair is valid.
    """
    return _verdict(partition.n, partition.a_sets, partition.b_sets)[1]


def _verdict(n: int, a_sets: Collection[Collection],
             b_sets: Collection[Collection]) -> tuple[list[bytearray], list[str]]:
    """The pair's matrix as its m byte rows and kg_violations' messages for it. The rows are empty unless the
    messages are, and their count is the pair's order (its largest set's size).

    Labels are compared by value, as sets compare them, so 1.0 stands for 1. _cell_keys decides the structure
    and keys each element by its (j, k) cell; _key_rows sets the keys in a width² grid, the matrix iff the n + 1
    keys differ. An order-m pair has at least m(m + 1)/2 elements, so a wider pair crowds a cell and gets no
    grid. When the sides are not exact partitions as given, each set is frozen, so a label repeated within a
    set counts once, but the sets are not sorted: for int labels no message depends on their order. Sets and
    Counters are built only to word a failure; value-equal labels are mapped onto ints and judged again.
    """
    cells = _cell_keys(n, a_sets, b_sets)
    if cells is None:
        a_sets, b_sets = list(map(frozenset, a_sets)), list(map(frozenset, b_sets))
        messages: list[str] = []
        universe = set(range(1, n + 1))
        for name, sets in (("A", a_sets), ("B", b_sets)):
            if not all(sets):
                messages.append(f"{name}-sets contain an empty set")
            # Built one element at a time, as set(Counter(...)) would be, so the
            # labels outside 1..n come out in the same order even when they have
            # no total order (NaN, say).
            covered = set(chain.from_iterable(sets))
            if sum(map(len, sets)) != len(covered):
                counts = Counter(chain.from_iterable(sets))
                duplicated = _ordered(x for x, c in counts.items() if c > 1)
                messages.append(f"{name}-sets overlap on elements {duplicated}")
            if covered != universe:
                missing = universe - covered
                if missing:
                    messages.append(f"{name}-sets do not cover elements {sorted(missing)}")
                extra = covered - universe
                if extra:
                    messages.append(f"{name}-sets contain elements outside 1..{n}: {_ordered(extra)}")
        if messages:
            return [], messages
        # Labels equal to 1..n but not ints, 1.0 say.
        as_int = {x: x for x in universe}
        return _verdict(n, *([[as_int[x] for x in s] for s in sets] for sets in (a_sets, b_sets)))
    width, keys = cells
    rows = _key_rows(width, keys, n + 1) if min_elements(width - 1) <= n else None
    if rows is None:
        return [], _crowded_cells(width, list(_cell_keys(n, a_sets, b_sets)[1]))
    return rows, []


def _key_rows(width: int, keys: Iterable[int], count: int) -> list[bytearray] | None:
    """The width x width byte grid with a 1 at each key j * width + k, as its rows and columns 1..width - 1,
    if exactly count cells are set; otherwise None. The keys must lie in 0..width² - 1."""
    grid = bytearray(width * width)
    for key in keys:
        grid[key] = 1
    if grid.count(1) != count:
        return None
    return [grid[j * width + 1 : (j + 1) * width] for j in range(1, width)]


def _crowded_cells(width: int, keys: Sequence[int]) -> list[str]:
    """kg_violations' messages for a pair whose _cell_keys are (width, keys), when two keys are equal: one per
    (j, k) cell holding two or more elements, cells ascending, with its elements ascending."""
    crowded = sorted(key for key, count in Counter(keys).items() if count > 1)
    members: dict[int, list[int]] = {key: [] for key in crowded}
    for x, key in enumerate(keys):  # keys[0] == 0 is never crowded
        if key in members:
            members[key].append(x)
    messages = []
    for key, xs in members.items():
        j, k = divmod(key, width)
        messages.append(f"cell ({j},{k}) holds {len(xs)} elements: {xs}")
    return messages


def _cell_keys(n: int, a_sets: Collection, b_sets: Collection) -> tuple[int, Iterator[int]] | None:
    """(width, keys), keys streaming j * width + k for each element x = 0..n of an A-set of size j and a B-set
    of size k (0 for x = 0), or None unless both sides exactly partition the ints 1..n. No set reaches width,
    so the pair is a KG pair iff the n + 1 keys differ; sorted, they list its matrix's 1-cells in row-major
    order."""
    width = max(map(len, chain(a_sets, b_sets)), default=0) + 1
    size_a, size_b = _side_sizes(a_sets, n, width), _side_sizes(b_sets, n)
    if size_a is None or size_b is None:
        return None
    return width, map(add, size_a, size_b)


def _side_sizes(sets: Collection[Collection], n: int, unit: int = 1) -> list[int] | None:
    """_size_of(sets, n, unit) if the sets exactly partition the ints 1..n, else None.

    By pigeonhole: n labels in all, none below 1 (-1 would write slot n),
    none above n, and every slot 1..n written. Nothing of size n is allocated
    unless the label count is n.
    """
    if not all(sets) or sum(map(len, sets)) != n:
        return None
    try:
        if min(chain.from_iterable(sets)) < 1:
            return None
        size_of = _size_of(sets, n, unit)
    except (IndexError, TypeError):  # labels above n or not ints
        return None
    return size_of if size_of.count(0) == 1 else None


def _size_of(sets: Iterable[Collection], n: int, unit: int = 1) -> list[int]:
    """size_of[x] = unit * the size of the set holding x, 0 if none does, for
    sets of ints in 1..n (IndexError above n, TypeError for non-ints)."""
    size_of = [0] * (n + 1)
    for s in sets:
        size = len(s) * unit
        for x in s:
            size_of[x] = size
    return size_of


def _ordered(items: Iterable) -> list:
    items = list(items)
    try:
        return sorted(items)
    except TypeError:  # mixed label types in a malformed pair
        return sorted(items, key=repr)


def _rows(labels: Sequence, r: Sequence[int]) -> IntRuns:
    """The A side: the labels in row-major order, row j's r[j - 1] of them in sets of j."""
    return IntRuns(labels, [(j, r_j // j) for j, r_j in enumerate(r, start=1)])


def _grid_columns(rows: Sequence[bytes]) -> IntRuns:
    """The B side of m byte rows of 0s and 1s, for the labels 1..n (others attach by _ranked): column k's labels,
    rows ascending, in sets of k, columns ascending. A 1-cell's label is its row-major rank, the running count of
    1s at it: column k's are its stride of those counts, compressed by its stride of the grid, which it sums."""
    m, flat = len(rows), b"".join(rows)
    prefix, columns = list(accumulate(flat)), [flat[k::m] for k in range(m)]
    labels = chain.from_iterable(compress(prefix[k::m], column) for k, column in enumerate(columns))
    return _rows(list(labels), [column.count(1) for column in columns])


def _ranked(side: IntRuns, labels: Iterable) -> IntRuns:
    """The side with the i-th of the labels in place of each rank i (1-based)."""
    by_rank = [None, *labels]  # a list: its __getitem__ is a faster call than a tuple's
    return IntRuns(list(map(by_rank.__getitem__, side.flat)), side.runs)


def _blocks(side: IntRuns) -> Iterator[Sequence]:
    """The side's sets as slices of its labels, in its order. ValueError unless its runs take its labels exactly."""
    return (part[i * size : (i + 1) * size] for size, count, part in _parts(side) for i in range(count))


def _sets(side: IntRuns) -> tuple[frozenset, ...]:
    """The side's sets as frozensets, in its order (the _blocks, frozen)."""
    return tuple(map(frozenset, _blocks(side)))


def matrix_to_partition(matrix: BinaryMatrix, labels: Iterable[Hashable]) -> KgPartition:
    """Turn a matrix with index-divisible sums into a partition pair.

    Labels attach to the 1-cells in row-major order. Row j's labels are
    chunked, left to right, into consecutive blocks of size j (the A-sets);
    column k's labels are chunked top to bottom into blocks of size k (the
    B-sets). An element's (row, column) cell is therefore exactly its
    (A-size, B-size) coordinate pair.
    """
    labels, rows = tuple(labels), _byte_rows(matrix.rows)  # int sums, whatever entries equal 0 and 1
    m, flat = len(rows), b"".join(rows)
    r, c = [row.count(1) for row in rows], [flat[k::m].count(1) for k in range(m)]
    _check_cuts(r, c, len(labels))
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    return KgPartition(len(labels), _sets(_rows(labels, r)), _sets(_ranked(_grid_columns(rows), labels)))


def _check_cuts(r: Sequence[int], c: Sequence[int], count: int) -> None:
    """The checks matrix_to_partition and _checked_construction share, on a grid's row and column sums and label
    count: each sum a multiple of its index and one label per 1-cell, so the sides cut whole sets. For ascending
    labels, _rows and _grid_columns give the sides in canonical order: line j holds its labels ascending and cuts
    all the sets of size j, so the sets come by size, those of one size disjoint runs that start ascending."""
    for j in range(1, len(r) + 1):
        if r[j - 1] % j:
            raise ValueError(f"row {j} has sum {r[j - 1]}, not a multiple of {j}")
        if c[j - 1] % j:
            raise ValueError(f"column {j} has sum {c[j - 1]}, not a multiple of {j}")
    if count != sum(r):
        raise ValueError(f"need exactly {sum(r)} labels (one per 1-entry), got {count}")


class Construction(_Frozen):
    """The three artifacts of the constructive pipeline: representation, matrix, partition."""

    representation: Representation
    matrix: BinaryMatrix
    partition: KgPartition


def _checked_construction(n: int, m: int | None) -> tuple[Representation, list[bytearray]]:
    """construct_trace's pipeline up to the sets, with no check of its own: the representation and the byte
    rows _checked_grid checked, whose cuts for the labels 1..n _check_cuts checked. It builds no int tuple
    or frozenset. A ValueError from either call on represent's t: ConstructionError."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m is None:
        orders = feasible_orders(n)
        if not orders:
            raise InfeasibleOrderError(n)
        m = orders[0]
    rep = represent(n, m)
    try:
        rows = _checked_grid(rep.t, rep.t)
        _check_cuts(rep.t, rep.t, n)  # _checked_grid checked the sums
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    return rep, rows


def construct_trace(n: int, m: int | None = None) -> Construction:
    """Build an order-m KG partition of {1..n}, keeping intermediates.

    With m omitted, the smallest feasible order is used. Pipeline:
    represent(n, m); realize t as both row and column sums, in t order
    (the construction checks symmetry); chunk into sets with labels 1..n.
    """
    rep, rows = _checked_construction(n, m)
    a_sets, b_sets = _sets(_rows(range(1, n + 1), rep.t)), _sets(_grid_columns(rows))
    partition = _unchecked(KgPartition, n=n, a_sets=a_sets, b_sets=b_sets)  # canonical order already
    return Construction(rep, _unchecked(BinaryMatrix, rows=tuple(map(tuple, rows))), partition)  # checked byte rows


def construct(n: int, m: int | None = None) -> KgPartition:
    """Knowlton-Graham partition of {1..n} with order m (smallest feasible if omitted)."""
    return construct_trace(n, m).partition


def partition_to_json(partition: KgPartition) -> str:
    """Serialize an integer-labelled pair as a schema-tagged JSON document: ``json.dumps(indent=2)``'s
    bytes with each set as its ascending elements (_sorted_runs). A non-int or bool label: ValueError."""
    sets = partition.a_sets + partition.b_sets
    if not set(map(type, chain.from_iterable(sets))) <= {int}:  # else name the first non-int or bool
        for x in chain.from_iterable(sets):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"only integer-labelled partitions serialize, got {x!r}")
    fields = [("a_sets", _sorted_runs(partition.a_sets), -1, "{}"), ("b_sets", _sorted_runs(partition.b_sets), -1, "{}")]
    return "".join(document({"schema": PARTITION_SCHEMA, "n": partition.n}, fields, True))


def partition_from_json(text: str, schemas: Sequence[str] = (PARTITION_SCHEMA,)) -> KgPartition:
    """Parse a partition document. Malformed input raises ValueError; a well-formed document
    describing an invalid pair parses fine (verification is a separate step; ``wireid verify``
    judges the parsed lists with _verdict, as kg_violations does, and builds no KgPartition)."""
    return KgPartition(*_read_partition(text, schemas))


def _read_partition(text: str, schemas: Sequence[str]) -> tuple[int, list[list[int]], list[list[int]]]:
    """n and the A- and B-sets of a partition document, as the lists json.loads built."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("partition document must be a JSON object")
    schema = payload.get("schema")
    if schema not in schemas:
        raise ValueError(f"unsupported schema {schema!r}, expected one of {list(schemas)}")
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    for field in ("a_sets", "b_sets"):
        raw = payload.get(field)
        if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
            raise ValueError(f"field {field!r} must be a list of integer lists")
        # json.loads yields exact ints for integers (bools have type bool).
        if not set(map(type, chain.from_iterable(raw))) <= {int}:
            x = next(x for x in chain.from_iterable(raw) if type(x) is not int)
            raise ValueError(f"field {field!r} must contain only integers, got {x!r}")
    return n, payload["a_sets"], payload["b_sets"]

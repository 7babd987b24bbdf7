"""Square 0-1 matrices with prescribed row and column sums.

A degree sequence is a plain tuple of non-negative integers; a sequence of
length m prescribes the number of 1s in each row (or each column) of an
m x m matrix. The central operation is :func:`construct_matrix`, which
realizes, in the order given, any pair of degree sequences with equal
totals whose nonincreasing sorts are gap-free (consecutive entries drop by
at most 1). It works level by level on one sorted order of the sums, held
in place: level s peels off row and column s, lowers the sums after them
and restores the order by swapping two adjacent runs, then moves on to
position s + 1. An index array maps each sorted position back to the
input's row (column), so each level writes its row and then its column
straight into m ``bytearray`` rows: O(m^2) work, no recursion depth limit.
Equal row and column sums share one order, peeled once per level; the
column writes stay, so the symmetry check below still tests the
construction. It cannot fail once :func:`can_construct` accepts the sorted
input; that is checked once, on the byte rows and their strided transpose
(symmetry for equal sums, then the sums); a failure raises ConstructionError.

Text format: a matrix serializes as m lines of m characters, ``'1'`` for a
one and ``'.'`` for a zero, newline-terminated. Degree sequences serialize
as comma-separated integers.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain, repeat
from operator import add
from typing import Iterable, Sequence

DegreeSequence = tuple[int, ...]


class ConstructionError(RuntimeError):
    """A check on the constructed output failed: the construction is at fault."""


class _Frozen:
    """Base of the package's immutable records, in place of a frozen dataclass (whose import costs a cold start
    about 10 ms). A subclass's fields, also its __match_args__, are its base's and then its own annotations, in
    order. __init__ binds them through the class's namedtuple (_fields_of), so Python binds the arguments and a
    bad call raises the dataclass's TypeError, naming __new__ for __init__; then it runs __post_init__. ==, hash
    and repr are the namedtuple's of the fields, in the dataclass layout, and == holds only within one class.
    Assigning or deleting an attribute raises AttributeError."""

    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        vars(self).update(_fields_of(type(self))(*args, **kwargs)._asdict())
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return _fields_of(type(self))._make(map(vars(self).__getitem__, self.__match_args__))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return repr(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@cache
def _fields_of(cls: type) -> type:
    """The namedtuple of a _Frozen class's fields, named as the class, built on first use: records made only by
    _unchecked, as the CLI makes them, build none."""
    return namedtuple(cls.__name__, cls.__match_args__)


def _unchecked(cls: type, **attributes):
    """A _Frozen record holding attributes as given: the caller vouches for its __post_init__."""
    instance = object.__new__(cls)
    vars(instance).update(attributes)
    return instance


class BinaryMatrix(_Frozen):
    """An m x m grid with entries in {0, 1}, checked at C speed."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if m == 0:
            raise ValueError("matrix must have at least one row")
        for row in rows:
            if len(row) != m:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in a {m}-row matrix")
        try:
            binary = all(map({0, 1}.issuperset, rows))
        except TypeError:  # an unhashable entry
            binary = False
        if not binary:  # name the first bad entry
            for v in chain.from_iterable(rows):
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
        return _unchecked(BinaryMatrix, rows=tuple(zip(*self.rows)))  # a checked matrix's transpose

    def to_text(self) -> str:
        """Render as m newline-terminated lines of '.'/'1' characters."""
        return _text(_byte_rows(self.rows))


def _byte_rows(rows: Sequence[Sequence]) -> list[bytes]:
    """Rows of entries equal to 0 or 1 as bytes, for _text and matrix_to_partition."""
    try:  # C speed for int and bool entries
        return list(map(bytes, rows))
    except TypeError:  # other entries equal to 0 or 1, such as 1.0
        return [bytes(map(bool, row)) for row in rows]


def _text(rows: Iterable[bytes]) -> str:
    """The text format of rows of 0 and 1 bytes, one line each."""
    return (b"\n".join(rows) + b"\n").translate(bytes.maketrans(b"\0\1", b".1")).decode()


def format_degree_sequence(seq: Sequence[int]) -> str:
    return ",".join(map(str, seq))


def can_construct(r: Sequence[int], c: Sequence[int]) -> bool:
    """Hypotheses under which construct_matrix is guaranteed to succeed.

    True iff the two sequences have equal totals, are nonincreasing with
    values in [0, m], and are gap-free: each entry is at least its
    predecessor minus 1. Order matters; callers sort first if they only
    care about the multiset.
    """
    m = len(r)
    if m != len(c):
        raise ValueError(f"row and column sums must have equal length, got {m} and {len(c)}")
    if m == 0:
        raise ValueError("degree sequences must have length at least 1")
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
    rm) and the mirror c'; stably re-sorted (a swap of two runs), those form
    the next level. The sorted sums are one list per side, peeled in place:
    level s works on positions s..m-1. An index array per side maps each
    sorted position to its row (column) in the input, starting at the stable
    sort of the input, so every level writes its row and then its column
    straight into the one m x m output: O(m^2) work in all, no sub-matrix
    copy, no recursion depth limit. When r == c the two sides share one list
    and one index array, peeled once per level; the column writes are still
    made, not mirrored from the rows. Rows (columns) with equal sums take the
    sorted construction's rows (columns) in input order, so sorted input
    gives the sorted construction itself. Self-dual: equal inputs produce a
    symmetric matrix. The rows are checked once, as bytes (see _checked_grid),
    and a failure raises ConstructionError (the construction is at fault).
    """
    rows = _checked_grid(tuple(r), tuple(c))
    return _unchecked(BinaryMatrix, rows=tuple(map(tuple, rows)))  # checked byte rows: only 0s and 1s, m of m


def _checked_grid(r: DegreeSequence, c: DegreeSequence) -> list[bytearray]:
    """construct_matrix's byte rows, checked on their columns sliced from the flat grid. ValueError if can_construct
    rejects the sorted sums; ConstructionError unless rows == cols for r == c, then unless they realize r and c."""
    sums = f"r={format_degree_sequence(r)} c={format_degree_sequence(c)}"
    if not can_construct(sorted(r, reverse=True), sorted(c, reverse=True)):
        raise ValueError("sums are not constructible (need equal totals and, once sorted nonincreasing, "
                         f"gap-free within [0, m]): {sums}")
    rows = _construct(r, c)
    m, flat = len(rows), b"".join(rows)
    cols = [flat[k::m] for k in range(m)]
    if r == c and rows != cols:
        raise ConstructionError(f"the constructed matrix for {sums} is not symmetric")
    if tuple(row.count(1) for row in rows) != r or (r != c and tuple(col.count(1) for col in cols) != c):
        raise ConstructionError(f"the constructed matrix does not realize {sums}")
    return rows


def _construct(r: DegreeSequence, c: DegreeSequence) -> list[bytearray]:
    """construct_matrix's level loop, into m bytearray rows: level s works on positions
    s..m-1 of the sorted sums, which _peel keeps in order in place. Equal sums share one order."""
    m = len(r)
    out = [bytearray(m) for _ in range(m)]
    # Sorted position -> original row (column) of the output.
    r_cur, rows = _sort_descending(r)
    c_cur, cols = (r_cur, rows) if r == c else _sort_descending(c)
    for s in range(m):
        p, q = r_cur[s], c_cur[s]
        if not p:  # a zero largest sum means the rest is zero too: equal totals force both
            break
        top = out[rows[s]]
        for j in cols[s : s + p]:
            top[j] = 1
        col = cols[s]
        for i in rows[s + 1 : s + q]:
            out[i][col] = 1
        # Positions s+1..s+q-1 of r lose one to the level's column (and of c
        # to its row, s+1..s+p-1).
        _peel(r_cur, rows, s, q)
        if cols is not rows:
            _peel(c_cur, cols, s, p)
    return out


def _peel(values: list[int], origin: list[int], s: int, q: int) -> None:
    """Lower values[s+1:s+q] by one and put values[s+1:] back into stable
    descending order in place, carrying origin along, for gap-free
    nonincreasing values[s:]: a swap of the head's last run (low, from i)
    and the tail's run at low + 1 (up to stop, often empty)."""
    if q < 2:
        return
    end = s + q
    values[s + 1 : end] = map(add, values[s + 1 : end], repeat(-1))
    low = values[end - 1]
    if end == len(values) or values[end] == low:
        return
    i = values.index(low, s + 1, end)
    stop = len(values) if values[-1] > low else values.index(low, end)
    values[i:stop] = values[end:stop] + values[i:end]
    origin[i:stop] = origin[end:stop] + origin[i:end]


def _sort_descending(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Stable descending sort of values, and the position in values each sorted value came from."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return [values[i] for i in order], order

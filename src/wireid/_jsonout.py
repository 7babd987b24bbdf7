"""The indent-2 JSON layout of ``json.dumps(obj, indent=2)``, written directly.

With ``indent`` set, CPython's ``json`` falls back to its pure-Python
encoder, which yields every token from nested generators. The documents
this package writes are mostly long lists of ints and of int rows. IntRuns
is the one row form: a side of the pair, a list of int sets (as their
ascending elements) and a list of coordinates (rows of two, from
_paired_runs) are each rows cut from one flat list. One ``map(str, ...)``
per int list and one %-operation per run of equal-length rows write the
same bytes several times faster. A dict document can also be
written one field at a time (``dict_pieces``), so that no whole-document
string is built.
"""

from __future__ import annotations

import json
from itertools import chain, groupby
from typing import Callable, Collection, Iterator, NamedTuple, Sequence


class IntRuns(NamedTuple):
    """Rows cut from one flat list, in order: each (size, count) of runs takes
    count rows of size items (dumps_indent2 writes int rows as rows, and
    partitions._sets cuts any labels into frozensets)."""
    flat: Sequence
    runs: Sequence[tuple[int, int]]


def dumps_indent2(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with sets and frozensets written as
    ascending lists. IntRuns (as their rows; a list of int sets is turned
    into one first), non-empty dicts (dict_pieces, joined) and non-empty
    lists and tuples are written directly, int lists and runs of
    equal-size int rows by one %-operation each; anything else is
    ``json.dumps``, re-indented (json escapes the newlines inside strings,
    so each one it writes is a line break), with its TypeError for the rest.

    ``newline`` is the line break plus the indentation of the enclosing
    level; callers leave it at its default.
    """
    inner = newline + "  "
    if isinstance(obj, (set, frozenset)):  # so json.dumps below meets no set: containers recurse first
        obj = sorted(obj)
    kinds = set(map(type, obj)) if isinstance(obj, (list, tuple)) and not isinstance(obj, IntRuns) else set()
    if kinds and kinds <= {set, frozenset} and set(map(type, chain.from_iterable(obj))) <= {int}:
        obj = _sorted_runs(obj)  # not bools: %d would write True as 1
    if isinstance(obj, IntRuns):
        rows = format_int_runs(obj, _row_template(inner), "," + inner)
        return "[" + inner + rows + newline + "]" if rows else "[]"
    if isinstance(obj, dict) and obj:
        return "".join(dict_pieces(obj, newline))
    if not kinds:  # not a non-empty list or tuple
        return json.dumps(obj, indent=2).replace("\n", newline)
    if kinds == {int}:
        body = ("," + inner).join(map(str, obj))
    else:
        body = ("," + inner).join(dumps_indent2(item, inner) for item in obj)
    return "[" + inner + body + newline + "]"


def dict_pieces(obj: dict, newline: str = "\n") -> Iterator[str]:
    """dumps_indent2 of a non-empty dict in pieces that join to it: each key
    (as json.dumps writes it, TypeError included) with its separators, then
    its value's text, then the closing brace. Writing them one by one puts
    no more than one field's text in memory."""
    inner = newline + "  "
    keys = (json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1 : -len(": null}")] for k in obj)
    opening = "{" + inner
    for key, value in zip(keys, obj.values()):
        yield opening + key + ": "
        yield dumps_indent2(value, inner)
        opening = "," + inner
    yield newline + "}"


def _row_template(inner: str) -> Callable[[int], str]:
    """The %-template of one int row of a given size inside a list at indentation inner."""
    leaf = inner + "  "

    def template(size: int) -> str:
        return "[" + leaf + ("," + leaf).join(["%d"] * size) + inner + "]" if size else "[]"

    return template


def _sorted_runs(sets: Sequence[Collection[int]]) -> IntRuns:
    """The sets as rows of their ascending elements, one run per stretch of equal-size sets."""
    flat = list(chain.from_iterable(map(sorted, sets)))
    return IntRuns(flat, [(size, len(list(run))) for size, run in groupby(map(len, sets))])


def _paired_runs(firsts: Sequence[int], seconds: Sequence[int]) -> IntRuns:
    """The rows [firsts[i], seconds[i]], one run of rows of two over the two lists interleaved."""
    flat = [0] * (2 * len(firsts))
    flat[::2], flat[1::2] = firsts, seconds
    return IntRuns(flat, [(2, len(firsts))])


def _parts(rows: IntRuns) -> Iterator[tuple[int, int, Sequence]]:
    """Each (size, count) run of rows with the part of the flat list it takes.
    ValueError unless the runs take the flat list exactly."""
    flat, runs = rows
    taken = sum(size * count for size, count in runs)
    if taken != len(flat):
        raise ValueError(f"the runs take {taken} ints, but the flat list holds {len(flat)}")
    start = 0
    for size, count in runs:
        end = start + size * count
        yield size, count, flat[start:end] if len(runs) > 1 else flat  # a lone run takes all of flat: no copy
        start = end


def format_int_runs(rows: IntRuns, template: Callable[[int], str], sep: str) -> str:
    """The rows of rows, each written as ``template(size) % tuple(row)`` and
    joined by sep: one %-operation per (size, count) run. The runs must take
    the flat list exactly."""
    return sep.join(sep.join([template(size)] * count) % tuple(part) for size, count, part in _parts(rows) if count)


"""The indent-2 JSON layout of ``json.dumps(obj, indent=2)``, written directly.

With ``indent`` set, CPython's ``json`` falls back to its pure-Python
encoder, which yields every token from nested generators. The documents
this package writes are mostly long lists of ints and of int rows. IntRuns
is the one row form: a side of the pair, a list of int sets (as their
ascending elements) and a list of coordinates (rows of two, from
_paired_runs) are each rows cut from one flat list, and a flat int list is
one row. One %-operation per run of equal-length rows writes the same bytes
several times faster; a caller that knows its ints lie in 0..bound (set
sizes, bounded by the order) has each value's text looked up in a table
instead. A dict document can also be written one field at a time
(``dict_pieces``), so that no whole-document string is built.
"""

from __future__ import annotations

import json
from itertools import chain, cycle, groupby
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence


class IntRuns(NamedTuple):
    """Rows cut from one flat list, in order: each (size, count) of runs takes
    count rows of size items (dumps_indent2 writes int rows as rows, and
    partitions._sets cuts any labels into frozensets)."""
    flat: Sequence
    runs: Sequence[tuple[int, int]]


def dumps_indent2(obj) -> str:
    """``json.dumps(obj, indent=2)`` with sets and frozensets written as
    ascending lists. IntRuns (as their rows; a list of int sets is turned
    into one first), non-empty dicts (dict_pieces) and non-empty lists and
    tuples are written directly, int lists (as one row) and runs of
    equal-size int rows by format_int_runs; anything else is
    ``json.dumps``, re-indented (json escapes the newlines inside strings,
    so each one it writes is a line break), with its TypeError for the rest.
    """
    return "".join(_pieces(obj, "\n", -1))


def dict_pieces(obj: dict, newline: str = "\n", bounds: Mapping = {}) -> Iterator[str]:
    """dumps_indent2 of a non-empty dict in pieces that join to it: each key
    (as json.dumps writes it, TypeError included) with its separators, then
    its value's pieces (see _pieces), then the closing brace. Writing them
    one by one puts no more than one field's text in memory. The value of a
    key in bounds is written with that bound (see format_int_runs)."""
    inner = newline + "  "
    opening = "{" + inner
    for key, value in obj.items():
        key_text = json.dumps(key) if isinstance(key, str) else json.dumps({key: None})[1 : -len(": null}")]
        yield opening + key_text + ": "
        yield from _pieces(value, inner, bounds.get(key, -1))
        opening = "," + inner
    yield newline + "}"


def _pieces(obj, newline: str, bound: int) -> Iterable[str]:
    """dumps_indent2's text of obj, at the indentation of newline (the line break plus the indentation
    of the enclosing level), in pieces: a list's brackets stay apart from its body, so no body is copied.
    bound is format_int_runs' for obj's own ints, not for those of the lists or dicts it holds."""
    inner = newline + "  "
    if isinstance(obj, (set, frozenset)):  # so json.dumps below meets no set: containers recurse first
        obj = sorted(obj)
    kinds = set(map(type, obj)) if isinstance(obj, (list, tuple)) and not isinstance(obj, IntRuns) else set()
    if kinds and kinds <= {set, frozenset} and set(map(type, chain.from_iterable(obj))) <= {int}:
        obj = _sorted_runs(obj)  # not bools: %d would write True as 1
    if isinstance(obj, IntRuns):
        body = format_int_runs(obj, _row_template(inner), "," + inner, bound)
    elif isinstance(obj, dict) and obj:
        return dict_pieces(obj, newline)
    elif not kinds:  # not a non-empty list or tuple
        return (json.dumps(obj, indent=2).replace("\n", newline),)
    elif kinds == {int}:  # one row at this level: the same bytes
        return (format_int_runs(IntRuns(obj, [(len(obj), 1)]), _row_template(newline), "", bound),)
    else:
        body = ("," + inner).join("".join(_pieces(item, inner, -1)) for item in obj)
    return ("[" + inner, body, newline + "]") if body else ("[]",)


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


def format_int_runs(rows: IntRuns, template: Callable[[int], str], sep: str, bound: int = -1) -> str:
    """The rows of rows, each written as ``template(size) % tuple(row)`` and
    joined by sep: one %-operation per (size, count) run. The runs must take
    the flat list exactly.

    With bound >= 0, each run of non-empty rows is written through tables
    instead: the text of each of 0..bound with the template's literal pieces
    and sep attached, one lookup per value and one join. For that, every
    template(size) with size >= 1 must read pre + mid.join(["%d"] * size) + post.
    A value the tables miss (outside 0..bound, or not an int) sends the run
    back to its %-operation, so the bytes are the same for any values."""
    return sep.join(_run_text(template, sep, bound, size, count, part) for size, count, part in _parts(rows) if count)


def _run_text(template: Callable[[int], str], sep: str, bound: int, size: int, count: int, part: Sequence) -> str:
    """format_int_runs of one run of count rows of size items, part being their values."""
    if size and bound >= 0:
        pre, mid, post = template(2).split("%d")

        def table(piece: str) -> dict:
            return {value: "%d" % value + piece for value in range(bound + 1)}

        # A table per position in a row; the last one's text also closes the row and opens the next.
        positions = [table(mid)] * (size - 1) + [table(post + sep + pre)] if count > 1 else [table(mid)]
        try:
            texts = list(map(dict.__getitem__, cycle(positions), part))
            texts[-1] = "%d" % part[-1] + post
        except (KeyError, TypeError):  # a miss (or an unhashable value): the %-operation decides
            pass
        else:
            texts[0] = pre + texts[0]
            return "".join(texts)
    return sep.join([template(size)] * count) % tuple(part)


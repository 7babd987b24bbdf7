"""The indent-2 JSON layout of ``json.dumps(obj, indent=2)``, written directly.

With ``indent`` set, CPython's ``json`` falls back to its pure-Python
encoder, which yields every token from nested generators. The documents
this package writes are mostly long lists of ints and of int rows (sets,
coordinates as IntPairs), so one ``map(str, ...)`` per int list and one
%-operation per run of equal-length rows write the same bytes several times
faster.
"""

from __future__ import annotations

import json
from itertools import chain, groupby
from typing import Callable, Iterable, NamedTuple, Sequence


class IntPairs(NamedTuple):
    """Int rows [firsts[i], seconds[i]], kept as the two lists (dumps_indent2 writes them as rows)."""
    firsts: Sequence[int]
    seconds: Sequence[int]


def dumps_indent2(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with sets and frozensets written as
    ascending lists. IntPairs (as rows of two), non-empty dicts (each key as
    json.dumps writes it, TypeError included) and non-empty lists and tuples
    are written directly, int lists and runs of equal-size int sets by one
    %-operation each; anything else is ``json.dumps``, re-indented (json
    escapes the newlines inside strings, so each one it writes is a line
    break), with its TypeError for the rest.

    ``newline`` is the line break plus the indentation of the enclosing
    level; callers leave it at its default.
    """
    inner = newline + "  "
    if isinstance(obj, (set, frozenset)):  # so json.dumps below meets no set: containers recurse first
        obj = sorted(obj)
    if isinstance(obj, IntPairs):
        leaf = inner + "  "
        pairs = format_int_pairs(obj, "[" + leaf + "%d," + leaf + "%d" + inner + "]", "," + inner)
        return "[" + inner + pairs + newline + "]" if obj.firsts else "[]"
    if isinstance(obj, dict) and obj:
        keys = (json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1 : -len(": null}")] for k in obj)
        items = (key + ": " + dumps_indent2(value, inner) for key, value in zip(keys, obj.values()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj, indent=2).replace("\n", newline)
    kinds = set(map(type, obj))
    if kinds == {int}:
        body = ("," + inner).join(map(str, obj))
    elif kinds <= {set, frozenset} and set(map(type, chain.from_iterable(obj))) <= {int}:
        leaf = inner + "  "

        def template(size: int) -> str:
            return "[" + leaf + ("," + leaf).join(["%d"] * size) + inner + "]" if size else "[]"

        body = format_int_rows(map(sorted, obj), template, "," + inner)
    else:
        body = ("," + inner).join(dumps_indent2(item, inner) for item in obj)
    return "[" + inner + body + newline + "]"


def format_int_rows(rows: Iterable, template: Callable[[int], str], sep: str) -> str:
    """Int rows, each written as ``template(len(row)) % tuple(row)`` and joined
    by sep: one %-operation per run of consecutive equal-length rows."""
    runs = (list(run) for _, run in groupby(rows, len))
    return sep.join(sep.join([template(len(r[0]))] * len(r)) % tuple(chain.from_iterable(r)) for r in runs)


def format_int_pairs(pairs: IntPairs, template: str, sep: str) -> str:
    """Each pair written as ``template % pair`` and joined by sep, by one
    %-operation over the two lists interleaved."""
    flat = [0] * (2 * len(pairs.firsts))
    flat[::2], flat[1::2] = pairs
    return sep.join([template] * len(pairs.firsts)) % tuple(flat)

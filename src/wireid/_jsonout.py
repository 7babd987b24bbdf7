"""The indent-2 JSON layout of ``json.dumps(obj, indent=2)``, written directly.

With ``indent`` set, CPython's ``json`` falls back to its pure-Python
encoder, which yields every token from nested generators. The documents
this package writes are mostly long lists of ints, so joining each such
list with ``map(str, ...)`` in one go produces the same bytes several
times faster.
"""

from __future__ import annotations

import json
from itertools import chain


def dumps_indent2(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for dicts with str keys, lists, tuples,
    ints and strs (any other scalar goes through ``json.dumps``). A set or
    frozenset is written as the list of its elements, ascending.

    ``newline`` is the line break plus the indentation of the enclosing
    level; callers leave it at its default.
    """
    inner = newline + "  "
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.dumps(key) + ": " + dumps_indent2(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {int}:
        items = map(str, obj)
    elif kinds <= {list, tuple} and _int_rows_of_one_length(obj):
        # Short rows such as (j, k) coordinates: one %-template per row.
        leaf = inner + "  "
        template = "[" + leaf + ("," + leaf).join(["%d"] * len(obj[0])) + inner + "]"
        items = map(template.__mod__, map(tuple, obj))
    else:
        items = (dumps_indent2(item, inner) for item in obj)
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _int_rows_of_one_length(rows) -> bool:
    return (
        len(set(map(len, rows))) == 1
        and len(rows[0]) > 0
        and set(map(type, chain.from_iterable(rows))) == {int}
    )

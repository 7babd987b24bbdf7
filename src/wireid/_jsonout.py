"""``json.dumps(obj, indent=2)``'s bytes for the package's documents, written directly.

With ``indent`` set, CPython's ``json`` falls back to its pure-Python encoder. Each document is a flat
dict whose long fields are flat int lists (the probes) or IntRuns, the one row form: a side of the pair,
int sets as their ascending elements (_sorted_runs) and coordinates (rows of two, _paired_runs) are rows
cut from one flat list.
One %-operation per run of equal-length rows writes them several times faster; ints a caller knows to
lie in 0..bound (set sizes, bounded by the order) are looked up in a table instead, and rows cut from a
range (the A side: the labels 1..n in order) are slices of one text of its labels, built by copying.
``dict_pieces`` writes a document one field at a time, as the caller says, without scanning a value's types.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, cycle, groupby, islice, repeat, starmap
from operator import add, mul, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence


class IntRuns(NamedTuple):
    """Rows cut from one flat list, in order: each (size, count) of runs takes
    count rows of size items (dict_pieces writes a field's int rows from one,
    and partitions._sets cuts any labels into frozensets)."""
    flat: Sequence
    runs: Sequence[tuple[int, int]]


def dict_pieces(fields: Iterable[tuple[str, object]], bounds: Mapping[str, int]) -> Iterator[str]:
    """``json.dumps(dict(fields), indent=2)`` for one or more (str key, value) pairs, keys distinct, in pieces
    that join to it. Each field's value and text are dropped before the next pair is drawn, and a list's
    brackets come apart from its body, so no body is copied. An IntRuns value is written as its rows, with its
    key's bound if bounds has one; any other value under a key in bounds is a flat list of ints (no bools: the
    caller vouches for it), one row through the tables; anything else is ``json.dumps(value, indent=2)``,
    re-indented (json escapes the newlines inside strings, so each one it writes is a line break)."""
    opening = "{\n  "
    for key, value in fields:
        yield opening + json.dumps(key) + ": "
        if isinstance(value, IntRuns):
            body = format_int_runs(value, _row_template("\n    "), ",\n    ", bounds.get(key, -1))
            yield from ("[\n    ", body, "\n  ]") if body else ("[]",)
        elif key in bounds:
            yield format_int_runs(IntRuns(value, [(len(value), 1)]), _row_template("\n  "), "", bounds[key])
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        opening, value, body = ",\n  ", None, None
    yield "\n}"


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
    back to its %-operation, so the bytes are the same for any values. A flat
    step-1 range of positive ints, cut into runs of count >= 1 rows of size >= 1,
    is written by _range_text whatever the bound; its template must read so too."""
    parts, (flat, runs) = _parts(rows), rows
    if type(flat) is range and flat.step == 1 and 0 < flat.start < flat.stop and all(s > 0 < c for s, c in runs):
        next(parts)  # ValueError unless the runs take the range exactly
        return _range_text(flat, runs, *template(2).split("%d"), sep)
    return sep.join(_run_text(template, sep, bound, size, count, part) for size, count, part in parts if count)


def _range_text(labels: range, runs: Sequence[tuple[int, int]], pre: str, mid: str, post: str, sep: str) -> str:
    """format_int_runs of runs of rows cut from labels, a step-1 range of positive ints, for a template reading
    pre + mid.join(["%d"] * size) + post: slices of one text of the labels, each followed by mid, built by copying
    (labels 1000p..1000p + 999 are str(p) joined onto the suffixes 000..999; only the edges are formatted) and
    cut where 1..x - 1 hold L * x - (10^L - 1) / 9 digits, L being the digit count of x (or of x - 1)."""
    start, stop, width = labels.start, labels.stop, len(mid)
    low = -(-max(start, 1000) // 1000)  # the thousands the range holds whole are low..high - 1
    high = max(low, stop // 1000)
    edges = [range(start, min(1000 * low, stop)), range(1000 * high, stop)]
    head, tail = ["".join(map(add, map(str, edge), repeat(mid))) for edge in edges]
    block = ["", *map(add, map("%03d".__mod__, range(1000)), repeat(mid))]
    text = "".join(chain([head], map(str.join, map(str, range(low, high)), repeat(block)), [tail]))
    offsets = list(accumulate(chain.from_iterable(starmap(repeat, runs)), initial=start))  # each row's first label
    digits = list(map(len, map(str, offsets)))
    ones = [(10**length - 1) // 9 for length in range(digits[-1] + 1)]
    offsets = list(map(sub, map(mul, offsets, map(width.__add__, digits)), map(ones.__getitem__, digits)))  # their texts'
    ends = map((offsets[0] + width).__rsub__, islice(offsets, 1, None))
    row_texts = list(map(text.__getitem__, map(slice, map(offsets[0].__rsub__, offsets), ends)))
    del text, offsets  # two copies of the labels' text at most: the rows, then the rows and their join
    row_texts[0] = pre + row_texts[0]
    row_texts[-1] += post
    return (post + sep + pre).join(row_texts)


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


"""The one writer of the package's documents, in both output formats: ``document``.

A document is a head and a list of fields. Structured, the head is a dict, written as ``json.dumps(indent=2)``
writes it but without json's indenting encoder (_indented), and the whole document is
``json.dumps(obj, indent=2)``'s bytes plus a newline; in the grid, the head is text lines and each field is
one ``key: rows`` line. A field's value is IntRuns, the one row form: a side of the pair, int sets as their
ascending elements (_sorted_runs), coordinates (rows of two, _paired_runs) and probes (rows of one) are rows
cut from one flat list.
Each field is written in pieces of consecutive whole rows, at most CHUNK values each, so no field's whole
text is built. One %-operation writes a piece; ints a caller knows to lie in 0..bound (set sizes, bounded
by the order) are looked up in a table instead, and rows cut from a range (the A side: the labels 1..n in
order) are slices of one text of its labels, built by copying.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, cycle, groupby, islice, repeat, starmap
from operator import add, mul, sub
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

CHUNK = 2**16  # the most values a piece of a field holds, unless it is one longer row


class IntRuns(NamedTuple):
    """Rows cut from one flat list, in order: each (size, count) of runs takes
    count rows of size items (document writes a field's int rows from one,
    and partitions._sets cuts any labels into frozensets)."""
    flat: Sequence
    runs: Sequence[tuple[int, int]]


def document(head: dict | str, fields: Iterable[tuple[str, IntRuns, int, str]], structured: bool) -> Iterator[str]:
    """The document in pieces that join to it: the head, then each (key, rows, bound, brackets) field.
    Brackets are "{}" for sets, "()" for pairs and "" for a list of ints (rows of one), as the grid writes
    them; JSON writes each bracketed row as a list. With bound >= 0 the values are looked up in tables of
    0..bound; any value the tables miss is %-formatted, so the bytes are the same for any values. Rows must
    hold ints (a bool is written as %d writes it): the head is json's to write. The structured head must
    hold at least one key; it is written as json.dumps(head, indent=2) would write it (_items), building no
    reference cycles."""
    yield "{\n  " + ",\n  ".join(_items(head, "  ")) if structured else head
    for key, rows, bound, brackets in fields:
        if structured:
            pre, mid, post = ("[\n      ", ",\n      ", "\n    ]") if brackets else ("", ",\n    ", "")
            pieces = _pieces(rows, bound, pre, mid, post, ",\n    ", "[]")
            label, opening, closing, nothing = ",\n  " + json.dumps(key) + ": ", "[\n    ", "\n  ]", "[]"
        else:
            pieces = _pieces(rows, bound, brackets[:1], ",", brackets[1:], " " if brackets else ",", brackets)
            label, opening, closing, nothing = key + ": ", "", "\n", "\n"
        first = next(pieces, None)  # ValueError unless the runs take the flat list exactly
        if first is None:  # no rows
            yield label + nothing
            continue
        yield label + opening
        yield first
        yield from pieces
        yield closing
    if structured:
        yield "\n}\n"


def _indented(value, indent: str) -> str:
    """The bytes json.dumps(value, indent=2) writes for a value nested at indent, without json's indenting
    encoder: its closures reference each other, so each call would leave cyclic garbage. Lists and dicts are
    written item by item, and each scalar, [] and {} by json.dumps with no indent, which builds none."""
    if not (value and isinstance(value, (list, tuple, dict))):
        return json.dumps(value)
    inner = indent + "  "
    items = _items(value, inner) if isinstance(value, dict) else (_indented(item, inner) for item in value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + closing


def _items(mapping: dict, indent: str) -> Iterator[str]:
    """Each key: value of a dict nested at indent, as json.dumps(indent=2) writes it (a key that is not a str is
    written as json writes it, in quotes)."""
    for key, value in mapping.items():
        yield json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": " + _indented(value, indent)


def _sorted_runs(sets: Sequence[Collection[int]]) -> IntRuns:
    """The sets as rows of their ascending elements, one run per stretch of equal-size sets."""
    flat = list(chain.from_iterable(map(sorted, sets)))
    return IntRuns(flat, [(size, len(list(run))) for size, run in groupby(map(len, sets))])


class _Interleaved:
    """The flat list firsts[0], seconds[0], firsts[1], seconds[1], ... of two equal-length lists, built only
    a slice of whole pairs at a time."""

    def __init__(self, firsts: Sequence[int], seconds: Sequence[int]):
        self.firsts, self.seconds = firsts, seconds

    def __len__(self) -> int:
        return 2 * len(self.firsts)

    def __getitem__(self, part: slice) -> list:
        pairs, flat = slice(part.start // 2, part.stop // 2), [0] * (part.stop - part.start)
        whole = len(flat) == len(self)  # the lists themselves: a slice of them would cost as much as the rest
        flat[::2], flat[1::2] = (self.firsts, self.seconds) if whole else (self.firsts[pairs], self.seconds[pairs])
        return flat


def _paired_runs(firsts: Sequence[int], seconds: Sequence[int]) -> IntRuns:
    """The rows [firsts[i], seconds[i]], one run of rows of two over the two lists interleaved."""
    return IntRuns(_Interleaved(firsts, seconds), [(2, len(firsts))])


def _check(rows: IntRuns) -> None:
    """ValueError unless the runs take the flat list exactly."""
    taken = sum(size * count for size, count in rows.runs)
    if taken != len(rows.flat):
        raise ValueError(f"the runs take {taken} ints, but the flat list holds {len(rows.flat)}")


def _parts(rows: IntRuns) -> Iterator[tuple[int, int, Sequence]]:
    """Each (size, count) run of rows with the part of the flat list it takes.
    ValueError unless the runs take the flat list exactly."""
    _check(rows)
    flat, runs = rows
    start = 0
    for size, count in runs:
        end = start + size * count
        yield size, count, flat[start:end] if len(runs) > 1 else flat  # a lone run takes all of flat: no copy
        start = end


def _cuts(runs: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """The rows cut into pieces of consecutive whole rows, at most CHUNK values each (a row of none counts
    as one) or one longer row: each piece's start and end in the flat list and its runs, none of count 0."""
    piece, room, start, end = [], CHUNK, 0, 0
    for size, count in runs:
        width = size or 1
        while count:
            take = count if count * width <= room else max(room // width, not piece)  # a piece takes at least one row
            if not take:
                yield start, end, piece
                piece, room, start = [], CHUNK, end
                continue
            piece.append((size, take))
            room, end, count = room - take * width, end + take * size, count - take
    if piece:
        yield start, end, piece


def _pieces(rows: IntRuns, bound: int, pre: str, mid: str, post: str, sep: str, empty: str) -> Iterator[str]:
    """The rows, each written pre + mid.join(its values) + post (empty if it has none) and joined by sep, in
    the pieces _cuts gives, with sep yielded between them. Each piece is one slice of the flat list; a step-1
    range of positive ints is sliced out of one text of its labels (_range_text), and with bound >= 0 a
    piece is written through tables of 0..bound, built once per field. ValueError, before the first piece,
    unless the runs take the flat list exactly."""
    _check(rows)
    flat, runs = rows
    ranged = type(flat) is range and flat.step == 1 and flat.start > 0
    # A table for a row's last value, whose text also closes the row and opens the next, and one for the values
    # before it, which rows of one (a probe) do not have.
    last = {value: "%d" % value + post + sep + pre for value in range(bound + 1)}
    inner = {value: "%d" % value + mid for value in range(bound + 1)} if any(size > 1 for size, _ in runs) else None
    block = ["", *map(add, map("%03d".__mod__, range(1000)), repeat(mid))] if ranged else None  # see _range_text
    for i, (start, end, piece) in enumerate(_cuts(runs)):
        if i:
            yield sep
        part, filled = flat[start:end], all(size for size, _ in piece)
        if ranged and filled:
            yield _range_text(part, piece, pre, mid, post, sep, block)
            continue
        text = _table_text(inner, last, piece, part, pre, post) if bound >= 0 and filled else None
        yield text or sep.join(chain.from_iterable(
            repeat(pre + mid.join(["%d"] * size) + post if size else empty, count) for size, count in piece
        )) % tuple(part)


def _table_text(inner: dict | None, last: dict, runs: Sequence[tuple[int, int]], part: Sequence, pre: str,
                post: str) -> str | None:
    """_pieces' text of one piece of non-empty rows by one lookup per value, or None if the tables miss one
    (a value outside 0..bound, or not an int). inner, the table of the values before a row's last, is None for
    rows of one."""
    rows = [cycle([inner] * (size - 1) + [last]) for size, _ in runs]
    # A lone run's cycle alone: islice and chain would cost a third more per value.
    positions = rows[0] if len(rows) == 1 else chain.from_iterable(map(islice, rows, starmap(mul, runs)))
    try:
        texts = list(map(dict.__getitem__, positions, part))
    except (KeyError, TypeError):  # a miss (or an unhashable value): the %-operation decides
        return None
    texts[-1] = "%d" % part[-1] + post
    texts[0] = pre + texts[0]
    return "".join(texts)


def _range_text(labels: range, runs: Sequence[tuple[int, int]], pre: str, mid: str, post: str, sep: str,
                block: list[str]) -> str:
    """_pieces' text of runs of non-empty rows cut from labels, a step-1 range of positive ints: slices of one
    text of the labels, each followed by mid, built by copying (labels 1000p..1000p + 999 are str(p) joined
    onto block, "" and the suffixes 000..999 each followed by mid; only the edges are formatted) and cut where
    1..x - 1 hold L * x - (10^L - 1) / 9 digits, L being the digit count of x (or of x - 1)."""
    start, stop, width = labels.start, labels.stop, len(mid)
    low = -(-max(start, 1000) // 1000)  # the thousands the range holds whole are low..high - 1
    high = max(low, stop // 1000)
    edges = [range(start, min(1000 * low, stop)), range(1000 * high, stop)]
    head, tail = ["".join(map(add, map(str, edge), repeat(mid))) for edge in edges]
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

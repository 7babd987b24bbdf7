"""Reference implementation the package's KG verification is checked against.

`reference_kg_violations` is kg_violations as first written: a Counter per
side for the structure checks, then one dict lookup, tuple key and sorted
walk per element for the cells. It imports nothing from the package but
KgPartition; tests require the package's kg_violations to return the same
message list on every input.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from wireid.partitions import KgPartition


def reference_kg_violations(partition: KgPartition) -> list[str]:
    """Diagnostics for everything that stops a pair from being a valid KG pair.

    Structure first (each side must be an exact partition of {1..n}); if
    the structure holds, every (j, k) cell holding two or more elements is
    listed with its witnesses. Empty list means the pair is valid.
    """
    messages: list[str] = []
    universe = set(range(1, partition.n + 1))
    for name, sets in (("A", partition.a_sets), ("B", partition.b_sets)):
        if any(len(s) == 0 for s in sets):
            messages.append(f"{name}-sets contain an empty set")
        counts = Counter(x for s in sets for x in s)
        duplicated = _ordered(x for x, c in counts.items() if c > 1)
        if duplicated:
            messages.append(f"{name}-sets overlap on elements {duplicated}")
        covered = set(counts)
        missing = universe - covered
        if missing:
            messages.append(f"{name}-sets do not cover elements {sorted(missing)}")
        extra = covered - universe
        if extra:
            messages.append(f"{name}-sets contain elements outside 1..{partition.n}: {_ordered(extra)}")
    if messages:
        return messages

    size_a = {x: len(s) for s in partition.a_sets for x in s}
    size_b = {x: len(s) for s in partition.b_sets for x in s}
    cells: dict[tuple[int, int], list] = defaultdict(list)
    for x in sorted(universe):
        cells[(size_a[x], size_b[x])].append(x)
    for (j, k), members in sorted(cells.items()):
        if len(members) > 1:
            messages.append(f"cell ({j},{k}) holds {len(members)} elements: {members}")
    return messages


def _ordered(items: Iterable) -> list:
    items = list(items)
    try:
        return sorted(items)
    except TypeError:  # mixed label types in a malformed pair
        return sorted(items, key=repr)

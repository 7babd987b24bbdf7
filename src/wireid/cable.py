"""Two-ended wire identification over a simulated cable.

The setting: a cable carries n indistinguishable wires between end A and
end B; a hidden bijection says which A-position comes out at which
B-position. Both ends agree beforehand on a Knowlton-Graham partition pair
for n (the public scheme). End A electrically joins each of its A-sets and
end B measures, per wire, how large a connected bundle it sits in; that
bundle size is the wire's row j. End B then joins B-sets of the proper
sizes, end A probes, and every wire has a (j, k) coordinate known at both
ends.

Conductivity is modeled as exact group membership: two probed wires read
as connected iff their counterparts share a group in the far end's plan.
No electrical behavior beyond that boolean, and no faults.

All runs are deterministic. A cable's hidden wiring comes from
``random.Random(seed)`` driving a Fisher-Yates shuffle (``random.shuffle``)
of the positions 1..n; seed 0 is reserved for the identity wiring. The
same seed always reproduces the same cable within this implementation.
Seeds must be non-negative: ``random.Random`` seeds from the absolute
value, so a negative seed would silently repeat the wiring of its positive
twin, and make_cable rejects it instead.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, mul, ne
from typing import Sequence

from ._jsonout import IntRuns, _paired_runs, _sorted_runs, document
from .matrices import _Frozen, _unchecked
from .partitions import (
    KgPartition, _blocks, _canonical_order, _grid_columns, _key_rows, _ranked, _side_sizes, _size_of, _verdict,
)

END_A = "A"
END_B = "B"

TRANSCRIPT_SCHEMA = "cable-transcript/1"


class ProtocolError(RuntimeError):
    """An internal check failed: end B's readings miss the scheme's row counts,
    or the two ends' coordinates disagree or are not the agreed matrix's 1-cells, each once."""


class CableInstance(_Frozen):
    """n wires with a hidden end-A-position to end-B-position bijection on the ints 1..n."""

    n: int
    wiring: tuple[int, ...]  # wiring[a-1] = B-position of the wire entering A-position a
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one wire, got n={self.n}")
        object.__setattr__(self, "wiring", tuple(self.wiring))
        if _side_sizes((self.wiring,), self.n) is None or not set(map(type, self.wiring)) <= {int}:
            raise ValueError("wiring must be a bijection on positions 1..n")


def make_cable(n: int, seed: int) -> CableInstance:
    """Deterministic cable: seed 0 gives the identity wiring, any positive seed a
    pseudo-random bijection reproduced exactly on every run (a shuffle of 1..n, so
    CableInstance does not check it again). Negative seeds raise ValueError."""
    if n < 1:
        raise ValueError(f"n must be positive, got n={n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    positions = list(range(1, n + 1))
    if seed:
        random.Random(seed).shuffle(positions)
    return _unchecked(CableInstance, n=n, wiring=tuple(positions), seed=seed)


class ConnectionPlan(_Frozen):
    """Disjoint groups of wire positions, electrically joined at one end, that
    hold each of the ints 1..n once between them (a group may be empty). The
    check keeps its size map, _size_at[x] = the size of x's group; not being
    a field, it takes no part in == or repr."""

    end: str
    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.end not in (END_A, END_B):
            raise ValueError(f"end must be {END_A!r} or {END_B!r}, got {self.end!r}")
        object.__setattr__(self, "groups", _canonical_order(self.groups))
        n = sum(map(len, self.groups))
        size_at = _side_sizes(tuple(filter(None, self.groups)), n) if n else [0]
        if size_at is None or not set(map(type, chain.from_iterable(self.groups))) <= {int}:
            raise ValueError("groups must be disjoint and cover positions 1..n")
        object.__setattr__(self, "_size_at", size_at)

    @property
    def n(self) -> int:
        return len(self._size_at) - 1


def probe(plan: ConnectionPlan, wiring: Sequence[int], queried_end: str) -> tuple[int, ...]:
    """Component size observed at every position of the queried end.

    The plan must sit at the opposite end; a queried wire's reading is the
    size of the plan group containing its counterpart through the cable.
    The wiring must be a bijection on the ints 1..n, as in CableInstance;
    a plan holds only those ints already.
    """
    if queried_end not in (END_A, END_B):
        raise ValueError(f"queried end must be {END_A!r} or {END_B!r}, got {queried_end!r}")
    if plan.end == queried_end:
        raise ValueError("plan must be at the opposite end from the query")
    wiring = tuple(wiring)
    n = len(wiring)
    if plan.n != n:
        raise ValueError(f"plan covers {plan.n} positions but the cable has {n} wires")
    if (n and _side_sizes((wiring,), n) is None) or not set(map(type, wiring)) <= {int}:
        raise ValueError("wiring must be a bijection on the ints 1..n")
    return _readings(plan.end, plan._size_at, wiring)


def _readings(end: str, size_at: Sequence[int], wiring: tuple[int, ...]) -> tuple[int, ...]:
    """probe's readings opposite a plan at end whose size map is size_at, for a wiring already checked."""
    if end == END_A:  # B-position wiring[a-1] reads the size of a's group
        readings = [0] * (len(wiring) + 1)
        for b, size in zip(wiring, islice(size_at, 1, None)):
            readings[b] = size
        return tuple(islice(readings, 1, None))
    return tuple(map(size_at.__getitem__, wiring))


class ProtocolTranscript(_Frozen):
    """Everything both ends did and saw, from which each end derives its
    coordinates: A's are (phase-1 group size, phase-2 reading), B's are
    (phase-1 reading, phase-2 group size), read off the plans' size maps.

    Probes and coordinate tuples are indexed by wire position (entry i is
    position i+1) at the probing end. coords_b read through the hidden
    wiring must equal coords_a: coords_b[wiring[a-1]-1] == coords_a[a-1]
    at every A-position a. run_protocol checks this. A probe entry that is
    not exactly an int (True, 1.0) raises ValueError.
    """

    phase1_plan: ConnectionPlan
    phase1_probe: tuple[int, ...]
    phase2_plan: ConnectionPlan
    phase2_probe: tuple[int, ...]

    def __post_init__(self) -> None:
        if not set(map(type, chain(self.phase1_probe, self.phase2_probe))) <= {int}:
            raise ValueError("probe readings must be ints, not bools or other numbers")

    @cached_property
    def coords_a(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(islice(self.phase1_plan._size_at, 1, None), self.phase2_probe))

    @cached_property
    def coords_b(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.phase1_probe, islice(self.phase2_plan._size_at, 1, None)))


def _assemble_b_sets(r: Sequence[int], side: IntRuns, readings: Sequence[int]) -> tuple[tuple[list, ...], list[int]]:
    """End B's canonical grouping and the column it gives each wire.

    r is the agreed matrix's row sums and side its B side by row-major rank, as
    _grid_columns reads it. One pass buckets the wires by reading, positions
    ascending, so the buckets, rows ascending, list the wires in row-major
    order: the i-th takes rank i (_ranked), as labels do in matrix_to_partition.
    _blocks cuts the B-sets as lists, and (size, least wire) puts those disjoint
    blocks in canonical order. Returns the blocks and column_of: column_of[b] is
    the column of B-position b (entry 0 unused), the size of its block. A valid
    pair read through a bijective wiring has the scheme's row counts, so other
    readings are an internal fault and raise ProtocolError.
    """
    width = len(r) + 1
    by_size: list[list[int]] = [[] for _ in range(width)]
    for pos, size in enumerate(readings, start=1):
        if 0 < size < width:
            by_size[size].append(pos)
    for j, count in enumerate(r, start=1):
        if len(by_size[j]) != count:
            raise ProtocolError(f"observed {len(by_size[j])} wires of bundle size {j} but the scheme has {count}")
    if sum(r) != len(readings):
        raise ProtocolError("some observed bundle sizes do not occur in the scheme")
    blocks = _blocks(_ranked(side, chain.from_iterable(by_size)))
    groups = tuple(sorted(blocks, key=lambda block: (len(block), min(block))))
    return groups, _size_of(groups, len(readings))


def run_protocol(partition: KgPartition, cable: CableInstance) -> ProtocolTranscript:
    """Run both phases and derive consistent coordinates at both ends.

    _verdict, which kg_violations wraps, decides the pair and returns its matrix, the one both ends agreed on,
    as m byte rows. Labels are wire positions, the ints 1..n, so a pair it accepts by value (1.0, True) is
    rejected too. The cable checked its wiring when it was built, so the phases read it without probe's checks.
    Phase 1: end A joins its A-sets; end B probes and learns each wire's row,
    then assembles B-sets canonically from the matrix. Phase 2: end A
    disconnects, end B joins its B-sets, end A probes and learns each wire's
    column. Both ends' coordinates must agree through the hidden wiring and be the
    matrix's 1-cells, each once; a failure would falsify the scheme, so it raises ProtocolError
    instead of being returned as data. `wireid simulate` runs the same phases.
    """
    if partition.n != cable.n:
        raise ValueError(f"partition covers {partition.n} elements but the cable has {cable.n} wires")
    rows, problems = _verdict(cable.n, partition.a_sets, partition.b_sets)
    if not problems and not set(map(type, chain.from_iterable(partition.a_sets + partition.b_sets))) <= {int}:
        problems = ["labels must be the integers 1..n"]
    if problems:
        raise ValueError("invalid partition pair:\n" + "\n".join(problems))
    size_a = _size_of(partition.a_sets, cable.n)
    probe_1, b_groups, size_b, probe_2 = _phases(rows, size_a, cable.wiring)
    # Only here are the phases' lists cut into plans: canonical sides, each with its own groups' size map.
    plan_a = _unchecked(ConnectionPlan, end=END_A, groups=partition.a_sets, _size_at=size_a)
    plan_b = _unchecked(ConnectionPlan, end=END_B, groups=tuple(map(frozenset, b_groups)), _size_at=size_b)
    return ProtocolTranscript(plan_a, probe_1, plan_b, probe_2)


def _phases(rows: list[bytes], size_a: list[int], wiring: tuple[int, ...]) -> tuple:
    """run_protocol's phases on a valid pair's agreed matrix, as a list of its m byte rows, and end A's size map.
    Returns phase 1's probe, end B's groups as lists in canonical order, their size map and phase 2's probe.
    That size map comes from the groups, so the agreement check compares end B's columns with the plan. It
    gathers each half through the wiring as one flat list, freed before the next; the uniqueness guard streams
    over the wires and holds nothing n-sized: end A's (j, k) must set the rows by _key_rows."""
    n, m = len(wiring), len(rows)
    phase1_probe = _readings(END_A, size_a, wiring)

    b_groups, column_of = _assemble_b_sets([row.count(1) for row in rows], _grid_columns(rows), phase1_probe)
    size_b = _size_of(b_groups, n)
    phase2_probe = _readings(END_B, size_b, wiring)

    # End B's (j, k) at B-position b is (phase1_probe[b - 1], column_of[b]); end A's must match it through the wiring:
    # the rows gathered through it, not scattered as _readings does, and the columns. Only a failure is located.
    if (list(map((0, *phase1_probe).__getitem__, wiring)) != size_a[1:]
            or tuple(map(column_of.__getitem__, wiring)) != phase2_probe):
        coords_a = zip(islice(size_a, 1, None), phase2_probe)
        coords_b = zip(map(phase1_probe.__getitem__, map(add, wiring, repeat(-1))), map(column_of.__getitem__, wiring))
        a = next(compress(count(1), map(ne, coords_a, coords_b)), 0)  # the first A-position where they differ
        raise ProtocolError(f"coordinate mismatch at position {a}: ends disagree, which would falsify the scheme")
    # Cell (j, k) is key j * (m + 1) + k: with k in 1..m, the keys set the agreed grid iff they are its n 1-cells.
    keys = map(add, map(mul, islice(size_a, 1, None), repeat(m + 1)), phase2_probe)
    if not 0 < min(phase2_probe) <= max(phase2_probe) <= m or _key_rows(m + 1, keys, n) != rows:
        raise ProtocolError("coordinates must be unique per wire and cells of the agreed matrix")

    return phase1_probe, b_groups, size_b, phase2_probe


def transcript_to_json(transcript: ProtocolTranscript) -> str:
    """Schema-tagged JSON document with the four transcript fields and both
    ends' coordinates, suitable for golden-file comparison."""
    a, b = transcript.phase1_plan, transcript.phase2_plan
    probe_1, probe_2 = transcript.phase1_probe, transcript.phase2_probe
    bound = max(map(len, chain(a.groups, b.groups)), default=0)  # every probe reading and coordinate is a group size
    rows_a, rows_b = _sorted_runs(a.groups), _sorted_runs(b.groups)  # the probes hold ints alone: checked at init
    fields = _transcript_fields(rows_a, a._size_at, probe_1, rows_b, b._size_at, probe_2, bound)
    return "".join(document({"schema": TRANSCRIPT_SCHEMA}, fields, True))


def _transcript_fields(rows_a: IntRuns, size_a: Sequence[int], probe_1: Sequence[int], rows_b: IntRuns,
                       size_b: Sequence[int], probe_2: Sequence[int], bound: int) -> list:
    """The transcript's fields for _jsonout.document, in both formats: each plan is its rows (its groups in
    canonical order, as an IntRuns of their ascending elements) and size map, each probe rows of one. The
    probes must hold ints alone; they and the coordinates are written through tables of the ints 0..bound."""
    return [
        ("phase1_plan", rows_a, -1, "{}"),
        ("phase1_probe", IntRuns(probe_1, [(1, len(probe_1))]), bound, ""),
        ("phase2_plan", rows_b, -1, "{}"),
        ("phase2_probe", IntRuns(probe_2, [(1, len(probe_2))]), bound, ""),
        ("coords_a", _paired_runs(size_a[1:], probe_2), bound, "()"),
        ("coords_b", _paired_runs(probe_1, size_b[1:]), bound, "()"),
    ]

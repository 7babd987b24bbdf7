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

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .partitions import KgPartition, kg_violations, partition_to_matrix

END_A = "A"
END_B = "B"

TRANSCRIPT_SCHEMA = "cable-transcript/1"


@dataclass(frozen=True)
class CableInstance:
    """n wires with a hidden end-A-position to end-B-position bijection."""

    n: int
    wiring: tuple[int, ...]  # wiring[a-1] = B-position of the wire entering A-position a
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one wire, got n={self.n}")
        object.__setattr__(self, "wiring", tuple(self.wiring))
        if sorted(self.wiring) != list(range(1, self.n + 1)):
            raise ValueError("wiring must be a bijection on positions 1..n")


def make_cable(n: int, seed: int) -> CableInstance:
    """Deterministic cable: seed 0 gives the identity wiring, any positive
    seed a pseudo-random bijection reproduced exactly on every run.
    Negative seeds raise ValueError."""
    if n < 1:
        raise ValueError(f"need at least one wire, got n={n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed == 0:
        wiring = tuple(range(1, n + 1))
    else:
        positions = list(range(1, n + 1))
        random.Random(seed).shuffle(positions)
        wiring = tuple(positions)
    return CableInstance(n=n, wiring=wiring, seed=seed)


@dataclass(frozen=True)
class ConnectionPlan:
    """Disjoint groups of wire positions, electrically joined at one end."""

    end: str
    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.end not in (END_A, END_B):
            raise ValueError(f"end must be {END_A!r} or {END_B!r}, got {self.end!r}")
        groups = tuple(sorted((frozenset(g) for g in self.groups),
                              key=lambda g: (len(g), tuple(sorted(g)))))
        object.__setattr__(self, "groups", groups)
        positions = [p for g in groups for p in g]
        n = len(positions)
        if sorted(positions) != list(range(1, n + 1)):
            raise ValueError("groups must be disjoint and cover positions 1..n")

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.groups)


def probe(plan: ConnectionPlan, wiring: Sequence[int], queried_end: str) -> tuple[int, ...]:
    """Component size observed at every position of the queried end.

    The plan must sit at the opposite end; a queried wire's reading is the
    size of the plan group containing its counterpart through the cable.
    """
    if queried_end not in (END_A, END_B):
        raise ValueError(f"queried end must be {END_A!r} or {END_B!r}, got {queried_end!r}")
    if plan.end == queried_end:
        raise ValueError("plan must be at the opposite end from the query")
    wiring = tuple(wiring)
    n = len(wiring)
    if plan.n != n:
        raise ValueError(f"plan covers {plan.n} positions but the cable has {n} wires")
    size_at = {}
    for group in plan.groups:
        for position in group:
            size_at[position] = len(group)
    if queried_end == END_B:
        inverse = {b: a for a, b in enumerate(wiring, start=1)}
        return tuple(size_at[inverse[b]] for b in range(1, n + 1))
    return tuple(size_at[wiring[a - 1]] for a in range(1, n + 1))


@dataclass(frozen=True)
class ProtocolTranscript:
    """Everything both ends did and saw, plus the coordinates they derived.

    Probes and coordinate tuples are indexed by wire position (entry i is
    position i+1) at the probing end. coords_a composed with the hidden
    wiring must equal coords_b; run_protocol asserts this.
    """

    phase1_plan: ConnectionPlan
    phase1_probe: tuple[int, ...]
    phase2_plan: ConnectionPlan
    phase2_probe: tuple[int, ...]
    coords_a: tuple[tuple[int, int], ...]
    coords_b: tuple[tuple[int, int], ...]


def _assemble_b_sets(matrix, readings: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """End B's canonical grouping: within each observed row, wires in
    ascending position order take that row's columns in ascending order;
    each column's wires then chunk into blocks of the column index, rows
    ascending."""
    m = matrix.m
    column_of: dict[int, int] = {}
    per_column: dict[int, list[int]] = defaultdict(list)
    for j in range(1, m + 1):
        wires = [pos for pos, size in enumerate(readings, start=1) if size == j]
        columns = [k for k in range(1, m + 1) if matrix.rows[j - 1][k - 1]]
        if len(wires) != len(columns):
            raise ValueError(
                f"observed {len(wires)} wires of bundle size {j} but the scheme has {len(columns)}"
            )
        for wire, k in zip(wires, columns):
            column_of[wire] = k
            per_column[k].append(wire)  # rows processed ascending
    if len(column_of) != len(readings):
        raise ValueError("some observed bundle sizes do not occur in the scheme")
    groups: list[frozenset[int]] = []
    for k in range(1, m + 1):
        wires = per_column.get(k, [])
        assert len(wires) % k == 0, (k, wires)
        groups.extend(frozenset(wires[i : i + k]) for i in range(0, len(wires), k))
    return tuple(groups)


def run_protocol(partition: KgPartition, cable: CableInstance) -> ProtocolTranscript:
    """Run both phases and derive consistent coordinates at both ends.

    Phase 1: end A joins its A-sets; end B probes and learns each wire's
    row, then assembles B-sets canonically from the scheme's matrix.
    Phase 2: end A disconnects, end B joins its B-sets, end A probes and
    learns each wire's column. Coordinate agreement through the hidden
    wiring is asserted; a mismatch would falsify the scheme itself, so it
    is never returned as data.
    """
    if partition.n != cable.n:
        raise ValueError(f"partition covers {partition.n} elements but the cable has {cable.n} wires")
    problems = kg_violations(partition)
    if problems:
        raise ValueError("invalid partition pair:\n" + "\n".join(problems))
    matrix = partition_to_matrix(partition)  # the scheme both ends agreed on

    phase1_plan = ConnectionPlan(end=END_A, groups=partition.a_sets)
    phase1_probe = probe(phase1_plan, cable.wiring, END_B)

    phase2_plan = ConnectionPlan(end=END_B, groups=_assemble_b_sets(matrix, phase1_probe))
    phase2_probe = probe(phase2_plan, cable.wiring, END_A)

    size_a = {pos: len(g) for g in phase1_plan.groups for pos in g}
    size_b = {pos: len(g) for g in phase2_plan.groups for pos in g}
    n = cable.n
    coords_a = tuple((size_a[a], phase2_probe[a - 1]) for a in range(1, n + 1))
    coords_b = tuple((phase1_probe[b - 1], size_b[b]) for b in range(1, n + 1))

    for a in range(1, n + 1):
        assert coords_b[cable.wiring[a - 1] - 1] == coords_a[a - 1], (
            "coordinate mismatch at position "
            f"{a}: ends disagree, which would falsify the scheme"
        )
    assert len(set(coords_a)) == n, "coordinates must be unique per wire"

    return ProtocolTranscript(
        phase1_plan=phase1_plan,
        phase1_probe=phase1_probe,
        phase2_plan=phase2_plan,
        phase2_probe=phase2_probe,
        coords_a=coords_a,
        coords_b=coords_b,
    )


def transcript_to_json(transcript: ProtocolTranscript) -> str:
    """Schema-tagged JSON document with the six transcript fields,
    suitable for golden-file comparison."""
    payload = {
        "schema": TRANSCRIPT_SCHEMA,
        "phase1_plan": [sorted(g) for g in transcript.phase1_plan.groups],
        "phase1_probe": list(transcript.phase1_probe),
        "phase2_plan": [sorted(g) for g in transcript.phase2_plan.groups],
        "phase2_probe": list(transcript.phase2_probe),
        "coords_a": [list(c) for c in transcript.coords_a],
        "coords_b": [list(c) for c in transcript.coords_b],
    }
    return json.dumps(payload, indent=2) + "\n"


def transcript_from_json(text: str) -> ProtocolTranscript:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != TRANSCRIPT_SCHEMA:
        raise ValueError(f"expected a {TRANSCRIPT_SCHEMA!r} document")
    try:
        return ProtocolTranscript(
            phase1_plan=ConnectionPlan(END_A, tuple(frozenset(g) for g in payload["phase1_plan"])),
            phase1_probe=tuple(payload["phase1_probe"]),
            phase2_plan=ConnectionPlan(END_B, tuple(frozenset(g) for g in payload["phase2_plan"])),
            phase2_probe=tuple(payload["phase2_probe"]),
            coords_a=tuple((j, k) for j, k in payload["coords_a"]),
            coords_b=tuple((j, k) for j, k in payload["coords_b"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed transcript document: {exc}") from exc

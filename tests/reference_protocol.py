"""Reference implementation the package's protocol run is checked against.

`reference_run_protocol` is the protocol as first written: it validates the
pair with kg_violations and then rebuilds its matrix with
partition_to_matrix, probes through dicts keyed by position, and end B
rescans every reading once per matrix row, so it costs O(m * n).
`reference_coordinates` derives both ends' coordinates from a transcript's
plans and probes the same way. `reference_transcript_to_json` serializes
through ``json.dumps(indent=2)``.

Neither imports the package's probe, B-set assembly, single-pass validation
or JSON writer; tests compare those with these bit for bit.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Sequence

from oracles import partition_to_matrix
from wireid.cable import (
    END_A,
    END_B,
    TRANSCRIPT_SCHEMA,
    CableInstance,
    ConnectionPlan,
    ProtocolTranscript,
)
from wireid.partitions import KgPartition, kg_violations


def reference_probe(plan: ConnectionPlan, wiring: Sequence[int], queried_end: str) -> tuple[int, ...]:
    wiring = tuple(wiring)
    n = len(wiring)
    size_at = {}
    for group in plan.groups:
        for position in group:
            size_at[position] = len(group)
    if queried_end == END_B:
        inverse = {b: a for a, b in enumerate(wiring, start=1)}
        return tuple(size_at[inverse[b]] for b in range(1, n + 1))
    return tuple(size_at[wiring[a - 1]] for a in range(1, n + 1))


def reference_assemble_b_sets(matrix, readings: tuple[int, ...]) -> tuple[frozenset[int], ...]:
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
            per_column[k].append(wire)
    if len(column_of) != len(readings):
        raise ValueError("some observed bundle sizes do not occur in the scheme")
    groups: list[frozenset[int]] = []
    for k in range(1, m + 1):
        wires = per_column.get(k, [])
        assert len(wires) % k == 0, (k, wires)
        groups.extend(frozenset(wires[i : i + k]) for i in range(0, len(wires), k))
    return tuple(groups)


def reference_run_protocol(partition: KgPartition, cable: CableInstance) -> ProtocolTranscript:
    if partition.n != cable.n:
        raise ValueError(f"partition covers {partition.n} elements but the cable has {cable.n} wires")
    problems = kg_violations(partition)
    if problems:
        raise ValueError("invalid partition pair:\n" + "\n".join(problems))
    matrix = partition_to_matrix(partition)

    phase1_plan = ConnectionPlan(end=END_A, groups=partition.a_sets)
    phase1_probe = reference_probe(phase1_plan, cable.wiring, END_B)

    phase2_plan = ConnectionPlan(end=END_B, groups=reference_assemble_b_sets(matrix, phase1_probe))
    phase2_probe = reference_probe(phase2_plan, cable.wiring, END_A)

    transcript = ProtocolTranscript(
        phase1_plan=phase1_plan,
        phase1_probe=phase1_probe,
        phase2_plan=phase2_plan,
        phase2_probe=phase2_probe,
    )
    n = cable.n
    coords_a, coords_b = reference_coordinates(transcript)
    for a in range(1, n + 1):
        if coords_b[cable.wiring[a - 1] - 1] != coords_a[a - 1]:
            raise AssertionError(f"coordinate mismatch at position {a}")
    if len(set(coords_a)) != n:
        raise AssertionError("coordinates must be unique per wire")
    return transcript


def reference_coordinates(transcript: ProtocolTranscript) -> tuple[tuple, tuple]:
    """(coords_a, coords_b) from the plans and probes, through dicts keyed by position."""
    size_a = {pos: len(g) for g in transcript.phase1_plan.groups for pos in g}
    size_b = {pos: len(g) for g in transcript.phase2_plan.groups for pos in g}
    n = len(transcript.phase1_probe)
    coords_a = tuple((size_a[a], transcript.phase2_probe[a - 1]) for a in range(1, n + 1))
    coords_b = tuple((transcript.phase1_probe[b - 1], size_b[b]) for b in range(1, n + 1))
    return coords_a, coords_b


def reference_transcript_to_json(transcript: ProtocolTranscript) -> str:
    payload = {
        "schema": TRANSCRIPT_SCHEMA,
        "phase1_plan": [sorted(g) for g in transcript.phase1_plan.groups],
        "phase1_probe": list(transcript.phase1_probe),
        "phase2_plan": [sorted(g) for g in transcript.phase2_plan.groups],
        "phase2_probe": list(transcript.phase2_probe),
        "coords_a": [list(c) for c in reference_coordinates(transcript)[0]],
        "coords_b": [list(c) for c in reference_coordinates(transcript)[1]],
    }
    return json.dumps(payload, indent=2) + "\n"

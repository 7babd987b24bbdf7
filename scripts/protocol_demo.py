#!/usr/bin/env python3
"""Walk through the two-ended wire identification protocol, step by step.

Builds a Knowlton-Graham pair for n wires, hides a seeded wiring, runs both
phases, and prints what each end connects, observes, and concludes. The
last column cross-checks that both ends assigned the same coordinate to
each physical wire.

Usage:
    python scripts/protocol_demo.py [--n 26] [--m ORDER] [--seed 42]
"""

from __future__ import annotations

import argparse

from wireid import construct_trace, make_cable, run_protocol
from wireid.cli import _fmt_sets as fmt_sets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=26)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    trace = construct_trace(args.n, args.m)
    rep = trace.representation

    print(f"scheme for n={args.n}: order m={rep.m}, sums t={list(rep.t)} (s={rep.s}, k={rep.k})")
    print("matrix (rows will become A-sets, columns B-sets):")
    print(trace.matrix.to_text(), end="")
    print(f"A-sets: {fmt_sets(trace.partition.a_sets)}")
    print(f"B-sets: {fmt_sets(trace.partition.b_sets)}")

    cable = make_cable(args.n, args.seed)
    print(f"\nhidden wiring (seed {args.seed}): A position a -> B position {list(cable.wiring)}")

    transcript = run_protocol(trace.partition, cable)
    print(f"\nphase 1: end A joins its A-sets: {fmt_sets(transcript.phase1_plan.groups)}")
    print(f"end B reads bundle sizes: {list(transcript.phase1_probe)}")
    print(f"\nphase 2: end B joins B-sets: {fmt_sets(transcript.phase2_plan.groups)}")
    print(f"end A reads bundle sizes: {list(transcript.phase2_probe)}")

    print("\nwire-by-wire conclusion:")
    print(f"{'A pos':>6} {'coord at A':>11} {'B pos':>6} {'coord at B':>11} {'agree':>6}")
    for a in range(1, args.n + 1):
        b = cable.wiring[a - 1]
        ca = transcript.coords_a[a - 1]
        cb = transcript.coords_b[b - 1]
        print(f"{a:>6} {str(ca):>11} {b:>6} {str(cb):>11} {'yes' if ca == cb else 'NO':>6}")

    assert all(
        transcript.coords_b[cable.wiring[a - 1] - 1] == transcript.coords_a[a - 1]
        for a in range(1, args.n + 1)
    )
    print("\nall wires labeled consistently at both ends.")


if __name__ == "__main__":
    main()

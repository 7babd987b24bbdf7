#!/usr/bin/env python3
"""Sweep the feasible (n, order) landscape.

For each order m up to --max-m, print the feasible range of n, the width of
that range, and the density ratio max_n / C(m+2, 2), which should drift
toward pi^2/6 ~ 1.6449. Also report which n below --scan-n admit no order
at all (expected: 2, 5, 9 and nothing else).

Usage:
    python scripts/bounds_experiment.py [--max-m 40] [--scan-n 2000]
"""

from __future__ import annotations

import argparse
import math

from wireid import feasible_orders, max_elements, min_elements


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=40)
    parser.add_argument("--scan-n", type=int, default=2000)
    args = parser.parse_args()

    limit = math.pi ** 2 / 6

    print(f"{'m':>4} {'min_n':>8} {'max_n':>8} {'width':>6} {'max_n/C(m+2,2)':>15}")
    for m in range(1, args.max_m + 1):
        lo, hi = min_elements(m), max_elements(m)
        ratio = hi / ((m + 2) * (m + 1) // 2)
        print(f"{m:>4} {lo:>8} {hi:>8} {hi - lo + 1:>6} {ratio:>15.4f}")
    print(f"\nlimiting density pi^2/6 = {limit:.4f}")

    gaps = [n for n in range(1, args.scan_n + 1) if not feasible_orders(n)]
    print(f"n with no feasible order in 1..{args.scan_n}: {gaps}")

    overlaps = sum(
        1 for m in range(1, args.max_m) if max_elements(m) >= min_elements(m + 1)
    )
    print(f"consecutive orders with overlapping ranges: {overlaps}/{args.max_m - 1}")


if __name__ == "__main__":
    main()

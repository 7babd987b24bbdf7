"""Machine-speed calibration for the benchmark's timings.

The shared 2-core machine the benchmark was written on changes speed by up
to half for seconds or minutes at a time, because other tenants use the
same cores. A fixed piece of interpreter work is therefore timed in every
worker, just before and just after its request. run.py scales the request's
latency and the worker's cold start by REFERENCE_S / (that time), so each
reported time is in reference seconds: seconds on the machine at the speed
at which this loop takes REFERENCE_S. The loop uses no wireid code, so a
change to wireid moves the scaled times exactly as it moves the raw ones.
The raw times are kept in the run's record.

The work mixes what wireid spends its time on: small-integer arithmetic,
list, tuple, set and dict building, sorting and string formatting.
"""

from __future__ import annotations

import random
import time

# Median of calibrate() on a 2-core x86-64 VM, Python 3.11.7, at quiet times.
REFERENCE_S = 0.0085
REPS = 2


def _work() -> int:
    rng = random.Random(7)
    values = [rng.randrange(1 << 20) for _ in range(10_000)]
    buckets: dict[int, int] = {}
    for v in values:
        buckets[v & 1023] = buckets.get(v & 1023, 0) + v
    ordered = sorted(values)
    groups = tuple(frozenset(ordered[i : i + 7]) for i in range(0, len(ordered), 7))
    text = ",".join(str(v) for v in ordered[:2500])
    return len(buckets) + len(groups) + len(text)


def calibrate() -> float:
    """Fastest of REPS timings of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best

"""The original per-order feasibility loop, unit-step representation walk
and piecewise representation rules.

Test-only references: ``feasible_orders`` and ``represent`` in
``wireid.partitions`` compute in closed form what these loops simulate, and
must return the same results; ``Representation`` accepts exactly what the
piecewise rules accept.
"""

from __future__ import annotations

from wireid.partitions import max_elements, min_elements


def reference_feasible_orders(n: int) -> list[int]:
    """All orders m whose feasible range contains n, ascending, by trying
    every order in turn."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    orders = []
    m = 1
    while min_elements(m) <= n:
        if n <= max_elements(m):
            orders.append(m)
        m += 1
    return orders


def reference_walk(m: int):
    """Yield (n, t, s, k) for every n from max_elements(m) down to
    min_elements(m), one unit step at a time.

    t is the walk's own list, changed in place by the next step: copy it to
    keep it.
    """
    s = m // 2
    t = [0] * m
    t[0] = m
    for j in range(2, m + 1):
        if j < s:
            t[j - 1] = j * (m // j)
        elif j == s:
            t[j - 1] = (m // s) * s
        else:
            t[j - 1] = j
    assert sum(t) == max_elements(m), (m, t)

    n = max_elements(m)
    while True:
        k = t[s - 1] // s if s >= 1 else 1
        yield n, t, s, k
        if n == min_elements(m):
            return
        n -= 1
        t[0] -= 1
        if s > 1 and t[0] == m - s:
            t[0] = m
            t[s - 1] -= s
        if s >= 1 and t[s - 1] == s:
            s -= 1


def reference_representation_ok(m: int, t: tuple, s: int, k: int) -> bool:
    """Whether Representation(m, t, s, k) is valid, by the piecewise rules it
    once checked one by one: the length, seven rules on (s, k) and each t_j,
    and the gap-free sorted values."""
    if m < 1 or len(t) != m:
        return False
    if not 0 <= s <= m // 2:
        return False
    for j, value in enumerate(t, start=1):
        if value <= 0 or value % j:
            return False
        if j > s and value != j:
            return False
        if 1 < j < s and value != j * (m // j):
            return False
    if s == 0:
        if k != 1:
            return False
    else:
        if t[s - 1] != k * s or not 1 < k <= m // s:
            return False
    if s > 1 and not m - s < t[0] <= m:
        return False
    ordered = sorted(t, reverse=True)
    for a, b in zip(ordered, ordered[1:]):
        if a - b > 1:
            return False
    return True

"""Independent brute-force oracles used only by the tests (the ones
`wordnerve selftest` also runs live in `wordnerve.oracles`).

Each oracle recomputes a quantity through a different route than the
library (dynamic programming, exhaustive enumeration, LP membership),
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import combinations

from wordnerve.geometry import hulls_intersect


def dp_max_alternation(letters, x, y) -> int:
    """Longest alternating x/y subsequence by dynamic programming on the
    last letter used."""
    end_x = end_y = 0
    for a in letters:
        if a == x:
            end_x = max(end_x, end_y + 1)
        elif a == y:
            end_y = max(end_y, end_x + 1)
    return max(end_x, end_y)


def strictly_alternates(letters, x, y) -> bool:
    restr = [a for a in letters if a in (x, y)]
    return bool(restr) and all(a != b for a, b in zip(restr, restr[1:]))


def has_odd_cycle_bruteforce(vertices, edges) -> bool:
    """No valid 2-coloring among all 2^n assignments (first vertex pinned)."""
    vs = list(vertices)
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    pairs = [(idx[a], idx[b]) for a, b in edges]
    for mask in range(1 << n):
        if n and mask & 1:
            continue
        if all((mask >> a & 1) != (mask >> b & 1) for a, b in pairs):
            return False
    return True


def convex_position_lp(points) -> bool:
    """Every point is outside the hull of the others (exact LP membership)."""
    if len(points) <= 2:
        return True
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        if hulls_intersect([[p], others]):
            return False
    return True


def gale_facets_scan(r: int, d: int) -> list[tuple[int, ...]]:
    """Facets of C(r, d) by testing the evenness condition on every
    d-subset of {1..r}, in lexicographic order."""
    facets = []
    for sub in combinations(range(1, r + 1), d):
        outside = [i for i in range(1, r + 1) if i not in sub]
        if all(
            sum(1 for s in sub if x < s < y) % 2 == 0
            for x, y in combinations(outside, 2)
        ):
            facets.append(sub)
    return facets

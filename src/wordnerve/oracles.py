"""Brute-force oracles shared by `wordnerve selftest` and the test suite.

Each recomputes a quantity by exhaustive enumeration or by definition,
through a different route than the library, so agreement is evidence
rather than tautology.  Both are exponential: keep inputs small.
"""

from __future__ import annotations

from itertools import combinations

from .geometry import hyperplane_through_moment_points, moment_point


def brute_max_alternation(letters, x, y) -> int:
    """Longest alternating x/y subsequence by explicit enumeration."""
    n = len(letters)
    best = 0
    for mask in range(1 << n):
        sub = [letters[i] for i in range(n) if mask >> i & 1]
        if not sub:
            continue
        if any(a not in (x, y) for a in sub):
            continue
        if all(a != b for a, b in zip(sub, sub[1:])):
            best = max(best, len(sub))
    return best


def facet_oracle(r: int, d: int) -> list[tuple[int, ...]]:
    """Facets of C(r, d) by the definition: all remaining vertices lie
    strictly on one side of the spanned hyperplane."""
    pts = [moment_point(t, d) for t in range(1, r + 1)]
    out = []
    for sub in combinations(range(r), d):
        h = hyperplane_through_moment_points([i + 1 for i in sub], d)
        sides = {h.side(pts[i]) for i in range(r) if i not in sub}
        if len(sides) == 1 and 0 not in sides:
            out.append(tuple(i + 1 for i in sub))
    return out

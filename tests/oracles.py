"""Independent brute-force oracles used only by the tests (the ones
`wordnerve selftest` also runs live in `wordnerve.oracles`).

Each oracle recomputes a quantity through a different route than the
library (dynamic programming, exhaustive enumeration, LP membership),
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from fractions import Fraction
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


ZERO = Fraction(0)
ONE = Fraction(1)


def feasible_eq_nonneg_fraction(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is there x >= 0 with rows . x = rhs?  Exact Phase-I simplex on a
    dense Fraction tableau (the solver `wordnerve.lp` replaced)."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])

    # Tableau: [A | I | b], artificial j has column n+j.  Flip rows so b >= 0.
    tab: list[list[Fraction]] = []
    for i in range(m):
        assert len(rows[i]) == n
        sign = -1 if rhs[i] < 0 else 1
        row = [sign * a for a in rows[i]]
        row += [ONE if j == i else ZERO for j in range(m)]
        row.append(sign * rhs[i])
        tab.append(row)
    basis = [n + i for i in range(m)]
    width = n + m + 1

    # Phase-I objective row: z = sum of artificials; express in terms of
    # nonbasic columns by subtracting every tableau row.
    obj = [ZERO] * width
    for j in range(n, n + m):
        obj[j] = ONE
    for row in tab:
        for j in range(width):
            obj[j] -= row[j]

    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest eligible index enters
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # Unbounded Phase-I objective cannot happen (bounded below by 0);
            # guard anyway.
            raise ArithmeticError("phase-I simplex unbounded")
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter

    return -obj[-1] == 0  # objective value = -obj[rhs]; feasible iff 0

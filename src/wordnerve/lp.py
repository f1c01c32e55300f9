"""Exact feasibility of equality systems A x = b, x >= 0 over the rationals.

Phase-I simplex: minimize the sum of one artificial variable per row;
feasible iff the optimum is zero.  The tableau starts as [A | b] plus
the objective row, with no artificial columns; `basis[i] = n + i` marks a
row whose artificial is basic.  The entering variable is Dantzig's: the
most negative reduced cost, lowest index on ties.  After 2m degenerate pivots
in a row (the leaving row's rhs is 0) Bland's smallest-index rule enters
instead, until the next nondegenerate pivot.  This terminates: each
nondegenerate pivot lowers the objective, so no basis recurs across one,
Dantzig's streaks are bounded, and Bland's rule cannot cycle from any
basis (Bland 1977).  The solver stops when no original column has a
negative reduced cost, whatever the rule: with the artificials that left
the basis dropped (Bertsimas and Tsitsiklis 1997, section 3.5) that basis
is optimal, so the objective is zero iff some x >= 0 solves A x = b.

The tableau is integer and fraction-free.  Each row's denominators are
cleared once, with the row's lcm, and every pivot is the
integer-preserving update of Bareiss (1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination"):

    T'[i][j] = (p * T[i][j] - T[i][s] * T[r][j]) // D,    then D = p,

for pivot p = T[r][s] and every row i != r, the objective row included.
The rational tableau is T / D, and every entry of T is a minor of the
starting integer matrix, so the division is exact.  Pivots are positive,
so D > 0, T and T / D share their signs, and the ratio test compares
cross products with no division.  The pivot loop takes no gcd and does
no Fraction arithmetic.

The tableau stores only the nonbasic structural columns, in variable
index order (`cols[j]` is the variable of column j), and the rhs.  A
basic column of T / D is a unit vector e_r, so in T it is D * e_r and a
pivot would only rewrite it into D' * e_r.  The entering column leaves
the tableau.  A structural variable that leaves the basis comes back at
its sorted place with the column the update would give it: it was
D * e_r, so it is the old D in the pivot row (which the update keeps)
and (p * 0 - T[i][s] * D) / D = -T[i][s] in every other row i, the
objective row included.  An artificial that leaves is dropped, as
before.  A basic column has reduced cost 0 and is never eligible, so
with the nonbasic ones kept in index order Dantzig's lowest position on
ties and Bland's first eligible position are the same variables as on
the full tableau, and every pivot sequence is unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction


def feasible_eq_nonneg(rows: list[list[Fraction | int]], rhs: list[Fraction | int]) -> bool:
    """Is there x >= 0 with rows . x = rhs?  Exact Phase-I simplex on [A | b].

    Entries are rationals (`Fraction` or `int`).  A rhs whose length is
    not the row count, or rows of unequal length, raise ValueError.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"rhs has {len(rhs)} entries for {m} rows")
    if m == 0:
        return True
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("rows must all have the same length")

    # Tableau: [A | b] in integers.  Each row is scaled by the lcm of its
    # denominators, negated when b < 0 so that b >= 0.
    tab: list[list[int]] = []
    for i in range(m):
        entries = [*rows[i], rhs[i]]
        # A list, not a generator: unpacking a generator builds a resized
        # tuple, and those pile up in the interpreter's tuple free lists.
        scale = math.lcm(*[a.denominator for a in entries])
        if rhs[i] < 0:
            scale = -scale
        tab.append([a.numerator * (scale // a.denominator) for a in entries])
    basis = [n + i for i in range(m)]
    cols = list(range(n))  # cols[j]: the variable of column j, nonbasic, in index order

    # Row m is the Phase-I objective, the sum of artificials: minus each column sum.
    tab.append([-sum(column) for column in zip(*tab)])

    denom = 1
    degenerate = 0  # consecutive pivots on a zero rhs
    while True:
        obj = tab[m]
        low = min(obj[:-1], default=0)  # reduced costs, all over one D > 0
        if low >= 0:
            break
        if degenerate < 2 * m:  # Dantzig: most negative, lowest index on ties
            enter = obj.index(low)
        else:  # Bland: smallest eligible index, which cannot cycle
            enter = next(j for j in range(len(cols)) if obj[j] < 0)
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # b_i / a_i against b_leave / a_leave; both a's are > 0.
                diff = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # Cannot happen: the Phase-I objective is bounded below by 0.
            raise ArithmeticError("phase-I simplex unbounded")
        degenerate = degenerate + 1 if tab[leave][-1] == 0 else 0
        p = tab[leave][enter]
        prow = tab[leave]
        for i in range(m + 1):
            if i != leave:
                f = tab[i][enter]
                row = [(p * a - f * b) // denom for a, b in zip(tab[i], prow)]
                row[enter] = -f  # the leaving variable's column, if it returns
                tab[i] = row
        prow[enter] = denom  # the leaving variable's column was D * e_leave
        denom = p
        out = basis[leave]
        basis[leave] = cols[enter]
        del cols[enter]
        if out < n:  # back among the nonbasic columns, in index order
            at = bisect_left(cols, out)
            cols.insert(at, out)
            if at != enter:
                for row in tab:
                    row.insert(at, row.pop(enter))
        else:  # an artificial that leaves never returns
            for row in tab:
                del row[enter]

    return tab[m][-1] == 0  # objective value = -obj[rhs] / D; feasible iff 0

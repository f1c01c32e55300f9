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
basis (Bland 1977).  The solver stops when no structural column has a
negative reduced cost, whatever the rule: with the artificials that left
the basis dropped (Bertsimas and Tsitsiklis 1997, section 3.5) that basis
is optimal, so the objective is zero iff some x >= 0 solves A x = b.
The tableau keeps all n structural columns, basic ones too; a basic
column has reduced cost 0 and never enters, so Dantzig's lowest index and
Bland's first eligible one are the variables that a tableau of nonbasic
columns would pick, and the ratio test, ties broken on `basis`, picks the
same row: the pivots do not depend on the layout.

The tableau is integer and fraction-free.  Each row's denominators are
cleared once, with the row's lcm, and every pivot is the
integer-preserving update of Bareiss (1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination"):

    T'[i][j] = (p * T[i][j] - T[i][s] * T[r][j]) // D,    then D = p,

for pivot p = T[r][s] and every row i != r, the objective row included.
The rational tableau is T / D.  Pivots are positive, so D > 0, T and
T / D share their signs, and the ratio test compares cross products
with no division.  A basic column of T is D * e_r; the update keeps it so.

Each row of T, the objective row included, is one int R = sum_j T[j] *
2**(w * j): lane 0 holds the rhs, lane 1 + k structural column k, each a
signed w-bit entry.  The update is linear, so a pivot is one expression
per row, R_i = (p * R_i - T[i][s] * R_r) // D.  An entry of a constraint
row is a minor of the starting integer [A | b], so by Hadamard's bound it
is at most H, the product of the row norms of [A | b] (a zero row counts
1); an objective entry is minus a sum of at most m such minors.  So
w = ceil(bits(H**2) / 2) + bits(m) + 1 holds every entry with its sign.
Each lane of p * R_i - T[i][s] * R_r is D times its new entry, so the int
divides exactly by D and the quotient's lanes are the new entries.
Adding `bias`, 2**(w - 1) in every lane, makes each lane nonnegative; a
lane decodes by shifting, masking and subtracting 2**(w - 1).  A pivot
decodes the objective's lanes, the prices, and of each row only the
entering lane and the rhs.  The tests compare pivots with a full tableau
through the prices, read with one `min(costs, default=0)` per pivot and
one at the stop, and through `next`, which only Bland's branch calls.
"""

from __future__ import annotations

import math
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

    # [b | A] in integers.  Each row is scaled by the lcm of its
    # denominators, negated when b < 0 so that b >= 0.
    tab: list[list[int]] = []
    for i in range(m):
        entries = [rhs[i], *rows[i]]
        # A list, not a generator: unpacking a generator builds a resized
        # tuple, and those pile up in the interpreter's tuple free lists.
        scale = math.lcm(*[a.denominator for a in entries])
        if rhs[i] < 0:
            scale = -scale
        tab.append([a.numerator * (scale // a.denominator) for a in entries])
    hadamard_sq = math.prod([max(1, sum([a * a for a in row])) for row in tab])
    w = (hadamard_sq.bit_length() + 1) // 2 + m.bit_length() + 1
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum([half << (w * j) for j in range(n + 1)])
    packed = []
    for row in tab:
        r = 0
        for a in reversed(row):
            r = (r << w) + a
        packed.append(r)
    basis = [n + i for i in range(m)]
    obj = -sum(packed)  # the Phase-I objective, the sum of artificials

    denom = 1
    degenerate = 0  # consecutive pivots on a zero rhs
    while True:
        lanes = obj + bias
        costs = [(lanes >> s & mask) - half for s in range(w, w * (n + 1), w)]
        low = min(costs, default=0)  # reduced costs, all over one D > 0
        if low >= 0:
            break
        if degenerate < 2 * m:  # Dantzig: most negative, lowest index on ties
            enter = costs.index(low)
        else:  # Bland: smallest eligible index, which cannot cycle
            enter = next(j for j in range(n) if costs[j] < 0)
        shift = w * (enter + 1)
        column = [((r + bias) >> shift & mask) - half for r in packed]
        leave = -1
        for i in range(m):
            a = column[i]
            if a > 0:
                b = packed[i] & mask  # the rhs lane, which is >= 0
                if leave < 0:
                    leave, b_leave = i, b
                    continue
                diff = b * column[leave] - b_leave * a  # b / a against b_leave / a_leave
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave, b_leave = i, b
        if leave < 0:
            # Cannot happen: the Phase-I objective is bounded below by 0.
            raise ArithmeticError("phase-I simplex unbounded")
        degenerate = degenerate + 1 if b_leave == 0 else 0
        p, prow = column[leave], packed[leave]
        for i in range(m):
            if i != leave:
                packed[i] = (p * packed[i] - column[i] * prow) // denom
        obj = (p * obj - costs[enter] * prow) // denom
        denom = p
        basis[leave] = enter

    return obj & mask == 0  # objective value = -(rhs lane) / D; feasible iff 0

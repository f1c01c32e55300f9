"""Exact rational geometry on and around the moment curve.

Points are tuples of Fraction coordinates, all in a fixed dimension d.
The moment curve sends a parameter t to (t, t^2, ..., t^d); configurations
of distinct parameters are vertices of a cyclic polytope.  Facet structure
(Gale's evenness condition), Radon-type hull intersections (Breen's
alternation criterion vs. exact LP feasibility), hyperplanes spanned by d
curve points, a quadratic 2D general-position check and a 2D
convex-position subset finder all live here.

x(t) lies on the hyperplane n . x = c exactly when t is a root of
n_d t^d + ... + n_1 t - c, so the hyperplane through x(t_1), ..., x(t_d)
is read off the integer coefficients of prod (q_i t - p_i) over
t_i = p_i / q_i: no determinant and no Fraction arithmetic.

Inputs are never perturbed: degenerate data (duplicate points, shared
parameters, collinear triples where forbidden) is rejected, because the
oracle cross-checks in the test-suite rely on bit-true answers.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import combinations

from .graphs import Record
from .lp import feasible_eq_nonneg
from .words import pair_runs

Point = tuple[Fraction, ...]

ONE = Fraction(1)


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric input (nerve.DegenerateInputError)."""


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def rational(x) -> Fraction:
    """Coerce ints, Fractions and `_RATIONAL` strings (ASCII p or p/q, q > 0)
    to an exact Fraction.  Booleans are refused (JSON `true` is not 1), and so
    are decimals and exponents: "1e-100000" would make `Fraction` build 10^100000."""
    if isinstance(x, bool):
        raise GeometryError(f"not an exact rational: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise GeometryError(f"not an exact rational: {x!r}")


def point(coords) -> Point:
    return tuple(rational(c) for c in coords)


def moment_point(t, d: int) -> Point:
    """(t, t^2, ..., t^d) exactly."""
    if d < 1:
        raise GeometryError("dimension must be >= 1")
    t = rational(t)
    out = []
    acc = ONE
    for _ in range(d):
        acc = acc * t
        out.append(acc)
    return tuple(out)


def hulls_intersect(classes: list[list[Point]]) -> bool:
    """Do the convex hulls of all classes share a common point?

    Exact feasibility: one block of barycentric weights per class, each
    block nonnegative and summing to 1, with class 1's combination equal
    to every other class's combination, coordinate by coordinate.
    """
    if not classes or any(len(c) == 0 for c in classes):
        raise GeometryError("every class must be nonempty")
    d = len(classes[0][0])
    for cls in classes:
        for p in cls:
            if len(p) != d:
                raise GeometryError("all points must share one dimension")
    k = len(classes)
    if k == 1:
        return True

    sizes = [len(c) for c in classes]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s

    rows: list[list[Fraction | int]] = []
    rhs: list[Fraction | int] = []
    for i in range(k):  # each block sums to one
        row = [0] * total
        for j in range(sizes[i]):
            row[offsets[i] + j] = 1
        rows.append(row)
        rhs.append(1)
    for i in range(1, k):  # block 1 combination == block i combination
        for c in range(d):
            row = [0] * total
            for j, p in enumerate(classes[0]):
                row[offsets[0] + j] = p[c]
            for j, p in enumerate(classes[i]):
                row[offsets[i] + j] = -p[c]
            rows.append(row)
            rhs.append(0)
    return feasible_eq_nonneg(rows, rhs)


def breen_intersect(positions_a, positions_b, d: int) -> bool:
    """Breen's criterion on the moment curve in R^d, purely combinatorial:
    the two parameter sets interleave with at least d+2 blocks."""
    if d < 1:
        raise GeometryError("dimension must be >= 1")
    a = [rational(t) for t in positions_a]
    b = [rational(t) for t in positions_b]
    if set(a) & set(b):
        raise GeometryError("parameter sets must be disjoint")
    merged = sorted([(t, "a") for t in a] + [(t, "b") for t in b])
    return pair_runs([label for _, label in merged], "a", "b") >= d + 2


def gale_facets(r: int, d: int) -> list[tuple[int, ...]]:
    """Facets of the cyclic polytope C(r, d) by the evenness condition.

    Returns, in lexicographic order, all d-subsets S of {1..r} such that
    every pair of indices outside S has an even number of S-elements
    strictly between them.  Equivalently, of the maximal runs of
    consecutive indices in S only those holding 1 or r may have odd length
    (Gale 1963), so each facet is built directly rather than found by a
    scan: maximal end runs [1..a] and [r-b+1..r], and k = (d-a-b)/2
    disjoint pairs {i, i+1} among the L = r-a-b-2 indices strictly between
    a+1 and r-b.  Such pairs correspond one to one to k-subsets of
    range(L-k): slot c in position j (from 0) gives the pair starting at
    a+2+c+j.
    """
    if d < 2:
        raise GeometryError("dimension must be >= 2")
    if r <= d:
        raise GeometryError(f"need more points than the dimension (r={r}, d={d})")
    facets = []
    for a in range(d + 1):
        for b in range(d - a + 1):
            k, odd = divmod(d - a - b, 2)
            if odd:
                continue
            head = tuple(range(1, a + 1))
            tail = tuple(range(r - b + 1, r + 1))
            for slots in combinations(range(r - a - b - 2 - k), k):
                pairs = tuple(
                    i for j, c in enumerate(slots) for i in (a + 2 + c + j, a + 3 + c + j)
                )
                facets.append(head + pairs + tail)
    facets.sort()
    return facets


class Hyperplane(Record):
    """normal . q = offset, with the normal a primitive integer vector
    whose first nonzero entry is positive (deterministic serialization)."""

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self):
        if all(a == 0 for a in self.normal):
            raise GeometryError("hyperplane normal must be nonzero")

    def side(self, q: Point) -> int:
        value = sum(a * x for a, x in zip(self.normal, q)) - self.offset
        return (value > 0) - (value < 0)


def _primitive(ints) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero integer vector:
    divided by the gcd of its entries, first nonzero entry positive."""
    g = math.gcd(*ints)
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    return tuple([v // g for v in ints])


def hyperplane_through_moment_points(params, d: int) -> Hyperplane:
    """Hyperplane through x(t_1)..x(t_d) on the moment curve in R^d, from
    the coefficients c_k of prod (q_i t - p_i): c_1..c_d . x = -c_0.

    Consecutive parameter regions fall on alternating sides (the
    polynomial changes sign at each of its simple roots).
    """
    ts = [rational(t) for t in params]
    if len(set(ts)) != len(ts):
        raise GeometryError("duplicate hyperplane parameters")
    if len(ts) != d:
        raise GeometryError(f"need exactly {d} parameters in R^{d}")
    c = [1]  # c[k] is the coefficient of t^k
    for t in ts:
        p, q = t.numerator, t.denominator
        c = [q * a - p * b for a, b in zip([0] + c, c + [0])]
    *normal, offset = _primitive(c[1:] + [-c[0]])
    return Hyperplane(tuple(normal), offset)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points: list[Point]) -> list[Point]:
    """Monotone-chain hull in counterclockwise order (general position)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _check_general_position_2d(points: list[Point]) -> list[tuple[int, int]]:
    """Reject duplicates and name the lexicographically first collinear
    triple (i, j, k).  O(N^2): for each i, the later points on one line
    through points[i] share a primitive direction from it, and the first
    two indices of a direction form its smallest pair.  The directions are
    taken on one copy of the points times the lcm of their denominators,
    which is returned; the message shows the given points."""
    if len(set(points)) != len(points):
        raise GeometryError("duplicate points")
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]
    for i, (x, y) in enumerate(ints):
        first: dict[tuple[int, ...], int] = {}
        pairs = []
        for k in range(i + 1, len(ints)):
            j = first.setdefault(_primitive((ints[k][0] - x, ints[k][1] - y)), k)
            if j != k:
                pairs.append((j, k))
        if pairs:
            j, k = min(pairs)
            raise GeometryError(
                f"collinear triple at indices ({i}, {j}, {k}): "
                f"{points[i]}, {points[j]}, {points[k]}"
            )
    return ints


def convex_position_subset_2d(points: list[Point], n: int) -> list[Point] | None:
    """Some n of the given 2D points in convex position (cyclic order), or
    None.  Dynamic programming over angularly ordered point pairs, anchored
    at each candidate lexicographic-minimum vertex.  Points must be in
    general position; a collinear triple is rejected with its indices.
    """
    for p in points:
        if len(p) != 2:
            raise GeometryError("points must be 2-dimensional")
    _check_general_position_2d(points)
    if n < 1:
        raise GeometryError("target size must be >= 1")
    if n <= 2:
        return list(points[:n]) if len(points) >= n else None

    pts = sorted(points)
    best: list[Point] | None = None
    for idx, anchor in enumerate(pts):
        others = pts[idx + 1 :]
        if len(others) + 1 < n:
            break
        # sort by angle around the anchor (all angles within a half-plane)
        def cmp(a, b):
            c = _cross(anchor, a, b)
            return -1 if c > 0 else 1

        ordered = sorted(others, key=functools.cmp_to_key(cmp))
        k = len(ordered)
        # chain[i][j]: longest convex chain anchor -> ... -> ordered[i] -> ordered[j]
        chain = [[2] * k for _ in range(k)]
        parent: dict[tuple[int, int], tuple[int, int] | None] = {}
        result_len = 2
        result_pair = None
        for j in range(k):
            for i in range(j):
                chain[i][j] = 3
                parent[(i, j)] = None
        for i in range(k):
            for j in range(i + 1, k):
                for l in range(j + 1, k):
                    if _cross(ordered[i], ordered[j], ordered[l]) > 0:
                        if chain[i][j] + 1 > chain[j][l]:
                            chain[j][l] = chain[i][j] + 1
                            parent[(j, l)] = (i, j)
        for i in range(k):
            for j in range(i + 1, k):
                # close the polygon: turn at ordered[j] back to the anchor
                if _cross(ordered[i], ordered[j], anchor) > 0 and chain[i][j] > result_len:
                    result_len = chain[i][j]
                    result_pair = (i, j)
        if result_pair is not None and result_len >= n:
            # reconstruct the chain back from the closing pair
            seq = []
            pair = result_pair
            while pair is not None:
                seq.append(ordered[pair[1]])
                nxt = parent.get(pair)
                if nxt is None:
                    seq.append(ordered[pair[0]])
                pair = nxt
            seq.append(anchor)
            seq.reverse()  # anchor first, counterclockwise
            if len(seq) >= n and (best is None or len(seq) > len(best)):
                best = seq
        if best is not None and len(best) >= n:
            break
    if best is None or len(best) < n:
        return None
    # a cyclic-order subsequence of a convex polygon stays in convex position
    return best[:n]

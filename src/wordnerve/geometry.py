"""Exact rational geometry on and around the moment curve.

Points are tuples of int or Fraction coordinates in one dimension d.  The
moment curve sends t to (t, t^2, ..., t^d), ints for an integer t, and
configurations of distinct parameters are vertices of a cyclic polytope.
Facet structure (Gale's evenness condition), Radon-type hull intersections
(Breen's alternation criterion, separating axes for two planar hulls, and
exact LP feasibility, the exported `hulls_intersect`, for any shape),
hyperplanes through d curve points and a 2D general-position check live here.

x(t) lies on the hyperplane n . x = c exactly when t is a root of
n_d t^d + ... + n_1 t - c, so the hyperplane through x(t_1), ..., x(t_d)
is read off the integer coefficients of prod (q_i t - p_i) over
t_i = p_i / q_i: no determinant and no Fraction arithmetic.

Inputs are never perturbed: degenerate data (duplicate points, shared
parameters, collinear triples where forbidden) is rejected, because the
oracle cross-checks in the test-suite rely on bit-true answers.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from itertools import combinations

from .graphs import Record
from .lp import feasible_eq_nonneg
from .words import _intersecting_pairs

Point = tuple[int | Fraction, ...]

_EXACT = (int, Fraction)


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


def _point_text(p: Point) -> str:
    """A point as the files write its coordinates: "(7/3, -5)"."""
    return f"({', '.join(map(str, p))})"


def moment_point(t, d: int) -> Point:
    """(t, t^2, ..., t^d) exactly, each power one multiplication on from
    the last.  An integer t gives int coordinates.  A fractional t gives
    Fractions: `t^k * t` reduces by the small gcds of t's numerator and
    denominator with the other's, where `Fraction(n^k, q^k)` would take the
    gcd of two big coprime integers."""
    if d < 1:
        raise GeometryError("dimension must be >= 1")
    t = t if type(t) is int else rational(t)
    base = t.numerator if t.denominator == 1 else t
    tk, coords = 1, []
    for _ in range(d):
        tk *= base
        coords.append(tk)
    return tuple(coords)


def _check_exact(p) -> None:
    """Refuse a point with a coordinate that is not an int or a Fraction: a
    float is binary and a bool is no coordinate, though both pass for numbers."""
    for x in p:
        if type(x) not in _EXACT and (not isinstance(x, _EXACT) or isinstance(x, bool)):
            raise GeometryError(f"inexact coordinate {x!r} in point {_point_text(p)}")


def hulls_intersect(classes: list[list[Point]]) -> bool:
    """Do the convex hulls of all classes share a common point?  Exact LP
    feasibility (`_hull_lp`), whatever the shape: the reference that the
    separating-axis route for planar pairs (`_planar_hulls_meet`) is
    tested against.  Coordinates are ints or Fractions; any other type is
    refused."""
    if not classes or any(len(c) == 0 for c in classes):
        raise GeometryError("every class must be nonempty")
    d = len(classes[0][0])
    for cls in classes:
        for p in cls:
            if len(p) != d:
                raise GeometryError("all points must share one dimension")
            _check_exact(p)
    return len(classes) == 1 or _hull_lp(classes)


def _planar_hulls_meet(ha: list[Point], hb: list[Point]) -> bool:
    """Do two convex polygons meet, each given by its `_hull_2d` vertices?
    They are disjoint iff the outward normal of some edge of one has the
    other strictly beyond that edge (Chazelle and Dobkin 1987), or, when
    A - B is a point or a segment (both have at most 2 vertices), some
    q - p puts them strictly apart.  Hulls of an integer copy keep every
    product an int, so a caller that keeps one hull per class
    (`nerve._kept`) tests a pair without rebuilding either."""
    for h, other in ((ha, hb), (hb, ha)):
        for p, q in zip(h, h[1:] + h[:1]):  # counterclockwise, so (dy, -dx) points out
            x, y = q[1] - p[1], p[0] - q[0]
            if min([x * o[0] + y * o[1] for o in other]) > x * p[0] + y * p[1]:
                return False
    if len(ha) <= 2 and len(hb) <= 2:
        for p in ha:
            for q in hb:
                x, y = q[0] - p[0], q[1] - p[1]
                if max([x * o[0] + y * o[1] for o in ha]) < min([x * o[0] + y * o[1] for o in hb]):
                    return False
    return True


def _hull_lp(classes: list[list[Point]]) -> bool:
    """Exact feasibility: one block of barycentric weights per class, each
    block nonnegative and summing to 1, with class 1's combination equal
    to every other class's combination, coordinate by coordinate."""
    d, k = len(classes[0][0]), len(classes)
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
    return bool(_intersecting_pairs([label for _, label in merged], d))


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
    a+2+c+j.  An (r, d) whose facets need more than sys.maxsize bytes of
    pointers is refused before any is built.
    """
    if d < 2:
        raise GeometryError("dimension must be >= 2")
    if r <= d:
        raise GeometryError(f"need more points than the dimension (r={r}, d={d})")
    k, odd = divmod(d, 2)
    n = r - k - odd  # C(r, d) has C(n, k) * (2 if d is odd else r / n) facets
    count = None if min(k, n - k) >= 61 else math.comb(n, k) * (2 * n if odd else r) // n
    if count is None or count * (d + 1) > sys.maxsize // 8:  # C(n, k) >= 2^61; 8-byte slots
        raise GeometryError(f"C({r}, {d}) has more facets than memory can hold")
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


def _dot(normal, q):
    return sum(map(operator.mul, normal, q))


class Hyperplane(Record):
    """normal . q = offset, with the normal a primitive integer vector
    whose first nonzero entry is positive (deterministic serialization)."""

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self):
        if all(a == 0 for a in self.normal):
            raise GeometryError("hyperplane normal must be nonzero")

    def side(self, q: Point) -> int:
        value = _dot(self.normal, q) - self.offset
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


def _integer_copy(points: list[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm L of the points' coordinate denominators, and the points
    times L: integer points with the same signs of every homogeneous
    polynomial.  An affine form n . x - c keeps its signs as n . (L x) - L c."""
    ratios = [x.as_integer_ratio() for p in points for x in p]
    scale = math.lcm(*[q for _, q in ratios])
    flat = iter([n * (scale // q) for n, q in ratios])
    return scale, list(zip(*[flat] * len(points[0]))) if points else []


def _hull_2d(points: list[Point]) -> list[Point]:
    """Monotone-chain hull in counterclockwise order, without collinear
    vertices: a collinear class gives its two ends, a single point itself."""
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


def _check_general_position_2d(points: list[Point], ints: list[tuple[int, ...]]) -> None:
    """Reject duplicates and name the lexicographically first collinear
    triple (i, j, k).  O(N^2): for each i, the later points on one line
    through points[i] share a primitive direction from it, and the first
    two indices of a direction form its smallest pair.  Both tests run on
    `ints`, the caller's `_integer_copy` of the points; the message shows
    the given points."""
    if len(set(ints)) != len(ints):
        raise GeometryError("duplicate points")
    for i, (x, y) in enumerate(ints):
        first: dict[tuple[int, ...], int] = {}
        pairs = []
        for k in range(i + 1, len(ints)):
            dx, dy = ints[k][0] - x, ints[k][1] - y
            g = math.gcd(dx, dy)  # `_primitive`'s key, inlined: this loop is quadratic
            if dx < 0 or dx == 0 and dy < 0:
                g = -g
            j = first.setdefault((dx // g, dy // g), k)
            if j != k:
                pairs.append((j, k))
        if pairs:
            j, k = min(pairs)
            raise GeometryError(
                f"collinear triple at indices ({i}, {j}, {k}): "
                + ", ".join(_point_text(points[m]) for m in (i, j, k))
            )

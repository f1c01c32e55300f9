import builtins
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from . import oracles
from .oracles import feasible_eq_nonneg_fraction
from wordnerve import geometry, lp
from wordnerve import nerve as nerve_lib
from wordnerve.geometry import hulls_intersect, moment_point
from wordnerve.lp import feasible_eq_nonneg
from wordnerve.nerve import nerve, realize_on_moment_curve
from wordnerve.words import Word

F = Fraction


def test_trivial_systems():
    assert feasible_eq_nonneg([], [])
    assert feasible_eq_nonneg([[F(1)]], [F(3)])          # x = 3
    assert not feasible_eq_nonneg([[F(1)]], [F(-3)])     # x = -3, x >= 0
    assert feasible_eq_nonneg([[F(0)]], [F(0)])


def test_two_variable_systems():
    # x + y = 1, x - y = 0  ->  x = y = 1/2
    assert feasible_eq_nonneg([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    # x + y = 1, x + y = 2 is contradictory
    assert not feasible_eq_nonneg([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    # x - y = 5 with x, y >= 0 is fine (x = 5)
    assert feasible_eq_nonneg([[F(1), F(-1)]], [F(5)])


def test_degenerate_and_redundant_rows():
    rows = [
        [F(1), F(1), F(1)],
        [F(2), F(2), F(2)],   # redundant scaling
        [F(1), F(0), F(0)],
    ]
    assert feasible_eq_nonneg(rows, [F(1), F(2), F(1)])      # x = (1,0,0)
    assert not feasible_eq_nonneg(rows, [F(1), F(3), F(1)])  # inconsistent


def test_exactness_no_rounding():
    # tight rational data where floating point would waver
    eps = F(1, 10**30)
    rows = [[F(1), F(1)]]
    assert feasible_eq_nonneg(rows, [eps])
    assert not feasible_eq_nonneg(rows, [-eps])


# The smallest infeasible and the smallest feasible system of the seed-1
# benchmark inputs where, with one artificial column per row, Bland's scan
# would enter an artificial.  The solver has no such column: it stops once no
# original column has a negative reduced cost, here with 2 and 1 artificials
# still basic, and must read the verdict off the objective.
@pytest.mark.parametrize(
    "params, meet",
    [([[5], [3]], False), ([[5, 10], [7, 11, 13, 14], [2, 6, 9]], True)],
)
def test_verdict_where_only_an_artificial_could_enter(params, meet):
    classes = [[moment_point(t, 2) for t in cls] for cls in params]
    systems = []

    def spy(rows, rhs):
        systems.append((rows, rhs))
        return feasible_eq_nonneg(rows, rhs)

    with mock.patch.object(geometry, "feasible_eq_nonneg", spy):
        assert geometry._hull_lp(classes) == meet
    [(rows, rhs)] = systems
    assert feasible_eq_nonneg(rows, rhs) == _oracle(rows, rhs) == meet


def test_ragged_rows_and_wrong_rhs_length_raise_value_error():
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[F(1), F(2)], [F(1)]], [F(1), F(1)])
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[F(1)], [F(1), F(2)]], [F(1), F(1)])
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[F(1)], [F(2)]], [F(1)])                # rhs too short
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[F(1)], [F(2)]], [F(1), F(2), F(3)])    # rhs too long
    with pytest.raises(ValueError):
        feasible_eq_nonneg([], [F(1)])


# -- differential test against the Fraction tableau -------------------------

DIFF = settings(max_examples=300, deadline=None, derandomize=True, database=None)

rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(lambda k: F(k, 10**30), st.integers(-5, 5)),
)


def _fractions(rows, rhs):
    return [[F(a) for a in row] for row in rows], [F(b) for b in rhs]


def _oracle(rows, rhs):
    # Fractions only: the old solver divides with `/`, a float on two ints.
    return feasible_eq_nonneg_fraction(*_fractions(rows, rhs))


@st.composite
def systems(draw):
    """(rows, rhs, feasible by construction) with at most 6 rows and 8
    columns; entries mix ints and Fractions.  A third of the draws are
    degenerate: small entries, columns that repeat or negate an earlier
    column, and a mostly zero rhs, the shape on which Dantzig's rule
    alone can cycle.  A sixth mix small ints with +-10**40, whose minors
    need lanes of thousands of bits."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    kind = draw(st.integers(0, 5))
    degenerate = kind < 2
    entries = (st.sampled_from([-1, 0, 0, 1, 2]) if degenerate
               else st.sampled_from([-10**40, -1, 0, 1, 2, 10**40]) if kind == 5
               else rationals)
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for j in range(1, n if degenerate else 0):
        sign = draw(st.sampled_from([0, 1, -1]))
        if sign:  # a copy or the negative of an earlier column
            k = draw(st.integers(0, j - 1))
            for row in rows:
                row[j] = sign * row[k]
    known_feasible = draw(st.booleans())
    if known_feasible:  # b = A x for x >= 0; zeros in x make it degenerate
        values = [0, 0, 0, 0, 1] if degenerate else [0, 0, 1, 2, F(1, 3), F(1, 10**30)]
        x = [draw(st.sampled_from(values)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    elif degenerate:
        rhs = [draw(st.sampled_from([0, 0, 0, 1, -1])) for _ in range(m)]
    else:  # any sign, so negative right-hand sides too
        rhs = [draw(rationals) for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(["keep", "keep", "redundant", "zero"]))
        if kind == "redundant":  # a multiple of an earlier row
            j = draw(st.integers(0, i - 1))
            c = draw(st.sampled_from([-2, F(1, 2), 3]))
            rows[i] = [c * a for a in rows[j]]
            rhs[i] = c * rhs[j]
        elif kind == "zero":
            rows[i] = [0] * n
            rhs[i] = 0 if known_feasible else draw(rationals)
            known_feasible = known_feasible and rhs[i] == 0
    return rows, rhs, known_feasible


@DIFF
@given(systems())
@example(([[1, 1], [2, 2], [1, 0]], [1, 2, 1], True))
@example(([[1, 1], [0, 0]], [F(1, 10**30), F(-1, 10**30)], False))
def test_integer_simplex_matches_fraction_simplex(system):
    rows, rhs, known_feasible = system
    verdict = feasible_eq_nonneg(rows, rhs)
    assert verdict == _oracle(rows, rhs)
    assert verdict == feasible_eq_nonneg(*_fractions(rows, rhs))
    if known_feasible:
        assert verdict


coordinates = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-12, 12), st.integers(1, 5)))


@st.composite
def classes(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 3))
    cls = [
        [tuple(F(draw(coordinates)) for _ in range(d)) for _ in range(draw(st.integers(1, d + 3)))]
        for _ in range(k)
    ]
    if draw(st.integers(0, 2)) == 0:  # every class gets one point of class 0's hull
        weights = [F(draw(st.integers(0, 3))) for _ in cls[0]]
        weights[0] += 1
        total = sum(weights)
        common = tuple(
            sum(w * p[c] for w, p in zip(weights, cls[0])) / total for c in range(d)
        )
        for other in cls[1:]:
            other[-1] = common
    return cls


@DIFF
@given(classes())
def test_hulls_intersect_matches_fraction_route(cls):
    verdict = hulls_intersect(cls)
    with mock.patch.object(geometry, "feasible_eq_nonneg", _oracle):
        assert verdict == geometry._hull_lp(cls)
    if len(cls[0][0]) == 1:  # intervals on a line meet iff max of mins <= min of maxes
        assert verdict == (max(min(c)[0] for c in cls) <= min(max(c)[0] for c in cls))


# -- separating axes for planar pairs against the LP -------------------------

GRID = [(F(x), F(y)) for x in range(3) for y in range(3)]


def separating_axes(pair):
    """The library's verdict on a planar pair: `nerve._meets` on the two
    classes kept (`nerve._kept`) on one integer copy, which compares their
    hulls by separating axes."""
    _, ints = geometry._integer_copy(pair[0] + pair[1])
    n = len(pair[0])
    return nerve_lib._meets([nerve_lib._kept(ints[:n]), nerve_lib._kept(ints[n:])])


def test_planar_pairs_match_lp_on_a_grid():
    # every ordered pair of 1-3 points of a 3 x 3 grid: single points,
    # segments, collinear classes, shared points, and hulls that touch at a
    # vertex or along an edge
    subsets = [list(c) for size in (1, 2, 3) for c in combinations(GRID, size)]
    for a in subsets:
        for b in subsets:
            assert separating_axes([a, b]) == hulls_intersect([a, b]), (a, b)


@st.composite
def planar_pairs(draw):
    """Two classes of 1-5 rational points; a third of the draws put a
    point of class 0's hull (a vertex, an edge point or an inner point)
    into class 1, and some draw class 1 on one line."""
    a = [(draw(coordinates), draw(coordinates)) for _ in range(draw(st.integers(1, 5)))]
    b = [(draw(coordinates), draw(coordinates)) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):  # class 1 on the line through two of its points
        (x0, y0), (x1, y1) = b[0], b[-1]
        b = [(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
             for t in draw(st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 3)),
                                    min_size=1, max_size=4))]
    if draw(st.integers(0, 2)) == 0:
        weights = [F(draw(st.integers(0, 2))) for _ in a]
        weights[0] += 1
        total = sum(weights)
        b[-1] = tuple(sum(w * p[c] for w, p in zip(weights, a)) / total for c in (0, 1))
    return [[tuple(map(F, p)) for p in a], [tuple(map(F, p)) for p in b]]


@DIFF
@given(planar_pairs())
def test_planar_pairs_match_lp(pair):
    assert separating_axes(pair) == hulls_intersect(pair)


def random_planar_class(rng) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """A class of the kind named first: a single point, a segment, three to
    five points on one line, or a cloud of three to six points.
    Coordinates are small, with denominators up to 4, so shared points,
    touching hulls and shared lines are common."""
    def coordinate():
        return F(rng.randint(-8, 8), rng.randint(1, 4))

    kind = rng.choice(("point", "segment", "collinear", "cloud"))
    if kind == "collinear":
        base, step = (coordinate(), coordinate()), (rng.randint(-3, 3), rng.randint(1, 3))
        ts = rng.sample(range(-4, 5), rng.randint(3, 5))
        return kind, [(base[0] + F(t * step[0], 2), base[1] + F(t * step[1], 2)) for t in ts]
    size = {"point": 1, "segment": 2, "cloud": rng.randint(3, 6)}[kind]
    return kind, [(coordinate(), coordinate()) for _ in range(size)]


def test_planar_hulls_meet_on_kept_hulls_matches_the_lp():
    """As in an extension, each round takes one integer copy of a few
    classes and of extras, keeps one hull per class and grows a class by
    one extra at a time as `_hull_2d(hull + [e])`; after every step each
    pair verdict of `_planar_hulls_meet` on the kept hulls is the LP's on
    the given points."""
    rng = random.Random(47)
    seen = Counter()
    for _ in range(80):
        kinds, classes = zip(*[random_planar_class(rng) for _ in range(rng.randint(2, 5))])
        extras = [(rng.randrange(len(classes)), (F(rng.randint(-8, 8), rng.randint(1, 4)),
                                                 F(rng.randint(-8, 8), rng.randint(1, 4))))
                  for _ in range(rng.randint(0, 3))]
        _, ints = geometry._integer_copy([p for c in classes for p in c] + [e for _, e in extras])
        ints = iter(ints)
        hulls = [geometry._hull_2d([next(ints) for _ in c]) for c in classes]
        given = [list(c) for c in classes]
        for step in range(len(extras) + 1):
            if step:
                k, e = extras[step - 1]
                hulls[k] = geometry._hull_2d(hulls[k] + [next(ints)])
                given[k].append(e)
            for i, j in combinations(range(len(classes)), 2):
                verdict = geometry._planar_hulls_meet(hulls[i], hulls[j])
                assert verdict == geometry._hull_lp([given[i], given[j]]), (given[i], given[j])
                seen[verdict] += 1
                seen.update({kinds[i], kinds[j]})
    assert sum(seen[v] for v in (True, False)) >= 500
    assert min(seen[v] for v in (True, False)) > 100
    assert min(seen[kind] for kind in ("point", "segment", "collinear", "cloud")) > 100


def test_a_kept_hull_grows_as_the_hull_of_all_points():
    # the hull of hull + [e] is the hull of points + [e], vertex for vertex
    # and in the same order: inner, boundary, repeated and outer extras,
    # over single points, segments, collinear classes and clouds
    rng = random.Random(48)
    for _ in range(1000):
        _, points = random_planar_class(rng)
        hull = geometry._hull_2d(points)
        e = rng.choice([(F(rng.randint(-8, 8), rng.randint(1, 4)),
                         F(rng.randint(-8, 8), rng.randint(1, 4))),
                        rng.choice(points),
                        tuple(sum(p[c] for p in points) / len(points) for c in (0, 1))])
        assert geometry._hull_2d(hull + [e]) == geometry._hull_2d(points + [e])


# -- triple systems of moment-curve words ------------------------------------

# (d, colors, letters): the word shapes of the benchmark's nerve pipeline,
# whose LP calls are all triple tests since the pairs follow Breen.
CURVE_SHAPES = (
    (2, 4, 12), (2, 5, 14), (2, 6, 16),
    (3, 4, 16), (3, 5, 18), (3, 6, 20),
    (4, 4, 18), (4, 5, 20), (4, 6, 22),
)
CURVE_TRIANGLES = Path(__file__).parent / "data" / "curve_triangles.jsonl"


def curve_words(count, seed=1):
    """`count` seeded (word, d) pairs cycling through CURVE_SHAPES; each word
    uses every one of its colors c0..c{k-1}."""
    rng = random.Random(seed)
    for i in range(count):
        d, k, n = CURVE_SHAPES[i % len(CURVE_SHAPES)]
        letters = ()
        while len(set(letters)) < k:
            letters = tuple(f"c{rng.randrange(k)}" for _ in range(n))
        yield Word(letters), d


def triple_systems(words):
    """Every (rows, rhs) that `nerve(config, 2)` passes the LP solver on the
    moment-curve realizations of `words`, each (word, d) or (word, d,
    params): triple tests only, since the pairs follow Breen's criterion."""
    systems = []

    def spy(rows, rhs):
        systems.append((rows, rhs))
        return feasible_eq_nonneg(rows, rhs)

    with mock.patch.object(geometry, "feasible_eq_nonneg", spy):
        for w, d, *params in words:
            nerve(realize_on_moment_curve(w, d, *params), 2)
    return systems


@pytest.fixture(scope="module")
def curve_triples():
    return triple_systems(curve_words(100))


def test_curve_triple_systems_match_fraction_simplex(curve_triples):
    assert len(curve_triples) > 100
    for rows, rhs in curve_triples:
        assert rhs.count(1) == 3  # one weight block per class
        assert feasible_eq_nonneg(rows, rhs) == _oracle(rows, rhs)


def fractional_curve_words(count, seed=2):
    """`curve_words` realized at increasing parameters p/q with q <= 7."""
    rng = random.Random(seed)
    for w, d in curve_words(count, seed):
        pool = set()
        while len(pool) < len(w):
            pool.add(F(rng.randint(-60, 60), rng.randint(1, 7)))
        yield w, d, sorted(pool)


def test_curve_triple_systems_are_ints(curve_triples):
    # the nerve builds the curve's triples on one integer copy of the points
    fractional = triple_systems(fractional_curve_words(30))
    assert len(fractional) > 20
    for rows, rhs in curve_triples + fractional:
        assert all(type(a) is int for a in rhs)
        assert all(type(a) is int for row in rows for a in row)


# -- the packed tableau against the full tableau of lists --------------------


def same_pivots(rows, rhs):
    """Both tableaux make the same pivots and reach the same verdict.  Each
    solver prices through `min` in its module, once per pivot and once to
    stop; the price read is the least reduced cost while one is negative,
    then 0.  The packed solver must read the full tableau's prices, in
    order, and fails at the first pivot that differs.  Returns the count."""
    prices = []

    def recorded(costs, default):
        low = builtins.min(costs, default=default)
        prices.append(builtins.min(low, 0))
        return low

    with mock.patch.object(oracles, "min", recorded, create=True):
        verdict = oracles.feasible_eq_nonneg_full(rows, rhs)
    expected = iter(prices)

    def checked(costs, default):
        low = builtins.min(costs, default=default)
        assert builtins.min(low, 0) == next(expected, None)
        return low

    with mock.patch.object(lp, "min", checked, create=True):
        assert feasible_eq_nonneg(rows, rhs) == verdict
    assert next(expected, None) is None
    return len(prices) - 1


def test_curve_triple_systems_pivot_as_the_full_tableau(curve_triples):
    pivots = [same_pivots(rows, rhs) for rows, rhs in curve_triples]
    assert sum(pivots) > 10 * len(pivots)


@DIFF
@given(systems())
@example(([[1, 1], [2, 2], [1, 0]], [1, 2, 1], True))
# Variables here leave the basis and enter again; a tableau of nonbasic
# columns that put such a column back at the wrong place or sign pivoted apart.
@example(([[2, 2, 2, 0, -1, 1], [1, 1, 2, 0, 1, 0], [1, 0, 0, 0, -1, 0], [-1, -1, -1, 1, 0, 2]],
          [0, 0, 0, 1], True))
def test_systems_pivot_as_the_full_tableau(system):
    rows, rhs, _ = system
    same_pivots(rows, rhs)


def hull_system(classes):
    """The (rows, rhs) that `_hull_lp` passes the LP solver."""
    systems = []
    with mock.patch.object(geometry, "feasible_eq_nonneg", lambda *s: systems.append(s)):
        geometry._hull_lp(classes)
    [system] = systems
    return system


# A seed-1 benchmark triple at d = 4 (11 rows, 12 columns) whose pivots stay
# degenerate 2m = 22 times in a row, so Bland's rule enters at least once.
BLAND_TRIPLE = [[1, 4, 8, 10], [3, 7, 13, 19], [2, 6, 12, 16]]


def test_degenerate_triple_reaches_the_bland_fallback(monkeypatch):
    rows, rhs = hull_system([[moment_point(t, 4) for t in cls] for cls in BLAND_TRIPLE])
    scans = []

    def bland_scan(eligible):  # `next` is called only by the Bland branch
        scans.append(1)
        return next(eligible)

    monkeypatch.setattr(lp, "next", bland_scan, raising=False)
    assert not feasible_eq_nonneg(rows, rhs)
    assert scans
    assert not _oracle(rows, rhs)
    # Bland's scan runs over every structural column, the basic ones too
    assert same_pivots(rows, rhs) > 2 * len(rows)


# -- lane widths: tableau entries near Hadamard's bound -------------------------


def sylvester(k):
    """The 2**k x 2**k Sylvester Hadamard matrix: +-1 entries, orthogonal
    rows, so its determinant meets Hadamard's bound."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-a for a in row] for row in h]
    return h


@pytest.mark.parametrize("scale", [1, 10**12, F(1, 10**30)])
@pytest.mark.parametrize("x", [[1] * 8, list(range(1, 9)), [1, 0, 2, 0, 0, 3, 1, 0],
                               [1] * 7 + [-1], [0] * 8])
def test_hadamard_systems_pivot_as_the_full_tableau(scale, x):
    """H x = b on the 8 x 8 Sylvester matrix H times `scale`.  H is
    invertible, so the system is feasible iff x >= 0; for x > 0 the
    optimal basis holds all 8 columns, and D reaches det(H * scale) =
    8**4 * scale**8, which is Hadamard's bound on H * scale."""
    rows = [[scale * a for a in row] for row in sylvester(3)]
    rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    assert feasible_eq_nonneg(rows, rhs) == _oracle(rows, rhs) == (min(x) >= 0)
    pivots = same_pivots(rows, rhs)
    if min(x) > 0:
        assert pivots >= 8


def big_curve_triples(seed=29):
    """Three classes of 2d + 4 curve points at d = 6, 7, 8, colored 0, 1, 2
    in turn with one adjacent pair swapped: integer parameters up to
    10**6, then fractional ones p/q with |p| <= 10**6 and q <= 7."""
    rng = random.Random(seed)
    for d in (6, 7, 8):
        for fractional in (False, True):
            n = 2 * d + 4
            if fractional:
                pool = set()
                while len(pool) < n:
                    pool.add(F(rng.randint(-10**6, 10**6), rng.randint(1, 7)))
            else:
                pool = rng.sample(range(1, 10**6 + 1), n)
            colors = [i % 3 for i in range(n)]
            i = rng.randrange(n - 1)
            colors[i], colors[i + 1] = colors[i + 1], colors[i]
            params = sorted(pool)
            yield hull_system([[moment_point(t, d) for t, c in zip(params, colors) if c == k]
                               for k in range(3)])


def test_big_curve_triples_pivot_as_the_full_tableau():
    verdicts = set()
    for rows, rhs in big_curve_triples():
        verdict = feasible_eq_nonneg(rows, rhs)
        assert verdict == _oracle(rows, rhs)
        assert same_pivots(rows, rhs) > len(rows)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("rows, rhs, feasible", [
    ([[]], [0], True),                           # n = 0
    ([[], []], [0, 1], False),
    ([[], []], [0, -1], False),
    ([[0, 0], [0, 0]], [0, 0], True),            # all-zero rows
    ([[0, 0], [1, 1]], [0, 2], True),
    ([[0, 0], [1, 1]], [3, 2], False),
    ([[-1, 1]], [-3], True),                     # negative rhs: x = (3, 0)
    ([[1, 1], [1, -1]], [-1, 0], False),
    ([[1, -1, 0], [0, 0, 0], [2, 0, -1]], [-2, 0, -5], True),
])
def test_small_systems_pivot_as_the_full_tableau(rows, rhs, feasible):
    assert feasible_eq_nonneg(rows, rhs) == _oracle(rows, rhs) == feasible
    same_pivots(rows, rhs)


def test_curve_triangles_golden():
    # The 2-faces of the first 200 words, as the Bland-only solver found them.
    lines = []
    for w, d in curve_words(200):
        triangles = nerve(realize_on_moment_curve(w, d), 2).complex.faces_of_size(3)
        lines.append(json.dumps({"d": d, "word": " ".join(w.letters), "triangles": triangles}))
    assert ("\n".join(lines) + "\n").encode() == CURVE_TRIANGLES.read_bytes()

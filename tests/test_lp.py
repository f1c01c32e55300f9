from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .oracles import feasible_eq_nonneg_fraction
from wordnerve import geometry
from wordnerve.geometry import hulls_intersect, moment_point
from wordnerve.lp import feasible_eq_nonneg

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
# would enter an artificial.  The solver has no such column: it stops there
# and must read the verdict off the objective.
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
    columns; entries mix ints and Fractions."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    known_feasible = draw(st.booleans())
    if known_feasible:  # b = A x for x >= 0; zeros in x make it degenerate
        x = [draw(st.sampled_from([0, 0, 1, 2, F(1, 3), F(1, 10**30)])) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
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


def test_planar_pairs_match_lp_on_a_grid():
    # every ordered pair of 1-3 points of a 3 x 3 grid: single points,
    # segments, collinear classes, shared points, and hulls that touch at a
    # vertex or along an edge
    subsets = [list(c) for size in (1, 2, 3) for c in combinations(GRID, size)]
    for a in subsets:
        for b in subsets:
            assert hulls_intersect([a, b]) == geometry._hull_lp([a, b]), (a, b)


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
    assert hulls_intersect(pair) == geometry._hull_lp(pair)

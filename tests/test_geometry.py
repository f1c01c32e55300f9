import math
import random
import sys
import time
from fractions import Fraction

import pytest

from wordnerve.geometry import (
    GeometryError,
    _check_general_position_2d,
    _integer_copy,
    breen_intersect,
    gale_facets,
    hulls_intersect,
    hyperplane_through_moment_points,
    moment_point,
    point,
    rational,
)

from .oracles import (
    check_general_position_2d_cubic,
    det,
    facet_oracle,
    gale_facets_scan,
    moment_point_products,
)

F = Fraction


def test_rational_parsing():
    assert rational("3/4") == F(3, 4)
    assert rational(5) == 5
    assert rational("-7/03") == F(-7, 3) and rational("007") == 7
    with pytest.raises(GeometryError):
        rational(0.5)
    # the grammar formats.points_from_doc reads: -?[0-9]+(/[0-9]+)? with q > 0
    for bad in ("0.5", "1e3", "1e-100000", "+3", " 2", "2 ", "2\n", "1_000", "\uff11",
                "3/-4", "1/0", "1/00", "", "-", "/2"):
        with pytest.raises(GeometryError):
            rational(bad)


def test_rational_rejects_bool():
    for x in (True, False):
        with pytest.raises(GeometryError):
            rational(x)
    with pytest.raises(GeometryError):
        point([True, 9])
    for t, d in ((True, 2), (False, 3), (0.5, 2)):
        with pytest.raises(GeometryError):
            moment_point(t, d)


def test_moment_point_examples():
    assert moment_point(2, 3) == (2, 4, 8)
    assert moment_point(0, 4) == (0, 0, 0, 0)
    assert moment_point(F(1, 2), 2) == (F(1, 2), F(1, 4))


def test_moment_point_matches_fraction_products():
    # integer powers of t's numerator and denominator against running
    # Fraction products: negative, zero and integer parameters, and
    # denominators up to 10^6; an integer t, even as a Fraction, gives ints
    rng = random.Random(21)
    params = [0, 1, -1, F(-1, 10**6), F(10**6 - 1, 10**6)]
    for _ in range(1500):
        q = rng.choice([1, rng.randint(2, 9), rng.randint(2, 10**6)])
        params.append(F(rng.randint(-(10**6), 10**6), q))
    for t in params:
        for d in range(1, 7):
            p = moment_point(t, d)
            assert p == moment_point_products(t, d)
            assert all(type(x) is (int if F(t).denominator == 1 else F) for x in p)
    assert moment_point("-3/7", 3) == moment_point_products(F(-3, 7), 3)


def test_moment_point_at_a_fraction_is_near_linear_in_d():
    # built as Fraction(7^k, 3^k), each coordinate took a gcd of two big
    # coprime integers: 0.45-0.57 s of CPU at d = 5000
    start = time.process_time()
    p = moment_point(F(7, 3), 5000)
    assert time.process_time() - start < 0.2
    assert p == moment_point_products(F(7, 3), 5000)


def test_orientation_moment_points_positive():
    rng = random.Random(10)
    for d in range(1, 6):
        for _ in range(10):
            params = sorted(rng.sample(range(-20, 40), d + 1))
            pts = [moment_point(t, d) for t in params]
            assert det([[1] + list(p) for p in pts]) > 0  # Vandermonde positivity


def test_hulls_intersect_examples():
    seg1 = [point((0, 0)), point((2, 2))]
    seg2 = [point((0, 2)), point((2, 0))]
    assert hulls_intersect([seg1, seg2])
    a = [moment_point(t, 3) for t in (1, 3)]
    b = [moment_point(t, 3) for t in (2, 4)]
    assert not hulls_intersect([a, b])
    assert hulls_intersect([seg1])  # single class
    with pytest.raises(GeometryError):
        hulls_intersect([seg1, [point((1, 2, 3))]])
    with pytest.raises(GeometryError):
        hulls_intersect([seg1, []])


@pytest.mark.parametrize("classes, message", [
    # the float's binary value is off the segment, 1/10 and 3/10 are on it
    ([[(0, 0), (1, 3)], [(0.1, 0.3)]], "inexact coordinate 0.1 in point (0.1, 0.3)"),
    # once an AttributeError inside the simplex
    ([[(0.5, 0.5, 0.5)], [(1, 1, 1)]], "inexact coordinate 0.5 in point (0.5, 0.5, 0.5)"),
    # once True: a bool is an int but no coordinate
    ([[(True, False)], [(1, 0)]], "inexact coordinate True in point (True, False)"),
])
def test_hulls_intersect_refuses_inexact_coordinates(classes, message):
    with pytest.raises(GeometryError) as info:
        hulls_intersect(classes)
    assert str(info.value) == message


def test_hulls_intersect_takes_ints_and_fractions():
    assert hulls_intersect([[(0, 0), (1, 3)], [(F(1, 10), F(3, 10))]])
    assert not hulls_intersect([[(0, 0), (1, 3)], [(F(1, 10), F(3, 11))]])
    assert hulls_intersect([[(0, 0, 0), (2, 2, 2)], [(F(1), 1, F(1))]])
    assert not hulls_intersect([[(0, 0, 0), (2, 2, 2)], [(1, 1, F(3, 2))]])


def test_hulls_intersect_point_in_triangle():
    tri = [point((0, 0)), point((4, 0)), point((0, 4))]
    assert hulls_intersect([[point((1, 1))], tri])
    assert not hulls_intersect([[point((3, 3))], tri])


def test_hulls_intersect_permutation_invariance():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 3)
        classes = []
        for _ in range(rng.randint(2, 3)):
            classes.append(
                [
                    tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d))
                    for _ in range(rng.randint(1, 4))
                ]
            )
        base = hulls_intersect(classes)
        shuffled = [list(c) for c in classes]
        for c in shuffled:
            rng.shuffle(c)
        rng.shuffle(shuffled)
        assert hulls_intersect(shuffled) == base


def test_breen_examples():
    assert breen_intersect([1, 3], [2, 4], 2)
    assert not breen_intersect([1, 3], [2, 4], 3)
    assert not breen_intersect([1, 2], [3, 4], 2)
    with pytest.raises(GeometryError):
        breen_intersect([1, 2], [2, 3], 2)


def test_breen_equivalence_exhaustive_small():
    for r in range(2, 7):
        params = list(range(1, r + 1))
        for d in (2, 3):
            for mask in range(1, 1 << (r - 1)):  # nonempty both sides, no mirror
                a = [params[i] for i in range(r) if (mask >> i) & 1]
                b = [t for t in params if t not in a]
                if not a or not b:
                    continue
                lhs = breen_intersect(a, b, d)
                rhs = hulls_intersect(
                    [[moment_point(t, d) for t in a], [moment_point(t, d) for t in b]]
                )
                assert lhs == rhs, (a, b, d)


def test_breen_equivalence_random_rational_params():
    rng = random.Random(12)
    for _ in range(60):
        r = rng.randint(2, 9)
        d = rng.randint(1, 5)
        pool = set()
        while len(pool) < r:
            pool.add(F(rng.randint(-30, 30), rng.randint(1, 6)))
        params = sorted(pool)
        cut = rng.randint(1, r - 1)
        marked = set(rng.sample(params, cut))
        a = [t for t in params if t in marked]
        b = [t for t in params if t not in marked]
        lhs = breen_intersect(a, b, d)
        rhs = hulls_intersect(
            [[moment_point(t, d) for t in a], [moment_point(t, d) for t in b]]
        )
        assert lhs == rhs


def test_gale_facets_examples():
    assert gale_facets(6, 2) == [
        (1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)
    ]
    assert gale_facets(5, 3) == [
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)
    ]
    with pytest.raises(GeometryError):
        gale_facets(3, 3)
    with pytest.raises(GeometryError):
        gale_facets(5, 1)


def test_gale_matches_bruteforce_oracle():
    for d in (2, 3, 4):
        for r in range(d + 1, 9):
            assert gale_facets(r, d) == facet_oracle(r, d), (r, d)


def test_gale_facets_match_evenness_scan():
    for r in range(3, 15):
        for d in range(2, r):
            assert gale_facets(r, d) == gale_facets_scan(r, d), (r, d)


def test_gale_facet_count_matches_closed_form():
    # r/(r-k) C(r-k, k) facets for d = 2k, 2 C(r-k-1, k) for d = 2k + 1
    for r in range(3, 15):
        for d in range(2, r):
            k = d // 2
            closed = 2 * math.comb(r - k - 1, k) if d % 2 else r * math.comb(r - k, k) // (r - k)
            assert len(gale_facets(r, d)) == closed, (r, d)


@pytest.mark.parametrize("r, d", [
    (10**20, 2), (10**20, 3), (sys.maxsize, 2), (sys.maxsize // 8, 2),
    (sys.maxsize, sys.maxsize // 8), (10**20, sys.maxsize), (2 * 10**20, 10**20),
])
def test_gale_facets_refuses_more_facets_than_memory_holds(r, d):
    with pytest.raises(GeometryError, match="more facets than memory can hold"):
        gale_facets(r, d)


def test_hyperplane_construction_and_sides():
    h = hyperplane_through_moment_points([0, 1], 2)  # line through (0,0),(1,1)
    assert h.side(moment_point(F(1, 2), 2)) != h.side(moment_point(2, 2))
    assert h.side(point((0, 0))) == 0
    with pytest.raises(GeometryError):
        hyperplane_through_moment_points([1, 1], 2)


def test_hyperplane_parity_regions():
    # probes between consecutive parameters alternate sides
    h = hyperplane_through_moment_points([1, 2, 3], 3)
    probes = [0, F(3, 2), F(5, 2), 4]
    signs = [h.side(moment_point(t, 3)) for t in probes]
    assert all(s != 0 for s in signs)
    assert signs[0] == signs[2] and signs[1] == signs[3] and signs[0] != signs[1]


def test_hyperplane_parity_random():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 5)
        pool = set()
        while len(pool) < d:
            pool.add(F(rng.randint(-20, 20), rng.randint(1, 5)))
        params = sorted(pool)
        h = hyperplane_through_moment_points(params, d)
        regions = [params[0] - 1]
        for a, b in zip(params, params[1:]):
            regions.append((a + b) / 2)
        regions.append(params[-1] + 1)
        signs = [h.side(moment_point(t, d)) for t in regions]
        assert all(s != 0 for s in signs)
        for i in range(len(signs) - 1):
            assert signs[i] == -signs[i + 1]


def test_hyperplane_normal_is_canonical():
    h = hyperplane_through_moment_points([0, 1], 2)  # the line y = x
    assert h.normal == (1, -1) and h.offset == 0
    assert all(type(c) is int for c in (*h.normal, h.offset))


def test_moment_hyperplane_passes_through_its_points():
    """The hyperplane holds all d curve points and its equation is
    primitive: integer entries of gcd 1, the first nonzero one positive.
    d affinely independent points span one hyperplane, and these two
    conditions fix its equation, so no second route is needed."""
    rng = random.Random(11)
    for _ in range(400):
        d = rng.randint(1, 6)
        pool = set()
        while len(pool) < d:
            pool.add(F(rng.randint(-30, 30), rng.randint(1, 9)))
        params = list(pool)
        rng.shuffle(params)
        h = hyperplane_through_moment_points(params, d)
        assert all(type(c) is int for c in (*h.normal, h.offset))
        assert all(sum(a * x for a, x in zip(h.normal, moment_point(t, d))) == h.offset
                   for t in params)
        assert math.gcd(*h.normal, h.offset) == 1
        assert next(c for c in h.normal if c) > 0


def general_position_error(check, points) -> str | None:
    try:
        check(points)
    except GeometryError as exc:
        return str(exc)
    return None


def check_on_integer_copy(points):
    _check_general_position_2d(points, _integer_copy(points)[1])


def test_general_position_names_the_first_collinear_triple():
    for coords, triple in [
        # from point 0, slope 1 repeats at (2, 3) before slope 0 repeats at
        # (1, 4); the lexicographically first triple is still (0, 1, 4)
        (((0, 0), (1, 0), (1, 1), (2, 2), (5, 0)), "(0, 1, 4): (0, 0), (1, 0), (5, 0)"),
        # the later points lie on both sides of point 0, on a sloped line
        # and on a vertical one: opposite directions share one key
        (((1, 1), (0, 0), (2, 2)), "(0, 1, 2): (1, 1), (0, 0), (2, 2)"),
        (((0, 1), (0, 0), (0, 2)), "(0, 1, 2): (0, 1), (0, 0), (0, 2)"),
    ]:
        pts = [point(p) for p in coords]
        message = general_position_error(check_on_integer_copy, pts)
        assert message == f"collinear triple at indices {triple}"
        assert message == general_position_error(check_general_position_2d_cubic, pts)


def test_general_position_matches_triple_scan():
    """The quadratic direction check raises what the cubic triple scan
    does, message included, on small grids where collinear triples are
    common.  Both coordinates carry mixed denominators, so the integer
    scale the check applies is rarely 1 or any one point's own."""
    rng = random.Random(16)
    errors = 0
    for _ in range(2000):
        span = rng.randint(2, 5)
        pts = [
            point(tuple(F(rng.randint(-span, span), rng.choice((1, 2, 3, 4, 6)))
                        for _ in range(2)))
            for _ in range(rng.randint(0, 9))
        ]
        expected = general_position_error(check_general_position_2d_cubic, pts)
        assert general_position_error(check_on_integer_copy, pts) == expected
        errors += expected is not None
    assert 400 < errors < 1600

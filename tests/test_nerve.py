import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import wordnerve
import wordnerve.nerve as nerve_lib
from wordnerve import formats
from wordnerve.encode import (
    ChordDiagram,
    bipartite_layout,
    word_bipartite,
    word_from_chord_diagram,
)
from wordnerve.geometry import (
    _integer_copy,
    hulls_intersect,
    hyperplane_through_moment_points,
    moment_point,
    point,
)
from wordnerve.graphs import from_edge_list, is_triangle_free, one_skeleton
from wordnerve.nerve import (
    ColoredConfig,
    DegenerateInputError,
    ExtensionError,
    _curve_order,
    _curve_separator,
    _Separations,
    _verified_extension,
    extend_coloring_2d,
    extend_coloring_bipartite,
    nerve,
    realize_on_moment_curve,
)
from wordnerve.words import Word, induced_graph_general, word

from . import oracles
from .oracles import assign_extras_2d_reference, curve_order_products, nerve_lp

F = Fraction
SRC = str(Path(wordnerve.__file__).parents[1])


def wheel5():
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]
    return from_edge_list(edges + [(v, "6") for v in "12345"])


def random_general_position_extras(rng, config, count):
    """Extras in general position with the configuration (2D)."""

    def collinear(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])

    pts = list(config.points)
    extras = []
    span = len(config.points) + 2
    while len(extras) < count:
        cand = (
            F(rng.randint(-3 * span, 3 * span), rng.randint(1, 5)),
            F(rng.randint(-span * span, 3 * span * span), rng.randint(1, 5)),
        )
        if cand in pts:
            continue
        if any(collinear(a, b, cand) for a, b in combinations(pts, 2)):
            continue
        pts.append(cand)
        extras.append(cand)
    return extras


def test_realize_basics():
    cfg = realize_on_moment_curve(word("abab"), 2)
    assert cfg.points == (
        moment_point(1, 2), moment_point(2, 2), moment_point(3, 2), moment_point(4, 2)
    )
    assert cfg.colors == ("a", "b", "a", "b")
    classes = cfg.classes()
    assert hulls_intersect([classes["a"], classes["b"]])


def test_realize_obs_fixture_in_r3():
    cfg = realize_on_moment_curve(word("12121"), 3)
    classes = cfg.classes()
    assert hulls_intersect([classes["1"], classes["2"]])
    cfg2 = realize_on_moment_curve(word("11212"), 3)
    classes2 = cfg2.classes()
    assert not hulls_intersect([classes2["1"], classes2["2"]])


def test_config_refuses_inexact_coordinates():
    # a float such as 0.1 * 0.1 is not 1/100, and a bool or a string is no
    # coordinate: each is refused by name before any verdict reads it
    for bad in (0.5, 0.1 * 0.1, True, "1"):
        points = ((F(1, 10), F(1, 100), F(1, 1000)), (F(1), bad, F(1)))
        with pytest.raises(DegenerateInputError, match=r"inexact coordinate .* in point \(1, "):
            ColoredConfig(points, ("a", "b"))
    with pytest.raises(DegenerateInputError):
        nerve(ColoredConfig(((0.1, 0.1 * 0.1, 0.1**3), (0.2, 0.04, 0.008)), ("a", "b")), 2)
    ints = ColoredConfig(((1, 1), (2, 4), (3, 9)), ("a", "b", "a"))  # the planar copies
    assert _curve_order(ints) == [0, 1, 2]


def test_config_refuses_points_without_coordinates():
    # a point of R^0 has no first coordinate for `_curve_order` to read: it
    # is refused where the configuration is built, from code or from a file
    with pytest.raises(DegenerateInputError, match="at least one coordinate"):
        ColoredConfig(((),), ("a",))
    doc = {"dimension": 0, "points": [[]], "colors": ["a"]}
    with pytest.raises(DegenerateInputError, match="at least one coordinate"):
        formats.config_from_doc(doc)


def test_curve_order_matches_fraction_products():
    # curve configurations in shuffled order, then the same with one
    # coordinate of one point moved by 1/q, q the denominator of its t
    rng = random.Random(21)
    moved_off = 0
    for case in range(400):
        d = case % 6 + 1
        size, pool = rng.randint(1, 12), set()
        while len(pool) < size:
            pool.add(F(rng.randint(-40, 40), rng.choice([1, rng.randint(1, 12)])))
        points = [moment_point(t, d) for t in pool]
        rng.shuffle(points)
        colors = tuple(f"c{rng.randrange(3)}" for _ in points)
        cfg = ColoredConfig(tuple(points), colors)
        assert _curve_order(cfg) == curve_order_products(cfg) is not None
        i, k = rng.randrange(len(points)), rng.randrange(d)
        p = points[i]
        points[i] = p[:k] + (p[k] + F(1, p[0].denominator),) + p[k + 1 :]
        if len(set(points)) == len(points):
            moved = ColoredConfig(tuple(points), colors)
            order = _curve_order(moved)
            assert order == curve_order_products(moved)
            moved_off += order is None
    assert moved_off > 250


def test_nerve_of_distinct_letters_is_fast():
    # one sweep of the word finds the pairs: no pair scans the whole word
    for k, bound in ((300, 0.05), (600, 0.2)):
        cfg = realize_on_moment_curve(Word(tuple(f"c{i}" for i in range(k))), 2)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            faces = nerve(cfg, 2).complex.faces_of_size(2)
            best = min(best, time.perf_counter() - start)
        assert faces == [] and best < bound, (k, best)


def test_nerve_two_crossing_segments():
    cfg = ColoredConfig(
        (point((0, 0)), point((0, 2)), point((2, 2)), point((2, 0))),
        ("a", "b", "a", "b"),
    )
    result = nerve(cfg, 2)
    assert result.complex.faces == frozenset(
        {frozenset(["a"]), frozenset(["b"]), frozenset(["a", "b"])}
    )


def test_nerve_three_pairwise_crossing_segments_no_triple():
    cfg = ColoredConfig(
        (
            point((0, 0)), point((6, 0)),            # a: the x-axis piece
            point((0, -1)), point((3, 5)),           # b: crosses a at (1/2, 0)
            point((6, -1)), point((F(14, 5), 5)),    # c: crosses a and b elsewhere
        ),
        ("a", "a", "b", "b", "c", "c"),
    )
    result = nerve(cfg, 2)
    assert result.complex.faces_of_size(2) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert result.complex.faces_of_size(3) == []


def test_nerve_wheel_word_skeleton():
    cfg = realize_on_moment_curve(word("156216326436546"), 2)
    result = nerve(cfg, 1)
    assert one_skeleton(result.complex) == wheel5()


def test_figure_fixture_nine_points_three_colors():
    colors = {1: "b", 2: "b", 6: "b", 3: "r", 5: "r", 7: "r", 4: "g", 8: "g", 9: "g"}
    cfg = ColoredConfig(
        tuple(moment_point(t, 3) for t in range(1, 10)),
        tuple(colors[t] for t in range(1, 10)),
    )
    result = nerve(cfg, 2)
    # oracle self-consistency: permuting the points cannot change the nerve
    rng = random.Random(30)
    order = list(range(9))
    for _ in range(5):
        rng.shuffle(order)
        permuted = ColoredConfig(
            tuple(cfg.points[i] for i in order), tuple(cfg.colors[i] for i in order)
        )
        assert nerve(permuted, 2).complex == result.complex


def test_realized_nerve_skeleton_examples():
    c5 = from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")])
    w_c5 = word_from_chord_diagram(
        ChordDiagram(("1", "5", "2", "1", "3", "2", "4", "3", "5", "4"))
    )
    k22 = from_edge_list([(v, u) for v in ("v1", "v2") for u in ("u1", "u2")])
    w_k22, d_k22 = word_bipartite(k22)
    assert d_k22 == 2
    p3 = from_edge_list([("a", "b"), ("b", "c")])

    cases = [
        (c5, w_c5, 2),
        (k22, w_k22, d_k22),
        (p3, word("ababcb"), 1),
        (wheel5(), word("156216326436546"), 2),
    ]
    for g, w, d in cases:
        complex_ = nerve(realize_on_moment_curve(w, d), 2).complex
        assert one_skeleton(complex_) == g
        if is_triangle_free(g):
            assert not complex_.faces_of_size(3)


ROADMAP_WORD = word("a b c a b b c c e b c d e b c c")
ROADMAP_PARAMS = [F(t) for t in (
    "-777/20 -809/47 -353/40 11/3 454/43 148/13 92/5 311/14 "
    "455/16 729/25 695/22 982/31 847/10 782/5 280 875"
).split()]


def test_two_faces_depend_on_curve_parameters():
    # Only the 1-skeleton is a function of the word; {a, b, c} becomes a
    # 2-face when the same word sits at other increasing parameters.
    default = nerve(realize_on_moment_curve(ROADMAP_WORD, 2), 2).complex
    moved = nerve(realize_on_moment_curve(ROADMAP_WORD, 2, ROADMAP_PARAMS), 2).complex
    assert default.faces_of_size(3) == [("b", "c", "e")]
    assert moved.faces_of_size(3) == [("a", "b", "c"), ("b", "c", "e")]
    assert one_skeleton(moved) == one_skeleton(default)


def shuffled(cfg, rng):
    order = list(range(len(cfg.points)))
    rng.shuffle(order)
    return ColoredConfig(tuple(cfg.points[i] for i in order), tuple(cfg.colors[i] for i in order))


def test_breen_pair_layer_matches_lp():
    """On the curve the pairs come from Breen's run count; the nerve must
    equal the all-LP nerve at parameters 1..N, at random increasing
    rationals with negatives, and with the points shuffled."""
    rng = random.Random(38)
    cases = [(ROADMAP_WORD, 2, None), (ROADMAP_WORD, 2, ROADMAP_PARAMS)]
    while len(cases) < 400:
        k = rng.randint(2, 5)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(rng.randint(k, 14))]
        if len(set(seq)) < k:
            continue
        params = None
        if len(cases) % 2:
            pool = set()
            while len(pool) < len(seq):
                pool.add(F(rng.randint(-60, 60), rng.randint(1, 9)))
            params = sorted(pool)
        cases.append((Word(tuple(seq)), len(cases) % 5 + 1, params))
    for w, d, params in cases:
        cfg = realize_on_moment_curve(w, d, params)
        expected = nerve_lp(cfg, 2).complex
        assert nerve(cfg, 2).complex == expected
        assert nerve(shuffled(cfg, rng), 2).complex == expected


def count_hull_tests(monkeypatch, module, name="hulls_intersect") -> Counter:
    """Count the module's calls of the hull test `name` by number of
    classes: a list of classes, or one hull per class as arguments."""
    calls: Counter = Counter()
    real = getattr(module, name)

    def counted(*args):
        calls[len(args) if len(args) > 1 else len(args[0])] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_curve_configurations_skip_the_pair_lp(monkeypatch):
    lib = count_hull_tests(monkeypatch, nerve_lib)
    ref = count_hull_tests(monkeypatch, oracles, "_hull_lp")
    cfg = realize_on_moment_curve(ROADMAP_WORD, 2, ROADMAP_PARAMS)
    assert nerve(cfg, 2).complex == nerve_lp(cfg, 2).complex
    assert lib[2] == 0 and ref[2] > 0
    assert lib[3] == ref[3] > 0

    # one coordinate off the curve: every pair is tested again, by
    # separating axes on two kept hulls, and the triples run the LP
    p = cfg.points[5]
    off = ColoredConfig(
        cfg.points[:5] + ((p[0], p[1] + F(1, 1000)),) + cfg.points[6:], cfg.colors
    )
    assert _curve_order(off) is None
    pairs = count_hull_tests(monkeypatch, nerve_lib, "_planar_hulls_meet")
    lib.clear()
    ref.clear()
    assert nerve(off, 2).complex == nerve_lp(off, 2).complex
    assert pairs == {2: ref[2]} and ref[2] > 0
    assert lib == {3: ref[3]} and ref[3] > 0


def test_off_curve_nerves_match_the_lp_oracle(monkeypatch):
    """Seeded configurations off the curve at d = 2..4 (at d = 1 every
    point is a curve point): the faces of `nerve` up to triangles are
    those of the LP oracle.  In the plane many classes have interior
    points, so the pairs compare two kept hulls and the triples run the LP
    on hull vertices, fewer points than the classes hold."""
    rng = random.Random(50)
    triples = count_hull_tests(monkeypatch, nerve_lib)
    seen = Counter()
    for case in range(150):
        d = case % 3 + 2
        k = rng.randint(2, 4)
        n = rng.randint(4 * d, 8 * d)
        pts: set = set()
        while len(pts) < n:
            pts.add(tuple(F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(d)))
        colors = [f"c{i}" for i in range(k)] + [f"c{rng.randrange(k)}" for _ in range(n - k)]
        cfg = ColoredConfig(tuple(sorted(pts)), tuple(colors))
        assert _curve_order(cfg) is None
        triples.clear()
        assert nerve(cfg, 2).complex == nerve_lp(cfg, 2).complex, case
        if triples[3]:
            seen[d] += 1
            seen["plane, interior points"] += d == 2 and any(
                len(nerve_lib._hull_2d(c)) < len(c) for c in cfg.classes().values())
    assert min(seen[d] for d in (2, 3, 4)) > 10 and seen["plane, interior points"] > 10


def test_curve_nerve_takes_any_color_label():
    # configuration colors need not be word tokens
    cfg = ColoredConfig(
        tuple(moment_point(t, 2) for t in (1, 2, 3, 4)), ("a b", "c#", "a b", "c#")
    )
    assert _curve_order(cfg) == [0, 1, 2, 3]
    result = nerve(cfg, 2).complex
    assert result.faces_of_size(2) == [("a b", "c#")]
    assert result == nerve_lp(cfg, 2).complex


def test_pipeline_identity_random_words():
    rng = random.Random(31)
    done = 0
    while done < 60:
        k = rng.randint(1, 6)
        length = rng.randint(k, 14)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(length)]
        if len(set(seq)) < k:
            continue
        w = Word(tuple(seq))
        d = rng.randint(1, 4)
        g = induced_graph_general(w, d)
        cfg = realize_on_moment_curve(w, d)
        result = nerve(cfg, 2)
        assert one_skeleton(result.complex) == g
        if is_triangle_free(g):
            assert result.complex.faces_of_size(3) == []
        done += 1


def test_order_type_transfer():
    rng = random.Random(32)
    for _ in range(20):
        k = rng.randint(2, 4)
        length = rng.randint(k, 10)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(length)]
        if len(set(seq)) < k:
            continue
        w = Word(tuple(seq))
        d = rng.randint(1, 3)
        pool = set()
        while len(pool) < length:
            pool.add(F(rng.randint(-40, 80), rng.randint(1, 7)))
        cfg_int = realize_on_moment_curve(w, d)
        cfg_rat = realize_on_moment_curve(w, d, params=sorted(pool))
        assert (
            one_skeleton(nerve(cfg_int, 1).complex)
            == one_skeleton(nerve(cfg_rat, 1).complex)
        )


# -- planar extension --------------------------------------------------------


def test_extend_2d_disjoint_two_colors():
    cfg = ColoredConfig(
        (point((0, 0)), point((1, 3)), point((5, 4)), point((6, 0))),
        ("a", "a", "b", "b"),
    )
    extras = [point((-1, 1)), point((7, 1))]
    ext = extend_coloring_2d(cfg, extras)
    assert ext.colors[: len(cfg.colors)] == cfg.colors
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex


def test_extend_2d_intersecting_two_colors_interior_extra():
    cfg = ColoredConfig(
        (point((0, 0)), point((0, 2)), point((2, 2)), point((2, 0))),
        ("a", "b", "a", "b"),
    )
    ext = extend_coloring_2d(cfg, [point((1, F(4, 3)))])
    assert ext.colors[-1] == "b"  # everything outside class 1 takes color 2
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex


def test_extend_2d_c4_plus_extras():
    c4 = from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    dgm = ChordDiagram(("1", "4", "2", "1", "3", "2", "4", "3"))
    w = word_from_chord_diagram(dgm)
    assert induced_graph_general(w, 2) == c4
    cfg = realize_on_moment_curve(w, 2)
    rng = random.Random(33)
    extras = random_general_position_extras(rng, cfg, 5)
    ext = extend_coloring_2d(cfg, extras)
    assert one_skeleton(nerve(ext, 2).complex) == c4


def test_extend_2d_rejects_bad_inputs():
    cfg = ColoredConfig(
        (point((0, 0)), point((1, 0)), point((0, 1))), ("a", "b", "c")
    )
    with pytest.raises(DegenerateInputError):
        extend_coloring_2d(cfg, [point((2, 0))])  # collinear with two points
    with pytest.raises(DegenerateInputError):
        extend_coloring_2d(cfg, [point((0, 0))])  # duplicate
    inner = ColoredConfig(
        (point((0, 0)), point((6, 0)), point((3, 5)), point((3, 2))),
        ("a", "b", "c", "d"),
    )
    with pytest.raises(DegenerateInputError):
        extend_coloring_2d(inner, [point((1, 1))])  # not convex position


def test_extend_2d_random_triangle_free_colorings():
    rng = random.Random(34)
    done = 0
    while done < 40:
        k = rng.randint(2, 5)
        length = rng.randint(k, 12)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(length)]
        if len(set(seq)) < k:
            continue
        w = Word(tuple(seq))
        g = induced_graph_general(w, 2)
        if not is_triangle_free(g):
            continue
        cfg = realize_on_moment_curve(w, 2)
        extras = random_general_position_extras(rng, cfg, rng.randint(1, 5))
        ext = extend_coloring_2d(cfg, extras)
        assert ext.colors[: len(cfg.colors)] == cfg.colors
        assert nerve(ext, 2).complex == nerve(cfg, 2).complex
        done += 1


def random_triangle_free_word(rng) -> Word:
    """2 to 5 colors, all used, with a triangle-free level-2 graph."""
    while True:
        k = rng.randint(2, 5)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(rng.randint(k, 10))]
        w = Word(tuple(seq))
        if len(set(seq)) == k and is_triangle_free(induced_graph_general(w, 2)):
            return w


def assert_extend_2d_matches_reference(cfg, extras):
    expected = assign_extras_2d_reference(cfg.classes(), nerve(cfg, 2).complex, extras)
    ext = extend_coloring_2d(cfg, extras)
    assert ext.colors[len(cfg.colors):] == tuple(expected[i] for i in range(len(extras)))


def test_extend_2d_matches_reference_line_search():
    """The support-line generator colors every extra as the earlier line
    search (direction pool built up front, every line tested against
    every point of the other classes) did."""
    rng = random.Random(35)
    for _ in range(300):
        cfg = realize_on_moment_curve(random_triangle_free_word(rng), 2)
        extras = random_general_position_extras(rng, cfg, rng.randint(1, 20))
        assert_extend_2d_matches_reference(cfg, extras)


def test_planar_extension_peels_120_colors_under_a_recursion_limit_of_100():
    """The peel loop keeps no Python frame per color.  A child interpreter
    extends a 120-color realization over two extras with at most 100
    frames.  The labels are zero-padded, so label order is curve order and
    each peel takes the first color it tries; the colors are those the
    recursive reference search gives at the default limit, which takes
    seconds to rebuild every pairwise direction for each color."""
    labels = tuple(f"c{i:03}" for i in range(120))
    extras = [(F(1, 3), F(1, 7)), (F(60), F(7201, 2))]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = ("import sys\n"
             "sys.setrecursionlimit(100)\n"
             "from fractions import Fraction\n"
             "from wordnerve.nerve import extend_coloring_2d, realize_on_moment_curve\n"
             "from wordnerve.words import Word\n"
             f"cfg = realize_on_moment_curve(Word({labels!r}), 2)\n"
             f"print(*extend_coloring_2d(cfg, {extras!r}).colors[120:])\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["c000", "c060"]


def test_extend_2d_matches_reference_on_rational_inputs():
    """The line search runs on one integer-scaled copy of the points.  At
    random increasing rational parameters (negatives included) and with
    extras of denominators up to 100, the scale is far from 1, and the
    colors must still be the `Fraction` reference search's."""
    rng = random.Random(39)
    for _ in range(150):
        w = random_triangle_free_word(rng)
        pool = set()
        while len(pool) < len(w):
            pool.add(F(rng.randint(-90, 90), rng.randint(1, 12)))
        cfg = realize_on_moment_curve(w, 2, sorted(pool))
        pts = list(cfg.points)
        extras = []
        count = rng.randint(1, 12)
        while len(extras) < count:
            den = rng.randint(1, 100)
            cand = (F(rng.randint(-8 * den, 8 * den), den),
                    F(rng.randint(-den, 60 * den), den))
            if cand in pts or any(
                (b[0] - a[0]) * (cand[1] - a[1]) == (b[1] - a[1]) * (cand[0] - a[0])
                for a, b in combinations(pts, 2)
            ):
                continue
            pts.append(cand)
            extras.append(cand)
        assert_extend_2d_matches_reference(cfg, extras)


def test_extend_2d_rejects_a_filled_hollow_triangle():
    # c0, c1 and c3 meet pairwise but share no point; the extension keeps
    # every pair verdict, and the grown classes do share a point
    cfg = realize_on_moment_curve(word("c0 c3 c1 c0 c1 c0 c2 c3 c1"), 2)
    before = nerve(cfg, 2).complex
    assert {("c0", "c1"), ("c0", "c3"), ("c1", "c3")} <= set(before.faces_of_size(2))
    assert not before.faces_of_size(3)
    with pytest.raises(DegenerateInputError, match="hollow triangle c0 c1 c3: "):
        extend_coloring_2d(cfg, [point(p) for p in (("-4", "6"), ("-3/2", "11"), ("8", "269"))])


# -- bipartite extension ------------------------------------------------------


def bipartite_fixture(edges):
    g = from_edge_list(edges)
    w, d = word_bipartite(g)
    return g, w, d, realize_on_moment_curve(w, d)


def random_extras_rd(rng, d, span, count, forbidden):
    extras = []
    while len(extras) < count:
        cand = tuple(
            F(rng.randint(-2 * span, span * span), rng.randint(1, 7)) for _ in range(d)
        )
        if cand in forbidden or cand in extras:
            continue
        extras.append(cand)
    return extras


def test_extend_bipartite_k12_line():
    g, w, d, cfg = bipartite_fixture([("v1", "u1"), ("v1", "u2")])
    assert d == 1
    extras = [(F(-5),), (F(2, 3),), (F(100),)]
    ext = extend_coloring_bipartite(g, w, cfg, extras)
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex
    assert ext.colors[: len(cfg.colors)] == cfg.colors
    assert set(ext.colors[len(cfg.colors):]) <= {"u1", "u2", "v1"}


def test_extend_bipartite_k22():
    g, w, d, cfg = bipartite_fixture([(v, u) for v in ("v1", "v2") for u in ("u1", "u2")])
    rng = random.Random(35)
    extras = random_extras_rd(rng, d, len(w), 6, set(cfg.points))
    ext = extend_coloring_bipartite(g, w, cfg, extras)
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex


def test_extend_bipartite_k23():
    g, w, d, cfg = bipartite_fixture(
        [(v, u) for v in ("v1", "v2") for u in ("u1", "u2", "u3")]
    )
    rng = random.Random(36)
    extras = random_extras_rd(rng, d, len(w), 5, set(cfg.points))
    ext = extend_coloring_bipartite(g, w, cfg, extras)
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex


def test_extend_bipartite_extra_inside_hull_stays_safe():
    # an extra placed inside conv(all config points) must still be regioned
    g, w, d, cfg = bipartite_fixture(
        [("v1", "u1"), ("v1", "u2"), ("v2", "u2"), ("v2", "u3")]
    )
    centroid = tuple(
        sum(p[i] for p in cfg.points) / len(cfg.points) for i in range(d)
    )
    ext = extend_coloring_bipartite(g, w, cfg, [centroid])
    assert nerve(ext, 2).complex == nerve(cfg, 2).complex


def test_extend_bipartite_rejects_isolated_vertices():
    g = from_edge_list([("v1", "u1")], ["z"])
    w, d = word_bipartite(g)
    cfg = realize_on_moment_curve(w, d)
    with pytest.raises(DegenerateInputError):
        extend_coloring_bipartite(g, w, cfg, [(F(1, 2),)])


def test_extend_bipartite_rejects_on_hyperplane_extra():
    g, w, d, cfg = bipartite_fixture([("v1", "u1"), ("v1", "u2")])
    # d = 1: the separator hyperplane is the single point x(7/2)
    with pytest.raises(DegenerateInputError):
        extend_coloring_bipartite(g, w, cfg, [(F(7, 2),)])


def test_extend_bipartite_rejects_mismatched_word():
    g, w, d, cfg = bipartite_fixture([("v1", "u1"), ("v1", "u2")])
    other = Word(tuple(reversed(w.letters)))
    with pytest.raises(DegenerateInputError):
        extend_coloring_bipartite(g, other, cfg, [(F(1, 3),)])


def test_extend_bipartite_random_graphs():
    rng = random.Random(37)
    done = 0
    while done < 20:
        nv = rng.randint(1, 3)
        nu = rng.randint(nv, 4)
        vs = [f"v{i}" for i in range(nv)]
        us = [f"u{j}" for j in range(nu)]
        edges = [(v, u) for v in vs for u in us if rng.random() < 0.55]
        if any(all((v, u) not in edges for u in us) for v in vs):
            continue
        if any(all((v, u) not in edges for v in vs) for u in us):
            continue
        g = from_edge_list(edges)
        w, d = word_bipartite(g)
        cfg = realize_on_moment_curve(w, d)
        extras = random_extras_rd(rng, d, len(w), rng.randint(1, 6), set(cfg.points))
        try:
            ext = extend_coloring_bipartite(g, w, cfg, extras)
        except DegenerateInputError:
            continue  # extra exactly on a hyperplane; rejection is correct
        assert ext.colors[: len(cfg.colors)] == cfg.colors
        assert nerve(ext, 2).complex == nerve(cfg, 2).complex
        done += 1


# -- curve-gap certificates and the re-check ----------------------------------


def test_curve_separator_strictly_separates_every_non_face_pair():
    rng = random.Random(39)
    pairs = 0
    for case in range(300):
        k = rng.randint(2, 6)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(rng.randint(max(4, k), 20))]
        if len(set(seq)) < 2:
            continue
        d = case % 5 + 1
        params = None
        if case % 2:
            pool = set()
            while len(pool) < len(seq):
                pool.add(F(rng.randint(-60, 60), rng.randint(1, 9)))
            params = sorted(pool)
        cfg = realize_on_moment_curve(Word(tuple(seq)), d, params)
        if case % 3 == 0:
            cfg = shuffled(cfg, rng)
        # the integer form: points times the lcm of their denominators,
        # which is far from 1 at rational parameters
        scale, ints = _integer_copy(cfg.points)
        classes = ColoredConfig(tuple(ints), cfg.colors).classes()
        given = cfg.classes()
        for a, b in combinations(cfg.color_labels, 2):
            if oracles.dp_max_alternation(seq, a, b) >= d + 2:
                continue
            normal, offset2 = _curve_separator(cfg, _curve_order(cfg), ints, a, b)
            assert type(offset2) is int and all(type(n) is int for n in normal)
            va = [sum(n * x for n, x in zip(normal, p)) for p in classes[a]]
            vb = [sum(n * x for n, x in zip(normal, p)) for p in classes[b]]
            assert 2 * max(va) < offset2 < 2 * min(vb)
            assert offset2 == max(va) + min(vb)
            # the same hyperplane strictly between the given classes, midway
            va = [sum(n * x for n, x in zip(normal, p)) for p in given[a]]
            vb = [sum(n * x for n, x in zip(normal, p)) for p in given[b]]
            assert max(va) < F(offset2, 2 * scale) < min(vb)
            assert F(offset2, 2 * scale) == (max(va) + min(vb)) / 2
            pairs += 1
    assert pairs > 300


def random_bipartite_instance(rng, d):
    """A bipartite graph whose smaller part has d vertices, none isolated,
    with its moment-curve coloring and 1-5 extras, some inside hulls."""
    while True:
        vs = [f"v{i}" for i in range(d)]
        us = [f"u{j}" for j in range(rng.randint(d, d + 2))]
        edges = [(v, u) for v in vs for u in us if rng.random() < 0.5]
        if {v for v, _ in edges} == set(vs) and {u for _, u in edges} == set(us):
            break
    g, w, d, cfg = bipartite_fixture(edges)
    extras = random_extras_rd(rng, d, len(w), rng.randint(0, 3), set(cfg.points))
    classes = list(cfg.classes().values())
    while len(extras) < 5 and rng.random() < 0.7:
        pts = rng.sample(classes, 1)[0] if rng.random() < 0.5 else rng.sample(cfg.points, 3)
        mean = tuple(sum(p[i] for p in pts) / len(pts) for i in range(d))
        if mean not in cfg.points and mean not in extras:
            extras.append(mean)
    return g, w, cfg, extras


def extend_colors(g, w, cfg, extras):
    try:
        return extend_coloring_bipartite(g, w, cfg, extras).colors
    except DegenerateInputError as exc:
        return str(exc)


def test_live_certificates_keep_their_pairs_apart(monkeypatch):
    """Every certificate still live after an extension has its class
    strictly below it and the other class strictly above, and a retired
    one is retired both ways.  Some certificates are built, some retired."""
    built = invalidated = 0

    class Counted(_Separations):
        def __init__(self, config, ints, before):
            super().__init__(config, ints, before)
            made.append(self)

    rng = random.Random(40)
    for case in range(200):
        d = (1, 1, 2, 2, 2, 3, 3, 4)[case % 8]
        g, w, cfg, extras = random_bipartite_instance(rng, d)
        made = []
        monkeypatch.setattr(nerve_lib, "_Separations", Counted)
        # a hull test wrongly skipped leaves a non-face pair that meets;
        # classes only grow, so the re-check every extension runs raises
        extend_colors(g, w, cfg, extras)
        for sep in made:
            for c, row in sep.certs.items():
                for x, cert in row.items():
                    built += c < x
                    if cert is None:
                        invalidated += c < x
                        assert sep.certs[x][c] is None
                        continue
                    normal, offset2 = cert
                    assert sep.certs[x][c] == (tuple(-n for n in normal), -offset2)
                    for p in sep.classes[c]:
                        assert 2 * sum(n * v for n, v in zip(normal, p)) < offset2
    assert built > 0 and invalidated > 0


HULL_TESTS = ("hulls_intersect", "_planar_hulls_meet")


def routed(monkeypatch, run, scale):
    """The colors of the extras or the error, and the hull tests run
    through `nerve.hulls_intersect` (on classes) and
    `nerve._planar_hulls_meet` (on two hulls) in order, each under its
    name.  A point of ints only is one of the extension's integer copy,
    and is recorded divided by `scale`."""
    tested = []
    reals = {name: getattr(nerve_lib, name) for name in HULL_TESTS}

    def recording(name):
        def recorded(*args):
            tested.append((name, [
                [p if any(type(x) is not int for x in p) else tuple(F(x, scale) for x in p)
                 for p in cls]
                for cls in (args if len(args) > 1 else args[0])
            ]))
            return reals[name](*args)
        return recorded

    for name in HULL_TESTS:
        monkeypatch.setattr(nerve_lib, name, recording(name))
    try:
        out = run().colors
    except (DegenerateInputError, ExtensionError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    finally:
        for name, real in reals.items():
            monkeypatch.setattr(nerve_lib, name, real)
    return out, tested


def denominators_lcm(points) -> int:
    return math.lcm(*[x.denominator for p in points for x in p])


def on_separator(rng, layout, d):
    """A point with denominators up to 9 in all coordinates but one, on the
    hyperplane that splits off a random u-color's blocks."""
    j = rng.randint(1, len(layout.u_labels) - 1)
    h = hyperplane_through_moment_points(nerve_lib._separator_params(layout, j), d)
    k = next(i for i, a in enumerate(h.normal) if a)
    p = [F(rng.randint(-90, 900), rng.randint(1, 9)) for _ in range(d)]
    p[k] = 0
    p[k] = F(h.offset - sum(a * x for a, x in zip(h.normal, p)), h.normal[k])
    return tuple(p)


def test_bipartite_extension_matches_the_fraction_route(monkeypatch):
    """On one integer copy the bipartite extension colors every extra, runs
    every hull test on the same points in the same order, and fails with
    the same message as the route that decided on the given `Fraction`
    points.  In the plane both routes test pairs by
    `_planar_hulls_meet`, the library on the hulls it keeps, the route on
    hulls it builds for the test.  Extras have denominators up to 9; some
    are means of points of one or two classes, where certificates fail and
    hull tests run, and some lie exactly on a separator hyperplane."""
    rng = random.Random(44)
    outcomes = Counter()
    for case in range(150):
        d = case % 5 + 1
        g, w, cfg, _ = random_bipartite_instance(rng, d)
        layout = bipartite_layout(g)
        extras = []
        for _ in range(rng.randint(1, 7 if d < 4 else 4)):
            roll = rng.random()
            if roll < 0.4:
                e = tuple(F(rng.randint(-2 * len(w) * 9, len(w) ** 2 * 9), rng.randint(1, 9))
                          for _ in range(d))
            elif roll < 0.9 or len(layout.u_labels) < 2:
                pts = rng.sample(cfg.points, rng.randint(2, 3))
                e = tuple(sum(p[i] for p in pts) / len(pts) + F(rng.randint(-9, 9), 9)
                          for i in range(d))
            else:
                e = on_separator(rng, layout, d)
            if e not in cfg.points and e not in extras:
                extras.append(e)
        scale = denominators_lcm(extras)
        got = routed(monkeypatch, lambda: extend_coloring_bipartite(g, w, cfg, extras), scale)
        expected = routed(
            monkeypatch, lambda: oracles.extend_bipartite_fractions(g, w, cfg, extras), scale)
        assert got == expected, (case, d, extras)
        outcomes[isinstance(got[0], str), scale > 1] += 1
    # colorings and rejections, nearly all on a copy scaled by more than 1
    assert outcomes[False, True] > 100 and outcomes[True, True] > 5


def test_planar_extension_matches_the_eager_line_search(monkeypatch):
    """The planar extension tests the extras only on admissible lines; every
    color must be that of `assign_extras_2d_reference`, which drops each
    line through an extra before its admissibility test.  Each instance
    gets one extra on the line the extension keeps without it, so that
    line must give way to the next."""
    rng = random.Random(45)
    kept = []
    real_lines = nerve_lib._support_lines

    def recording(own, class_points):
        for line in real_lines(own, class_points):
            kept.append((len(class_points), line))
            yield line

    moved = 0
    for case in range(300):
        w = random_triangle_free_word(rng)
        params = None
        if case % 2:
            pool = set()
            while len(pool) < len(w):
                pool.add(F(rng.randint(-60, 60), rng.randint(1, 9)))
            params = sorted(pool)
        cfg = realize_on_moment_curve(w, 2, params)
        extras = random_general_position_extras(rng, cfg, rng.randint(0, 6))
        kept.clear()
        monkeypatch.setattr(nerve_lib, "_support_lines", recording)
        extend_coloring_2d(cfg, extras)
        monkeypatch.setattr(nerve_lib, "_support_lines", real_lines)
        top = [line for size, line in kept if size == len(cfg.color_labels)]
        if top:
            (a, b), offset, _ = top[-1]
            pts = list(cfg.points) + extras
            scale = denominators_lcm(pts)
            for _ in range(20):  # a point on the kept line, off every other
                x = F(rng.randint(-90, 90), rng.randint(1, 9))
                e = (x, (F(offset, scale) - a * x) / b) if b else (F(offset, scale * a), x)
                if e not in pts and not any(
                    (q[0] - p[0]) * (e[1] - p[1]) == (q[1] - p[1]) * (e[0] - p[0])
                    for p, q in combinations(pts, 2)
                ):
                    extras.insert(rng.randint(0, len(extras)), e)
                    moved += 1
                    break
        assert_extend_2d_matches_reference(cfg, extras)
    assert moved > 100


def test_recheck_tests_only_candidates_that_could_be_gained(monkeypatch):
    # classes only grow, so the hull tests run on the non-faces of the
    # original nerve whose proper subsets are faces and which hold a class
    # that gained an extra, and never on one of its faces
    rng = random.Random(41)
    extended = []
    for d in (1, 2, 2, 3):
        g, w, cfg, extras = random_bipartite_instance(rng, d)
        extended.append((cfg, extend_coloring_bipartite(g, w, cfg, extras)))
    for seq in ("c0 c1 c2 c0 c1 c3 c2 c0 c3 c1", "c0 c2 c1 c0 c3 c1 c2 c4 c3 c4"):
        cfg = realize_on_moment_curve(word(seq), 2)
        extras = random_general_position_extras(rng, cfg, 6)
        extended.append((cfg, extend_coloring_2d(cfg, extras)))
    tested = []
    for name in HULL_TESTS:
        real = getattr(nerve_lib, name)
        monkeypatch.setattr(nerve_lib, name, lambda *args, real=real: (
            tested.append(args if len(args) > 1 else args[0]) or real(*args)))
    total = skipped = 0
    for cfg, ext in extended:
        n = len(cfg.points)
        k = nerve(cfg, 2).complex
        _, ints = _integer_copy(ext.points)
        tested.clear()
        result = nerve_lib.NerveResult(k)
        assert _verified_extension(cfg, result, ext.points[n:], ints, ext.colors[n:]) == ext
        color_of = dict(zip(ints, ext.colors))
        faces = sorted(sorted(color_of[cls[0]] for cls in classes) for classes in tested)
        grown = set(ext.colors[n:])
        candidates = [
            sorted(combo) for size in (2, 3) for combo in combinations(k.vertices, size)
            if not k.is_face(combo)
            and all(k.is_face(combo[:i] + combo[i + 1:]) for i in range(size))
        ]
        assert faces == sorted(combo for combo in candidates if grown & set(combo))
        assert not any(k.is_face(face) for face in faces)
        total += len(faces)
        skipped += len(candidates) - len(faces)
    assert total > 0 and skipped > 0


def test_recheck_of_one_grown_class_makes_one_pair_test_per_other_class(monkeypatch):
    """300 single-point classes on the curve have no face but the
    singletons, so all 44,850 pairs are candidates; one extra grows one
    class, and only the 299 pairs holding it can meet."""
    cfg = realize_on_moment_curve(Word(tuple(f"c{i:03d}" for i in range(300))), 2)
    before = nerve(cfg, 2)
    extras, _, ints = nerve_lib._coerce_extras([(F(1, 3), F(1, 7))], cfg)
    pairs = count_hull_tests(monkeypatch, nerve_lib, "_planar_hulls_meet")
    lps = count_hull_tests(monkeypatch, nerve_lib)
    ext = _verified_extension(cfg, before, extras, ints, ["c000"])
    assert ext.colors == cfg.colors + ("c000",)
    assert pairs == {2: 299} and not lps
    pairs.clear()
    assert extend_coloring_2d(cfg, extras) == ext
    assert pairs == {2: 299} and not lps


def spelled(rng, x):
    """The rational x as a Fraction, an int when it is whole, or a
    "p/q" string not always in lowest terms ("2/4" for 1/2)."""
    k = rng.randint(1, 3)
    return rng.choice([x, f"{x.numerator * k}/{x.denominator * k}"]
                      + ([int(x)] if x.denominator == 1 else []))


def test_coerce_extras_raises_what_the_one_pass_reference_raises():
    """Seeded mixes of new extras, repeats (often spelled otherwise),
    configuration points, points of the wrong dimension and bad
    coordinates: `_coerce_extras` returns the reference's points and the
    integer copy of the configuration and them, or raises the error the
    reference raises, class and message.  Both refuse each extra in turn,
    so a repeat that comes before a bad extra wins, also over an extra
    that is not even iterable (a `TypeError`)."""
    rng = random.Random(49)
    outcomes = Counter()
    for case in range(600):
        d = case % 3 + 1
        letters = [f"c{rng.randrange(3)}" for _ in range(rng.randint(2, 8))]
        params = sorted(rng.sample(range(-20, 20), len(letters)))
        cfg = realize_on_moment_curve(Word(tuple(letters)), d, [F(t, 2) for t in params])
        extras, kinds = [], []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.4:
                kind, p = "new", [F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(d)]
            elif roll < 0.6 and "new" in kinds:
                kind, p = "repeat", point(rng.choice(
                    [e for e, k in zip(extras, kinds) if k == "new"]))
            elif roll < 0.75:
                kind, p = "taken", rng.choice(cfg.points)
            elif roll < 0.88:
                kind, p = "bad", [F(1)] * rng.choice([n for n in (0, d - 1, d + 1) if n != d])
            elif roll < 0.95:
                kind, p = "bad", [F(1)] * d
                p[rng.randrange(d)] = rng.choice(["x", 1.5, True, "1e3", "1/0", None])
            else:
                extras.append(rng.choice([5, None, F(1, 2)]))
                kinds.append("not iterable")
                continue
            extras.append([spelled(rng, x) if isinstance(x, Fraction) else x for x in p])
            kinds.append(kind)
        try:
            expected = oracles.coerce_extras_reference(extras, cfg)
        except (DegenerateInputError, TypeError) as exc:
            expected = type(exc), str(exc)
        try:
            got = nerve_lib._coerce_extras(extras, cfg)
        except (DegenerateInputError, TypeError) as exc:
            assert (type(exc), str(exc)) == expected, (case, extras)
            repeat = str(exc).startswith("extra ")
            outcomes["no point" if not repeat else "twice" if "twice" in str(exc) else "taken"] += 1
            outcomes["repeat before a bad extra"] += repeat and "bad" in kinds
            outcomes["repeat before a non-iterable extra"] += repeat and "not iterable" in kinds
        else:
            assert got == (expected, *_integer_copy(list(cfg.points) + expected)), (case, extras)
            outcomes["coerced"] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) > 25


def test_recheck_refuses_an_extra_with_a_new_label():
    cfg = realize_on_moment_curve(word("abab"), 2)
    before = nerve(cfg, 2)
    with pytest.raises(ExtensionError, match="extension changed the nerve"):
        _verified_extension(cfg, before, [(F(9), F(-1))], _integer_copy(cfg.points + ((9, -1),))[1],
                            ["z"])


# -- face candidates ----------------------------------------------------------


class _Reads(dict):
    """A kept-class map that logs each label read, so the classes every
    hull test reads, and their order, can be compared."""

    def __init__(self, kept, log):
        super().__init__(kept)
        self.log = log

    def __getitem__(self, label):
        self.log.append(label)
        return super().__getitem__(label)


def test_face_candidates_match_the_combinations_reference(monkeypatch):
    # candidates grow from the faces one smaller: the sets, their order and
    # so every hull test must be those of walking all label sets of each
    # size, in the one walk of `nerve` and of the re-check of grown classes
    real = nerve_lib._new_faces
    calls = []

    def checked(faces, labels, sizes, kept, grown=None):
        walked, brute = [], []
        out = real(faces, labels, sizes, _Reads(kept, walked), grown)
        assert out == oracles.new_faces_reference(faces, labels, sizes, _Reads(kept, brute), grown)
        assert walked == brute
        calls.append(len(out))
        return out

    monkeypatch.setattr(nerve_lib, "_new_faces", checked)
    rng, pick = random.Random(43), random.Random(44)  # pick draws the grown sets
    in_nerve, in_recheck, in_draws = [], [], []
    for case in range(300):
        k = rng.randint(2, 7)
        seq = [f"c{rng.randrange(k)}" for _ in range(rng.randint(k, 16))]
        d = case % 4 + 1
        cfg = realize_on_moment_curve(Word(tuple(seq)), d)
        if case % 3 == 0:  # off the curve: the pairs are a layer too
            p = cfg.points[0]
            cfg = ColoredConfig(((p[0] + F(1, 7),) + p[1:],) + cfg.points[1:], cfg.colors)
        calls.clear()
        nerve(cfg, rng.randint(1, 3))
        in_nerve += calls
        before = nerve(cfg, 2)
        extras = []
        for _ in range(rng.randint(1, 4)):
            pts = rng.sample(cfg.points, min(3, len(cfg.points)))
            mean = tuple(sum(p[i] for p in pts) / len(pts) for i in range(d))
            if mean not in cfg.points and mean not in extras:
                extras.append(mean)
        colors = [rng.choice(cfg.color_labels) for _ in extras]
        _, ints = _integer_copy(list(cfg.points) + extras)
        calls.clear()
        try:
            _verified_extension(cfg, before, extras, ints, colors)
        except (ExtensionError, DegenerateInputError):
            pass  # a gained face: the candidates were checked on the way
        in_recheck += calls
        grown = set(pick.sample(cfg.color_labels, pick.randint(0, len(cfg.color_labels))))
        kept = nerve_lib._kept_classes(ints[: len(cfg.points)], cfg.colors)
        in_draws.append(len(checked(before.complex.faces, cfg.color_labels, (2, 3), kept, grown)))
    assert len(in_nerve) == 300 and sum(in_nerve) > 200
    assert len(in_recheck) == 300 and sum(in_recheck) > 150
    assert sum(in_draws) == 0  # the classes kept their points: no face is gained


def test_face_candidates_do_not_walk_every_label_set():
    """2,000 labels whose only faces are singletons have no candidate of
    size 3; walking the C(2000, 3), about 1.3e9, label sets to find that
    out would take far past the timeout, even before any hull test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = ("from wordnerve.nerve import _new_faces\n"
             "labels = [f'c{i}' for i in range(2000)]\n"
             "faces = {frozenset([c]) for c in labels}\n"
             "print(_new_faces(faces, labels, (3,), dict.fromkeys(labels)))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_recheck_builds_candidates_linear_in_the_colors(monkeypatch):
    """The one-point colors c0000 ... c1099 on the curve at d = 2 meet in
    no pair, and one extra joins c0000.  The re-check builds only the 1,099
    pairs that hold c0000, not all C(1100, 2) = 604,450 pairs: each
    candidate costs a frozenset or two to look up among the faces, so the
    frozensets built count the candidates."""
    n = 1100
    cfg = realize_on_moment_curve(Word(tuple(f"c{i:04d}" for i in range(n))), 2)
    before = nerve(cfg, 2)
    extras = [(F(0), F(1))]
    _, ints = _integer_copy(list(cfg.points) + extras)
    built = Counter()

    def counted(*args):
        built["frozenset"] += 1
        return frozenset(*args)

    def meets(kept):
        built["hull test"] += 1
        return real_meets(kept)

    real_meets = nerve_lib._meets
    monkeypatch.setattr(nerve_lib, "frozenset", counted, raising=False)
    monkeypatch.setattr(nerve_lib, "_meets", meets)
    grown = _verified_extension(cfg, before, extras, ints, ["c0000"])
    assert grown.colors == cfg.colors + ("c0000",)
    assert built["hull test"] == n - 1
    assert built["frozenset"] < 3 * n, built

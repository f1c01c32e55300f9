import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import wordnerve.nerve as nerve_lib
from wordnerve.encode import ChordDiagram, word_bipartite, word_from_chord_diagram
from wordnerve.geometry import hulls_intersect, moment_point, point
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
from .oracles import assign_extras_2d_reference, nerve_lp

F = Fraction


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


def count_hull_tests(monkeypatch, module) -> Counter:
    """Count the module's `hulls_intersect` calls by number of classes."""
    calls: Counter = Counter()
    real = module.hulls_intersect

    def counted(classes):
        calls[len(classes)] += 1
        return real(classes)

    monkeypatch.setattr(module, "hulls_intersect", counted)
    return calls


def test_curve_configurations_skip_the_pair_lp(monkeypatch):
    lib = count_hull_tests(monkeypatch, nerve_lib)
    ref = count_hull_tests(monkeypatch, oracles)
    cfg = realize_on_moment_curve(ROADMAP_WORD, 2, ROADMAP_PARAMS)
    assert nerve(cfg, 2).complex == nerve_lp(cfg, 2).complex
    assert lib[2] == 0 and ref[2] > 0
    assert lib[3] == ref[3] > 0

    # one coordinate off the curve: the LP settles every pair again
    p = cfg.points[5]
    off = ColoredConfig(
        cfg.points[:5] + ((p[0], p[1] + F(1, 1000)),) + cfg.points[6:], cfg.colors
    )
    assert _curve_order(off) is None
    lib.clear()
    ref.clear()
    assert nerve(off, 2).complex == nerve_lp(off, 2).complex
    assert lib == ref and lib[2] > 0


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
        classes = cfg.classes()
        for a, b in combinations(cfg.color_labels, 2):
            if oracles.dp_max_alternation(seq, a, b) >= d + 2:
                continue
            normal, hi, lo = _curve_separator(cfg, _curve_order(cfg), a, b)
            va = [sum(n * x for n, x in zip(normal, p)) for p in classes[a]]
            vb = [sum(n * x for n, x in zip(normal, p)) for p in classes[b]]
            assert max(va) == hi < lo == min(vb)
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


def test_separations_match_the_lp_only_reference(monkeypatch):
    built = invalidated = 0

    class Counted(_Separations):
        def __init__(self, config, before):
            super().__init__(config, before)
            made.append(self)

    rng = random.Random(40)
    for case in range(200):
        d = (1, 1, 2, 2, 2, 3, 3, 4)[case % 8]
        g, w, cfg, extras = random_bipartite_instance(rng, d)
        made = []
        monkeypatch.setattr(nerve_lib, "_Separations", Counted)
        colors = extend_colors(g, w, cfg, extras)
        monkeypatch.setattr(nerve_lib, "_Separations", oracles.LPSeparations)
        assert colors == extend_colors(g, w, cfg, extras)
        for sep in made:
            pairs = sum(map(len, sep.apart.values())) // 2
            built += pairs
            invalidated += pairs - len(sep.certs)
            for (a, b), (normal, hi, lo) in sep.certs.items():
                va = [sum(n * x for n, x in zip(normal, p)) for p in sep.classes[a]]
                vb = [sum(n * x for n, x in zip(normal, p)) for p in sep.classes[b]]
                assert max(va) == hi < lo == min(vb)
    assert built > 0 and invalidated > 0


def test_recheck_tests_only_candidates_that_could_be_gained(monkeypatch):
    # classes only grow, so the LP runs on the non-faces of the original
    # nerve whose proper subsets are faces, and never on one of its faces
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
    real = nerve_lib.hulls_intersect
    monkeypatch.setattr(
        nerve_lib, "hulls_intersect", lambda classes: tested.append(classes) or real(classes)
    )
    total = 0
    for cfg, ext in extended:
        n = len(cfg.points)
        k = nerve(cfg, 2).complex
        tested.clear()
        result = nerve_lib.NerveResult(k)
        assert _verified_extension(cfg, result, ext.points[n:], ext.colors[n:]) == ext
        color_of = dict(zip(cfg.points, cfg.colors))
        faces = sorted(sorted(color_of[cls[0]] for cls in classes) for classes in tested)
        assert faces == sorted(
            sorted(combo) for size in (2, 3) for combo in combinations(k.vertices, size)
            if not k.is_face(combo)
            and all(k.is_face(combo[:i] + combo[i + 1:]) for i in range(size))
        )
        assert not any(k.is_face(face) for face in faces)
        total += len(faces)
    assert total > 0


def test_recheck_refuses_an_extra_with_a_new_label():
    cfg = realize_on_moment_curve(word("abab"), 2)
    before = nerve(cfg, 2)
    with pytest.raises(ExtensionError, match="extension changed the nerve"):
        _verified_extension(cfg, before, [(F(9), F(-1))], ["z"])

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with
`pytest -s tests/test_acceptance.py` to see them); any failure is an
ordinary assertion failure with context.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from wordnerve.encode import word_any_graph, word_bipartite
from wordnerve.geometry import gale_facets, hulls_intersect, moment_point
from wordnerve.graphs import bipartition, from_edge_list, is_triangle_free, one_skeleton
from wordnerve.nerve import (
    ColoredConfig,
    DegenerateInputError,
    extend_coloring_2d,
    extend_coloring_bipartite,
    nerve,
    realize_on_moment_curve,
)
from wordnerve.search import SearchBudget, find_general_word
from wordnerve.words import Word, induced_graph_general, rotate, word
from wordnerve.oracles import facet_oracle

F = Fraction


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _wheel5():
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]
    return from_edge_list(edges + [(v, "6") for v in "12345"])


def test_acceptance_1_breen_equals_geometry():
    t0 = time.perf_counter()
    checked = 0
    for d in (2, 3, 4):
        for r in range(1, 9):
            params = list(range(1, r + 1))
            for mask in range(1, 1 << (r - 1)):  # each unordered split once
                a = [params[i] for i in range(r) if (mask >> i) & 1]
                b = [t for t in params if t not in a]
                if not a or not b:
                    continue
                from wordnerve.geometry import breen_intersect

                lhs = breen_intersect(a, b, d)
                rhs = hulls_intersect(
                    [[moment_point(t, d) for t in a], [moment_point(t, d) for t in b]]
                )
                assert lhs == rhs, (a, b, d)
                checked += 1
    rng = random.Random(101)
    randomized = 0
    while randomized < 500:
        r = rng.randint(2, 10)
        d = rng.randint(1, 5)
        pool = set()
        while len(pool) < r:
            pool.add(F(rng.randint(-50, 50), rng.randint(1, 8)))
        params = sorted(pool)
        cut = rng.randint(1, r - 1)
        marked = set(rng.sample(params, cut))
        a = [t for t in params if t in marked]
        b = [t for t in params if t not in marked]
        from wordnerve.geometry import breen_intersect

        assert breen_intersect(a, b, d) == hulls_intersect(
            [[moment_point(t, d) for t in a], [moment_point(t, d) for t in b]]
        )
        randomized += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 1 exceeded its runtime target: {elapsed:.1f}s"
    _report(1, f"Breen == exact feasibility on {checked} exhaustive + "
               f"{randomized} randomized instances in {elapsed:.1f}s")


def test_acceptance_2_gale_equals_bruteforce():
    t0 = time.perf_counter()
    cases = 0
    for d in (2, 3, 4):
        for r in range(3, 9):
            if r <= d:
                continue
            assert gale_facets(r, d) == facet_oracle(r, d), (r, d)
            cases += 1
    spot = gale_facets(5, 3)
    assert spot == [(1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    assert facet_oracle(5, 3) == spot
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"criterion 2 exceeded its runtime target: {elapsed:.1f}s"
    _report(2, f"evenness facets == hyperplane-side oracle on {cases} (r, d) pairs, "
               f"spot value C(5,3) confirmed, in {elapsed:.1f}s")


def test_acceptance_3_wheel_word():
    w = word("156216326436546")
    w5 = _wheel5()
    assert induced_graph_general(w, 2) == w5
    # skeleton-level claim
    assert one_skeleton(nerve(realize_on_moment_curve(w, 2), 2).complex) == w5
    _report(3, "the 15-letter wheel word induces W5 at level 2 and its "
               "moment-curve nerve has W5 as 1-skeleton")


def test_acceptance_4_observation_fixture_and_rotation():
    k2 = from_edge_list([("1", "2")])
    assert induced_graph_general(word("12121"), 3) == k2
    g = induced_graph_general(word("11212"), 3)
    assert g.vertices == ("1", "2") and not g.edges
    rng = random.Random(104)
    violations = 0
    for _ in range(1000):
        length = rng.randint(1, 14)
        letters = tuple(rng.choice("abcdef") for _ in range(length))
        w = Word(letters)
        s = rng.randint(0, length)
        if induced_graph_general(rotate(w, s), 2) != induced_graph_general(w, 2):
            violations += 1
    assert violations == 0
    _report(4, "12121/11212 level-3 fixture exact; 1000 random rotations "
               "at level 2, zero violations")


def test_acceptance_5_construction_roundtrips():
    t0 = time.perf_counter()
    exhaustive = 0
    for n in range(1, 6):
        labels = [f"v{i}" for i in range(n)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(
                [pairs[i] for i in range(len(pairs)) if mask >> i & 1], labels
            )
            w, d = word_any_graph(g)
            assert induced_graph_general(w, d) == g
            exhaustive += 1
    rng = random.Random(105)
    for _ in range(200):
        n = rng.randint(1, 9)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.4]
        g = from_edge_list(edges, labels)
        w, d = word_any_graph(g)
        assert induced_graph_general(w, d) == g
    bip = 0
    for n in range(1, 7):
        labels = [f"v{i}" for i in range(n)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(
                [pairs[i] for i in range(len(pairs)) if mask >> i & 1], labels
            )
            if bipartition(g) is None:
                continue
            w, d = word_bipartite(g)
            assert induced_graph_general(w, d) == g
            bip += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion 5 exceeded its runtime target: {elapsed:.1f}s"
    _report(5, f"any-graph encoder exact on {exhaustive} exhaustive + 200 random "
               f"graphs; bipartite encoder exact on {bip} bipartite graphs; "
               f"{elapsed:.1f}s")


def test_acceptance_6_pipeline_identity():
    rng = random.Random(106)
    done = tf = 0
    while done < 300:
        k = rng.randint(1, 6)
        length = rng.randint(k, 14)
        letters = [f"c{i}" for i in range(k)]
        seq = [rng.choice(letters) for _ in range(length)]
        if len(set(seq)) < k:
            continue
        w = Word(tuple(seq))
        d = rng.randint(1, 4)
        g = induced_graph_general(w, d)
        result = nerve(realize_on_moment_curve(w, d), 2)
        assert one_skeleton(result.complex) == g, (w, d)
        if is_triangle_free(g):
            assert result.complex.faces_of_size(3) == [], (w, d)
            tf += 1
        done += 1
    _report(6, f"nerve 1-skeleton == induced graph on 300 random words "
               f"({tf} triangle-free, all with zero 2-faces)")


def _general_position_extras(rng, config, count):
    def collinear(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])

    pts = list(config.points)
    out = []
    span = len(config.points) + 2
    while len(out) < count:
        cand = (
            F(rng.randint(-3 * span, 3 * span), rng.randint(1, 5)),
            F(rng.randint(-span * span, 3 * span * span), rng.randint(1, 5)),
        )
        if cand in pts or any(collinear(a, b, cand) for a, b in combinations(pts, 2)):
            continue
        pts.append(cand)
        out.append(cand)
    return out


def test_acceptance_7_extensions():
    rng = random.Random(107)
    planar = 0
    while planar < 100:
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
        extras = _general_position_extras(rng, cfg, rng.randint(1, 5))
        ext = extend_coloring_2d(cfg, extras)  # raises loudly on any failure
        assert ext.colors[: len(cfg.colors)] == cfg.colors
        assert nerve(ext, 2).complex == nerve(cfg, 2).complex
        planar += 1

    fixed = [
        [("v1", "u1"), ("v1", "u2")],                                   # K_{1,2}
        [(v, u) for v in ("v1", "v2") for u in ("u1", "u2")],           # K_{2,2}
        [(v, u) for v in ("v1", "v2") for u in ("u1", "u2", "u3")],     # K_{2,3}
    ]
    bip = 0
    for edges in fixed:
        g = from_edge_list(edges)
        w, d = word_bipartite(g)
        cfg = realize_on_moment_curve(w, d)
        extras = []
        while len(extras) < 4:
            cand = tuple(
                F(rng.randint(-2 * len(w), len(w) ** 2), rng.randint(1, 7))
                for _ in range(d)
            )
            if cand not in extras and cand not in set(cfg.points):
                extras.append(cand)
        ext = extend_coloring_bipartite(g, w, cfg, extras)
        assert nerve(ext, 2).complex == nerve(cfg, 2).complex
        bip += 1
    randoms = 0
    while randoms < 20:
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
        extras = []
        while len(extras) < rng.randint(1, 6):
            cand = tuple(
                F(rng.randint(-2 * len(w), len(w) ** 2), rng.randint(1, 7))
                for _ in range(d)
            )
            if cand not in extras and cand not in set(cfg.points):
                extras.append(cand)
        try:
            ext = extend_coloring_bipartite(g, w, cfg, extras)
        except DegenerateInputError:
            continue  # extra exactly on a separator hyperplane
        assert ext.colors[: len(cfg.colors)] == cfg.colors
        assert nerve(ext, 2).complex == nerve(cfg, 2).complex
        randoms += 1
    _report(7, f"planar extension preserved the nerve on {planar} instances "
               f"(zero admissibility failures); bipartite extension preserved "
               f"it on K12/K22/K23 and {randoms} random bipartite graphs")


def test_acceptance_8_search_witnesses():
    cases = [
        ("K2", from_edge_list([("a", "b")]), 1, SearchBudget(3, 10, 1_000_000)),
        ("K3", from_edge_list([("a", "b"), ("b", "c"), ("a", "c")]), 1,
         SearchBudget(3, 12, 1_000_000)),
        ("C4", from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")]), 2,
         SearchBudget(3, 14, 2_000_000)),
        ("C5", from_edge_list(
            [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]), 2,
         SearchBudget(3, 16, 5_000_000)),
        ("W5", _wheel5(), 2, SearchBudget(5, 15, 20_000_000)),
    ]
    for name, g, d, budget in cases:
        verdict = find_general_word(g, d, budget)
        assert verdict.found, name
        assert induced_graph_general(verdict.witness, d) == g, name
    w5 = _wheel5()
    budget = SearchBudget(5, 15, 20_000_000)
    v1 = find_general_word(w5, 2, budget, jobs=1)
    v4 = find_general_word(w5, 2, budget, jobs=4)
    assert v1.found and v4.found and v1.witness == v4.witness
    _report(8, "witnesses recovered and verified for K2, K3, C4, C5, W5; "
               "W5 witness identical under 1 and 4 workers")


def test_acceptance_9_nine_point_fixture():
    colors = {1: "b", 2: "b", 6: "b", 3: "r", 5: "r", 7: "r", 4: "g", 8: "g", 9: "g"}
    cfg = ColoredConfig(
        tuple(moment_point(t, 3) for t in range(1, 10)),
        tuple(colors[t] for t in range(1, 10)),
    )
    base = nerve(cfg, 2)
    rng = random.Random(109)
    order = list(range(9))
    for _ in range(8):
        rng.shuffle(order)
        permuted = ColoredConfig(
            tuple(cfg.points[i] for i in order), tuple(cfg.colors[i] for i in order)
        )
        assert nerve(permuted, 2).complex == base.complex
    _report(9, "nine-point three-color fixture loads; nerve identical under "
               "8 random point permutations")

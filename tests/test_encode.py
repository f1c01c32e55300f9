import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import wordnerve
from wordnerve.encode import (
    ChordDiagram,
    bipartite_layout,
    chord_intersection_graph,
    word_any_graph,
    word_bipartite,
    word_from_chord_diagram,
)
from wordnerve.graphs import GraphError, bipartition, from_edge_list
from wordnerve.words import (
    Word,
    induced_graph_classic,
    induced_graph_general,
    max_alternation,
    word,
)


def random_graph(rng, n, p=0.5, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = [e for e in combinations(labels, 2) if rng.random() < p]
    return from_edge_list(edges, labels)


def all_labeled_graphs(labels):
    pairs = list(combinations(labels, 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(
            [pairs[i] for i in range(len(pairs)) if mask >> i & 1], labels
        )


def test_word_any_graph_p3():
    g = from_edge_list([("a", "b"), ("b", "c")])
    w, d = word_any_graph(g)
    assert d == 1
    assert w == word("ababcb")  # factors aba + bcb
    assert induced_graph_general(w, d) == g


def test_word_any_graph_single_edge():
    g = from_edge_list([("a", "b")])
    w, d = word_any_graph(g)
    assert (str(w), d) == ("a b a", 1)
    assert induced_graph_general(w, 1) == g


def test_word_any_graph_triangle():
    g = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
    w, d = word_any_graph(g)
    assert d == 2
    assert len(w) == 3 * 4
    assert induced_graph_general(w, d) == g


def test_word_any_graph_isolated_trailing():
    g = from_edge_list([("a", "b")], ["z"])
    w, d = word_any_graph(g)
    assert w.letters[-1] == "z" and w.count("z") == 1
    assert induced_graph_general(w, d) == g


def test_word_any_graph_exhaustive_four_vertices():
    for g in all_labeled_graphs(["a", "b", "c", "d"]):
        w, d = word_any_graph(g)
        assert induced_graph_general(w, d) == g


def test_word_any_graph_random_up_to_nine():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9))
        w, d = word_any_graph(g)
        assert induced_graph_general(w, d) == g


def test_word_bipartite_k12():
    g = from_edge_list([("v1", "u1"), ("v1", "u2")])
    w, d = word_bipartite(g)
    assert d == 1
    assert w == word("v1 u1 v1 v1 u2 v1")
    assert induced_graph_general(w, d) == g


def test_word_bipartite_k22_layout_and_nonedge_bound():
    g = from_edge_list([(v, u) for v in ("v1", "v2") for u in ("u1", "u2")])
    w, d = word_bipartite(g)
    assert d == 2
    assert w == word("v1 u1 v1 u1 v1 u2 v1 u2 v2 u2 v2 u2 v2 u1 v2 u1")
    assert induced_graph_general(w, d) == g
    assert max_alternation(w, "u1", "u2") == 3  # one short of an edge


def test_word_bipartite_rejects_non_bipartite():
    with pytest.raises(GraphError):
        word_bipartite(from_edge_list([("a", "b"), ("b", "c"), ("a", "c")]))


def test_word_bipartite_edgeless_fallback():
    g = from_edge_list([], ["a", "b", "c"])
    w, d = word_bipartite(g)
    assert d == 1
    assert w == word("a b c")
    assert induced_graph_general(w, d) == g


def test_word_bipartite_exhaustive_up_to_six_vertices():
    for n in range(1, 7):
        labels = [f"v{i}" for i in range(n)]
        for g in all_labeled_graphs(labels):
            if bipartition(g) is None:
                continue
            w, d = word_bipartite(g)
            assert induced_graph_general(w, d) == g


def test_bipartite_layout_positions_match_word():
    g = from_edge_list([("v1", "u1"), ("v2", "u1"), ("v2", "u2")], ["w"])
    layout = bipartite_layout(g)
    _, v_part = bipartition(g)
    covered = []
    for (i, j), span in layout.spans.items():  # in word order
        v, u = v_part[i - 1], layout.u_labels[j - 1]
        segment = layout.word.letters[span.start : span.stop]
        if not g.has_edge(v, u):
            assert segment == ()
            continue
        assert set(segment) == {v, u}
        assert segment[0] == v
        assert all(a != b for a, b in zip(segment, segment[1:]))
        covered.extend(span)
    assert layout.trailing == ("w",)
    assert covered == list(range(len(layout.word) - len(layout.trailing)))


def test_polygon_arrangement_roundtrip_examples():
    # Interleaved polygons on a circle read off as ababab, nested ones as aabb.
    assert induced_graph_general(word("ababab"), 2) == from_edge_list([("a", "b")])
    g = induced_graph_general(word("aabb"), 2)
    assert g.vertices == ("a", "b") and not g.edges


def test_polygon_arrangement_wheel_fixture():
    w5 = from_edge_list(
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5"),
         ("1", "6"), ("2", "6"), ("3", "6"), ("4", "6"), ("5", "6")]
    )
    assert induced_graph_general(word("156216326436546"), 2) == w5


def test_chord_diagram_validation():
    with pytest.raises(ValueError):
        ChordDiagram(("a", "a", "a", "b"))


def test_chord_diagram_error_names_the_first_bad_slot_under_any_hash_seed():
    code = "from wordnerve.encode import ChordDiagram; ChordDiagram(tuple('pqqrsst'))"
    src = str(Path(wordnerve.__file__).parents[1])
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stderr.endswith("ValueError: chord 'p' must occupy exactly 2 slots\n")


def test_chord_diagram_check_is_linear():
    slots = [f"c{i}" for i in range(30_000)] * 2
    random.Random(0).shuffle(slots)
    start = time.perf_counter()
    w = word_from_chord_diagram(ChordDiagram(tuple(slots)))
    assert time.perf_counter() - start < 2
    assert len(w) == 60_000


def test_chord_diagram_crossing_and_nested():
    crossing = ChordDiagram(("a", "b", "a", "b"))
    w = word_from_chord_diagram(crossing)
    assert induced_graph_classic(w) == from_edge_list([("a", "b")])
    nested = ChordDiagram(("a", "a", "b", "b"))
    g = induced_graph_classic(word_from_chord_diagram(nested))
    assert not g.edges


def test_chord_diagram_c5():
    # chord i crosses exactly chords i +- 1 around the cycle
    dgm = ChordDiagram(("1", "5", "2", "1", "3", "2", "4", "3", "5", "4"))
    c5 = from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")])
    w = word_from_chord_diagram(dgm)
    assert len(w) == 10
    assert chord_intersection_graph(dgm) == c5
    assert induced_graph_classic(w) == c5
    assert induced_graph_general(w, 2) == c5


def test_two_uniform_classic_equals_general_at_two():
    rng = random.Random(8)
    for _ in range(100):
        labels = [f"c{i}" for i in range(rng.randint(1, 5))]
        slots = labels * 2
        rng.shuffle(slots)
        w = Word(tuple(slots))
        assert induced_graph_classic(w) == induced_graph_general(w, 2)

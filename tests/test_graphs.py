import random
import time
from itertools import combinations

import pytest

from wordnerve.graphs import (
    ComplexError,
    Graph,
    GraphError,
    SimplicialComplex,
    bipartition,
    from_edge_list,
    is_triangle_free,
    one_skeleton,
)

from .oracles import has_odd_cycle_bruteforce


def cycle(n, offset=1):
    labels = [str(i + offset) for i in range(n)]
    return from_edge_list([(labels[i], labels[(i + 1) % n]) for i in range(n)])


def complete(labels):
    return from_edge_list(list(combinations(labels, 2)))


def full_simplex(labels):
    faces = (frozenset(f) for k in range(1, len(labels) + 1) for f in combinations(labels, k))
    return SimplicialComplex(tuple(labels), frozenset(faces))


def wheel5():
    g = cycle(5)
    return from_edge_list(list(g.edges) + [(v, "6") for v in g.vertices])


def test_from_edge_list_examples():
    p3 = from_edge_list([("a", "b"), ("b", "c")])
    assert p3.vertices == ("a", "b", "c")
    assert p3.edge_list == [("a", "b"), ("b", "c")]
    lone = from_edge_list([], ["x"])
    assert lone.vertices == ("x",) and not lone.edges
    dedup = from_edge_list([("a", "b"), ("b", "a")])
    assert dedup.edge_list == [("a", "b")]
    with pytest.raises(GraphError):
        from_edge_list([("a", "a")])
    for bad in ("", "a b", "a\nb", "a#b"):
        with pytest.raises(GraphError):
            from_edge_list([("a", bad)])
        with pytest.raises(GraphError):
            from_edge_list([], [bad])


def test_graph_accessors():
    g = from_edge_list([("a", "b"), ("b", "c")], ["z"])
    assert g.has_edge("b", "a") and not g.has_edge("a", "c")
    assert g.neighbors("b") == {"a", "c"}
    assert g.neighbors("z") == frozenset()


def test_is_triangle_free():
    assert is_triangle_free(cycle(5))
    assert not is_triangle_free(complete("abc"))
    assert not is_triangle_free(wheel5())  # hub + any cycle edge


def test_triangle_free_matches_triple_enumeration():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.4]
        g = from_edge_list(edges, labels)
        brute = not any(
            g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            for a, b, c in combinations(labels, 3)
        )
        assert is_triangle_free(g) == brute


def test_bipartition_examples():
    assert bipartition(cycle(4)) == (("1", "3"), ("2", "4"))
    assert bipartition(complete("abc")) is None
    k23 = from_edge_list([(u, v) for u in ("a", "b", "c") for v in ("x", "y")])
    parts = bipartition(k23)
    assert parts == (("a", "b", "c"), ("x", "y"))
    assert len(parts[1]) <= len(parts[0])


def test_bipartition_of_a_large_star_is_linear():
    # the BFS reads its queue by index, so it is linear in the component size
    star = from_edge_list([("c", f"l{i:06}") for i in range(100_000)])
    start = time.process_time()
    parts = bipartition(star)
    assert time.process_time() - start < 0.5
    assert parts == (tuple(f"l{i:06}" for i in range(100_000)), ("c",))


def test_bipartition_matches_odd_cycle_bruteforce():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 10)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.3]
        g = from_edge_list(edges, labels)
        parts = bipartition(g)
        assert (parts is not None) == (not has_odd_cycle_bruteforce(labels, edges))
        if parts is not None:
            u, v = parts
            assert sorted(u + v) == sorted(labels)
            assert len(v) <= len(u)
            uset, vset = set(u), set(v)
            for a, b in g.edges:
                assert (a in uset) != (b in uset)
            assert not (uset & vset)


def test_complex_validation():
    with pytest.raises(ComplexError):
        SimplicialComplex(("a", "b"), frozenset({frozenset(["a", "b"])}))
    with pytest.raises(ComplexError):
        SimplicialComplex(("a",), frozenset({frozenset(["a"]), frozenset(["a", "b"])}))
    k = full_simplex("abc")
    assert k.is_face(["a", "b"]) and k.is_face(["c"])
    assert not k.is_face(["a", "d"])


def test_one_skeleton_examples():
    assert one_skeleton(full_simplex("abc")) == complete("abc")
    points_only = SimplicialComplex(("a", "b"), frozenset({frozenset("a"), frozenset("b")}))
    g = one_skeleton(points_only)
    assert g.vertices == ("a", "b") and not g.edges


def test_graph_equality_is_labeled():
    g1 = from_edge_list([("a", "b")], ["c"])
    g2 = from_edge_list([("b", "c")], ["a"])
    assert g1 != g2  # isomorphic but differently labeled
    assert g1 == from_edge_list([("b", "a")], ["c"])

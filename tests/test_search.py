import concurrent.futures
import os
import random
from itertools import combinations, product

import pytest

from wordnerve import search
from wordnerve.encode import word_bipartite
from wordnerve.graphs import Graph, bipartition, from_edge_list
from wordnerve.search import (
    FOUND,
    NODE_LIMIT,
    NOT_FOUND,
    SearchBudget,
    SearchError,
    SearchVerdict,
    automorphisms,
    find_general_word,
    general_rep_number_bounded,
    gr_upper_bound,
)
from wordnerve.words import Word, induced_graph_general, max_alternation

from .oracles import EndMatrixEnumeration, automorphisms_bruteforce, sequential_search


def cycle(n):
    labels = [str(i + 1) for i in range(n)]
    return from_edge_list([(labels[i], labels[(i + 1) % n]) for i in range(n)])


def wheel5():
    g = cycle(5)
    return from_edge_list(list(g.edges) + [(v, "6") for v in g.vertices])


def test_budget_validation():
    with pytest.raises(SearchError):
        SearchBudget(0, 5, 5)
    with pytest.raises(SearchError):
        SearchBudget(2, 0, 5)
    with pytest.raises(SearchError):
        find_general_word(from_edge_list([("a", "b")]), 1, SearchBudget(2, 1, 10))


def test_automorphism_groups():
    assert len(automorphisms(cycle(5))) == 10  # dihedral
    assert len(automorphisms(wheel5())) == 10  # hub fixed
    assert len(automorphisms(from_edge_list([], ["a", "b", "c"]))) == 6
    k2 = from_edge_list([("a", "b")])
    assert sorted(automorphisms(k2)) == [(0, 1), (1, 0)]


def test_automorphisms_match_brute_force():
    graphs = []
    for n in range(6):  # every graph on at most 5 vertices
        labels = [str(i) for i in range(n)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            graphs.append(from_edge_list(
                [pair for i, pair in enumerate(pairs) if mask >> i & 1], labels
            ))
    rng = random.Random(7)
    labels = [str(i) for i in range(7)]
    for _ in range(60):  # large enough that adjacency to an early placed vertex matters
        graphs.append(from_edge_list(
            [pair for pair in combinations(labels, 2) if rng.random() < 0.5], labels
        ))
    for g in graphs:
        perms = automorphisms(g)
        assert len(perms) == len(set(perms))
        assert set(perms) == automorphisms_bruteforce(g)


def test_find_k2():
    verdict = find_general_word(from_edge_list([("a", "b")]), 1, SearchBudget(2, 6, 10_000))
    assert verdict.found
    assert verdict.witness == Word(("a", "b", "a"))


def test_find_k3_at_one():
    k3 = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
    verdict = find_general_word(k3, 1, SearchBudget(3, 12, 100_000))
    assert verdict.found
    assert induced_graph_general(verdict.witness, 1) == k3


def test_find_wheel():
    verdict = find_general_word(wheel5(), 2, SearchBudget(5, 15, 10_000_000))
    assert verdict.found
    assert induced_graph_general(verdict.witness, 2) == wheel5()


def test_deep_search_needs_no_recursion():
    # 1,202 letters deep: far past the interpreter's recursion limit.
    g = from_edge_list([("a", "b")])
    verdict = find_general_word(g, 1200, SearchBudget(700, 1300, 5_000_000), jobs=1)
    assert verdict.outcome == FOUND
    assert verdict.witness == Word(("a", "b") * 601)
    assert verdict.nodes_explored == 1202


def test_node_limit_exceeded():
    verdict = find_general_word(cycle(4), 2, SearchBudget(3, 12, 1))
    assert verdict.outcome == NODE_LIMIT
    assert verdict.witness is None


def test_soundness_on_random_graphs():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(1, 4)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        g = from_edge_list(edges, labels)
        for d in (1, 2):
            verdict = find_general_word(g, d, SearchBudget(3, 10, 300_000))
            if verdict.found:
                assert induced_graph_general(verdict.witness, d) == g


def test_enumeration_covers_achievable_graphs():
    """Words of length <= 6 over <= 3 letters: every labeled graph induced
    by any word is also induced by some witness the search finds."""
    letters = ["a", "b", "c"]
    achievable: dict[int, set] = {1: set(), 2: set()}
    for length in range(1, 7):
        for seq in product(letters, repeat=length):
            w = Word(seq)
            for d in (1, 2):
                g = induced_graph_general(w, d)
                achievable[d].add(g)
    budget = SearchBudget(6, 6, 10_000_000)
    for d, graphs in achievable.items():
        for g in graphs:
            verdict = find_general_word(g, d, budget)
            assert verdict.found, (d, g)
            assert induced_graph_general(verdict.witness, d) == g


def test_prune_validity_nonedge_never_recovers():
    rng = random.Random(21)
    for _ in range(200):
        base = [rng.choice("abc") for _ in range(rng.randint(2, 10))]
        ext = base + [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        assert max_alternation(Word(tuple(ext)), "a", "b") >= max_alternation(
            Word(tuple(base)), "a", "b"
        )


def test_construction_consistency_bipartite():
    # the search, budgeted by the encoder's own letter multiplicities,
    # must rediscover a witness wherever the encoder produced one
    rng = random.Random(22)
    seen = 0
    while seen < 12:
        nv = rng.randint(1, 3)
        nu = rng.randint(nv, 6 - nv)
        vs = [f"v{i}" for i in range(nv)]
        us = [f"u{j}" for j in range(nu)]
        edges = [(v, u) for v in vs for u in us if rng.random() < 0.6]
        if not edges:
            continue
        g = from_edge_list(edges, vs + us)
        w, d = word_bipartite(g)
        copies = max(w.count(x) for x in w.alphabet)
        verdict = find_general_word(g, d, SearchBudget(copies, len(w), 20_000_000))
        assert verdict.found, g
        seen += 1


def test_jobs_deterministic():
    w5 = wheel5()
    budget = SearchBudget(5, 15, 10_000_000)
    v1 = find_general_word(w5, 2, budget, jobs=1)
    v4 = find_general_word(w5, 2, budget, jobs=4)
    assert v1.outcome == v4.outcome == FOUND
    assert v1.witness == v4.witness
    v4b = find_general_word(w5, 2, budget, jobs=4)
    assert v4b == v4


def _inline_pool(sizes):
    """A stand-in for ProcessPoolExecutor that records its max_workers and
    runs every submitted call inline, so no process starts."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


def test_pool_is_capped_at_cpu_count(monkeypatch):
    w5 = wheel5()  # 4 depth-2 prefixes
    budget = SearchBudget(5, 15, 10_000_000)
    cpus = search.usable_cpus()
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes))
    verdicts = [find_general_word(w5, 2, budget, jobs=64)]
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    verdicts.append(find_general_word(w5, 2, budget, jobs=64))
    monkeypatch.setattr(search, "usable_cpus", lambda: 1000)
    verdicts.append(find_general_word(w5, 2, budget, jobs=64))
    verdicts.append(find_general_word(w5, 2, budget, jobs=3))
    # one batch per prefix at most, never one list per requested job
    verdicts.append(find_general_word(w5, 2, budget, jobs=10**9))
    monkeypatch.setattr(search, "usable_cpus", lambda: 1)
    verdicts.append(find_general_word(w5, 2, budget, jobs=64))  # in-process: no pool
    assert sizes == ([min(4, cpus)] if cpus > 1 else []) + [2, 4, 3, 4]
    assert all(v == sequential_search(w5, 2, budget) for v in verdicts)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    """Under `taskset -c 0` on a 2-CPU machine the pool gets one worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert search.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert search.usable_cpus() == 2


def test_jobs_match_sequential_on_random_graphs():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 4)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        g = from_edge_list(edges, labels)
        d = rng.randint(1, 2)
        budget = SearchBudget(3, max(n, rng.randint(2, 9)), 200_000)
        v1 = find_general_word(g, d, budget, jobs=1)
        assert find_general_word(g, d, budget, jobs=3) == v1, (g, d)


def test_every_jobs_value_returns_the_sequential_verdict(monkeypatch):
    """Outcome, witness and node count equal the plain DFS's for every
    jobs value, also when the node limit cuts the search short."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([]))
    monkeypatch.setattr(search, "usable_cpus", lambda: 64)
    rng = random.Random(24)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        g = from_edge_list(edges, labels)
        d = rng.randint(1, 3)
        budget = SearchBudget(rng.randint(1, 3), rng.randint(n, 14),
                              rng.choice((1, 3, 10, 50, 200, 1000, 5000, 100_000)))
        expected = sequential_search(g, d, budget)
        outcomes.add(expected.outcome)
        for jobs in (1, 3, 64):
            verdict = find_general_word(g, d, budget, jobs=jobs)
            assert verdict == expected, (g, d, budget, jobs)
            assert verdict.nodes_explored <= budget.node_limit
    assert outcomes == {FOUND, NOT_FOUND, NODE_LIMIT}


def test_last_positions_match_end_matrix_reference():
    """The per-letter state returns the run-end matrix's verdict, witness
    and node count included, on every draw."""
    rng = random.Random(25)
    outcomes = set()
    for draw in range(300):
        n = rng.randint(1, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        g = from_edge_list(edges, labels)
        d = rng.randint(1, 3)
        # a spent limit of 300,000 costs seconds, so only every 60th draw has it
        limit = 300_000 if draw % 60 == 0 else rng.choice((1, 3, 10, 100, 1_000, 10_000, 30_000))
        budget = SearchBudget(rng.randint(1, 4), rng.randint(n, 16), limit)
        expected = sequential_search(g, d, budget, EndMatrixEnumeration)
        outcomes.add(expected.outcome)
        assert find_general_word(g, d, budget) == expected, (g, d, budget)
    assert outcomes == {FOUND, NOT_FOUND, NODE_LIMIT}


def test_budget_relative_completeness_vs_naive_enumeration():
    """found/not-found must agree exactly with brute-force enumeration of
    every word inside the budget (soundness AND completeness of all cuts)."""
    for n_verts in (1, 2, 3):
        labels = [f"v{i}" for i in range(n_verts)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(
                [pairs[i] for i in range(len(pairs)) if mask >> i & 1], labels
            )
            for d, copies, max_len in ((1, 2, 5), (1, 3, 6), (2, 3, 6)):
                if max_len < n_verts:
                    continue
                budget = SearchBudget(copies, max_len, 10_000_000)
                verdict = find_general_word(g, d, budget)
                naive = False
                for length in range(1, max_len + 1):
                    for seq in product(labels, repeat=length):
                        if any(seq.count(x) > copies for x in labels):
                            continue
                        if induced_graph_general(Word(seq), d) == g:
                            naive = True
                            break
                    if naive:
                        break
                assert verdict.found == naive, (g, d, copies, max_len)


def test_gr_bounds():
    res = general_rep_number_bounded(cycle(4), 2, SearchBudget(3, 12, 2_000_000))
    assert res[1].outcome == NOT_FOUND
    assert res[2].outcome == FOUND
    assert gr_upper_bound(res) == 2

    res = general_rep_number_bounded(from_edge_list([("a", "b")]), 1, SearchBudget(2, 6, 10_000))
    assert gr_upper_bound(res) == 1

    edgeless = from_edge_list([], ["x", "y", "z"])
    res = general_rep_number_bounded(edgeless, 1, SearchBudget(1, 3, 10_000))
    assert gr_upper_bound(res) == 1
    assert res[1].witness == Word(("x", "y", "z"))

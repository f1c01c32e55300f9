import concurrent.futures
import multiprocessing
import os
import random
import subprocess
import sys
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

from .oracles import StepEnumeration, automorphisms_bruteforce, sequential_search


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


def _inline_pool(sizes, runs=None):
    """A stand-in for ProcessPoolExecutor that records its max_workers, runs
    its initializer and then every submitted call inline, in submission
    order, so no process starts.  Each call's last argument (the batch) and
    its result are appended to `runs` when given."""

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            if runs is not None:
                runs.append((args[-1], future.result()))
            return future

    return InlinePool


def test_pool_is_capped_at_cpu_count(monkeypatch):
    # W5 has 4, 15, 66, 298, 1,304, 5,312 and 19,798 prefixes at depths 2
    # to 8, and the cut deepens until there are 8 per worker
    w5 = wheel5()
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
    verdicts.append(find_general_word(w5, 2, budget, jobs=10**9))
    monkeypatch.setattr(search, "usable_cpus", lambda: 1)
    verdicts.append(find_general_word(w5, 2, budget, jobs=64))  # in-process: no pool
    assert sizes == ([min(64, cpus)] if cpus > 1 else []) + [2, 64, 3, 1000]
    assert all(v == sequential_search(w5, 2, budget) for v in verdicts)
    # one batch per prefix at most, never one list per requested job: the
    # prefixes of C4 at d = 1 stop growing at 7
    c4, c4_budget = cycle(4), SearchBudget(3, 12, 1_000_000)
    monkeypatch.setattr(search, "usable_cpus", lambda: 1000)
    assert find_general_word(c4, 1, c4_budget, jobs=10**9) == sequential_search(c4, 1, c4_budget)
    assert sizes[-1] == 7


def test_no_batch_starts_a_prefix_ranked_after_a_witness(monkeypatch):
    """The inline pool runs the batches one after another.  Once a batch
    has recorded a witness or a spent limit at some rank, no later batch
    starts a rank above it, and the verdict stays the sequential one."""
    runs = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool([], runs))
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    instances = [(wheel5(), 2, SearchBudget(5, 15, 10_000_000))]
    rng = random.Random(26)
    while len(instances) < 12:
        n = rng.randint(4, 6)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        g, d = from_edge_list(edges, labels), rng.randint(1, 3)
        budget = SearchBudget(3, 14, 200_000)
        if sequential_search(g, d, budget).found:
            instances.append((g, d, budget))
    skipped = 0
    for g, d, budget in instances:
        runs.clear()
        assert find_general_word(g, d, budget, jobs=2) == sequential_search(g, d, budget)
        stop = float("inf")
        for batch, part in runs:
            assert all(rank <= stop for rank in part), (g, d)
            skipped += sum(rank > stop for rank, _ in batch)
            stop = min([stop] + [rank for rank, (found, _, limit_hit) in part.items()
                                 if found is not None or limit_hit])
    assert skipped > 0  # some batch had ranks after a recorded witness


def test_k33_over_two_processes_returns_the_sequential_verdict():
    k33 = from_edge_list([(u, v) for u in "abc" for v in "xyz"])
    budget = SearchBudget(3, 24, 5_000_000)  # the CLI's defaults at d = 3
    v1 = find_general_word(k33, 3, budget, jobs=1)
    assert (v1.outcome, v1.nodes_explored) == (FOUND, 79_280)
    assert find_general_word(k33, 3, budget, jobs=2) == v1
    assert multiprocessing.active_children() == []  # no worker outlives the call


def test_jobs_match_under_the_spawn_start_method():
    """Spawned workers inherit nothing from the parent: the stop rank must
    reach them through the pool's initializer."""
    child = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from wordnerve import search\n"
        "from wordnerve.graphs import from_edge_list\n"
        "search.usable_cpus = lambda: 2  # a pool even on one CPU\n"
        "edges = [('1', '2'), ('2', '3'), ('3', '4'), ('4', '5'), ('1', '5')]\n"
        "g = from_edge_list(edges + [(v, '6') for v in '12345'])\n"
        "budget = search.SearchBudget(5, 15, 10_000_000)\n"
        "v1 = search.find_general_word(g, 2, budget, jobs=1)\n"
        "v2 = search.find_general_word(g, 2, budget, jobs=2)\n"
        "print(v1.outcome, v1.nodes_explored, v1 == v2)\n"
    )
    src = os.path.dirname(os.path.dirname(search.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    expected = sequential_search(wheel5(), 2, SearchBudget(5, 15, 10_000_000))
    assert proc.stdout == f"found {expected.nodes_explored} True\n", proc.stderr


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
    """The search on per-letter last positions returns the verdict, witness
    and node count included, of `StepEnumeration` on its run-end matrix, a
    state it shares nothing with, on every draw."""
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
        expected = sequential_search(g, d, budget)
        outcomes.add(expected.outcome)
        assert find_general_word(g, d, budget) == expected, (g, d, budget)
    assert outcomes == {FOUND, NOT_FOUND, NODE_LIMIT}


def test_prefix_cut_and_replay_match_the_reference():
    """The flat loop emits the reference DFS's prefixes with the same node
    counts, and below each replayed prefix returns its witness, node count
    and limit verdict, also under limits spent inside or before the prefix."""
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(2, 6)
        labels = [f"v{i}" for i in range(n)]
        g = from_edge_list([e for e in combinations(labels, 2) if rng.random() < 0.5], labels)
        budget = SearchBudget(rng.randint(1, 3), rng.randint(n, 12), 20_000)
        d = rng.randint(1, 3)
        letters, adj = search._problem_arrays(g)
        args = (len(letters), adj, d, budget, automorphisms(g))
        problem = search._problem(g, d, budget)
        ref = StepEnumeration(*args)
        cut, ref_cut = [], []
        found, nodes, _ = search._dfs(problem, budget.node_limit, (), 3, cut)
        ref.dfs(depth_cap=3, prefix_sink=ref_cut)
        assert (cut, found, nodes) == (ref_cut, ref.found, ref.nodes)
        for prefix, _ in cut:
            for limit in (0, 7, budget.node_limit):
                ref = StepEnumeration(*args)
                ref.node_limit = limit
                ref.replay(prefix)
                ref.dfs()
                assert search._dfs(problem, limit, prefix) == (ref.found, ref.nodes, ref.limit_hit)


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

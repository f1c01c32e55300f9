import multiprocessing
import os
import random
import subprocess
import sys
import time
from itertools import combinations, product

import pytest

from wordnerve import search
from wordnerve.cli import main
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
        copies = max(w.letters.count(x) for x in w.alphabet)
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


def _inline_processes(monkeypatch, started, events=None):
    """Stand-ins for `multiprocessing.Process` and `Pipe`, so that no
    process starts.  Each child's args go to `started`.  The children's
    search loops run inline, in start order, nested in the caller's first
    prefix DFS: the caller holds the lowest rank while the children take
    the next ones, and then completes it and goes on.  When `events` is
    given, every prefix DFS appends ("start", rank) and then ("end", rank,
    result) to it."""
    pending = []

    class Process:
        def __init__(self, target, args):
            started.append(args)
            self.run = lambda: target(*args)

        def start(self):
            pending.append(self.run)

        def join(self):
            pass

    class End:
        """Both ends of a one-way pipe, in memory."""

        def __init__(self):
            self.sent = []

        def send(self, obj):
            self.sent.append(obj)

        def recv(self):
            if not self.sent:
                raise EOFError
            return self.sent.pop(0)

        def close(self):
            pass

    def pipe(duplex):
        end = End()
        return end, end

    dfs = search._dfs

    def nesting_dfs(*args, ranks=None, rank=0, **kw):
        if ranks is None:  # the prefix cut
            return dfs(*args, **kw)
        children = pending[:]
        pending.clear()
        for child in children:
            child()
        if events is not None:
            events.append(("start", rank))
        result = dfs(*args, ranks=ranks, rank=rank, **kw)
        if events is not None:
            events.append(("end", rank, result))
        return result

    monkeypatch.setattr(multiprocessing, "Process", Process)
    monkeypatch.setattr(multiprocessing, "Pipe", pipe)
    monkeypatch.setattr(search, "_dfs", nesting_dfs)


def test_process_count_is_capped_at_cpu_count(monkeypatch):
    # W5 has 4, 15, 66, 298, 1,304, 5,312 and 19,798 prefixes at depths 2
    # to 8, and the cut deepens until there are 8 per process
    w5 = wheel5()
    budget = SearchBudget(5, 15, 10_000_000)
    cpus = search.usable_cpus()
    started, counts = [], []

    def run(g, d, budget, jobs):
        started.clear()
        verdict = find_general_word(g, d, budget, jobs=jobs)
        counts.append(len(started) + 1)  # the caller is one of the processes
        return verdict

    _inline_processes(monkeypatch, started)
    verdicts = [run(w5, 2, budget, 64)]
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    verdicts.append(run(w5, 2, budget, 64))
    monkeypatch.setattr(search, "usable_cpus", lambda: 1000)
    verdicts.append(run(w5, 2, budget, 64))
    verdicts.append(run(w5, 2, budget, 3))
    verdicts.append(run(w5, 2, budget, 10**9))
    monkeypatch.setattr(search, "usable_cpus", lambda: 1)
    verdicts.append(run(w5, 2, budget, 64))  # the caller alone
    assert counts == [min(64, cpus), 2, 64, 3, 1000, 1]
    assert all(v == sequential_search(w5, 2, budget) for v in verdicts)
    # one process per prefix at most, never one per requested job: the
    # prefixes of C4 at d = 1 stop growing at 7
    c4, c4_budget = cycle(4), SearchBudget(3, 12, 1_000_000)
    monkeypatch.setattr(search, "usable_cpus", lambda: 1000)
    assert run(c4, 1, c4_budget, 10**9) == sequential_search(c4, 1, c4_budget)
    assert counts[-1] == 7


def test_no_process_starts_a_prefix_ranked_after_a_witness(monkeypatch):
    """Once any process has recorded a witness or a spent limit at some
    rank, no process starts a rank above it, some ranks are never started,
    and the verdict stays the sequential one."""
    started, events = [], []
    _inline_processes(monkeypatch, started, events)
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
        started.clear()
        events.clear()
        assert find_general_word(g, d, budget, jobs=2) == sequential_search(g, d, budget)
        stop = float("inf")
        for event in events:
            if event[0] == "start":
                assert event[1] <= stop, (g, d)
            elif event[2][0] is not None or event[2][2]:
                stop = min(stop, event[1])
        if started:  # a split: the ranks above the stop were never started
            skipped += len(started[0][2]) - 1 - max(e[1] for e in events)
    assert skipped > 0  # some ranks came after a recorded witness


def test_k33_over_two_processes_returns_the_sequential_verdict():
    k33 = from_edge_list([(u, v) for u in "abc" for v in "xyz"])
    budget = SearchBudget(3, 24, 5_000_000)  # the CLI's defaults at d = 3
    v1 = find_general_word(k33, 3, budget, jobs=1)
    assert (v1.outcome, v1.nodes_explored) == (FOUND, 79_280)
    assert find_general_word(k33, 3, budget, jobs=2) == v1
    assert multiprocessing.active_children() == []  # no child outlives the call


def test_abandoned_prefixes_are_never_read(monkeypatch):
    """Over two real processes, a prefix ranked after a witness or a spent
    limit is abandoned at its DFS's next poll of the stop rank, and the
    caller's sequential sum never reads it: verdict, witness and node count
    stay the sequential ones.  Under fork a wrapper the child inherits
    counts the abandoned prefixes, so the poll is known to fire."""
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    abandoned = multiprocessing.Value("q", 0)
    dfs = search._dfs

    def counting_dfs(*args, ranks=None, rank=0, **kw):
        result = dfs(*args, ranks=ranks, rank=rank, **kw)
        if ranks is not None and ranks[1] < rank and result != dfs(*args, **kw):
            with abandoned.get_lock():  # cut short: the whole DFS returns more
                abandoned.value += 1
        return result

    monkeypatch.setattr(search, "_dfs", counting_dfs)
    k33 = from_edge_list([(u, v) for u in "abc" for v in "xyz"])
    instances = [(wheel5(), 2, SearchBudget(5, 15, 10_000_000)),
                 (wheel5(), 2, SearchBudget(5, 15, 20_000)),
                 (k33, 3, SearchBudget(3, 24, 60_000))]
    instances += [(k33, 3, SearchBudget(3, 24, 5_000_000))] * 3
    for g, d, budget in instances:
        assert find_general_word(g, d, budget, jobs=2) == sequential_search(g, d, budget)
    assert multiprocessing.active_children() == []
    if multiprocessing.get_start_method() == "fork":
        assert abandoned.value > 0


def test_more_processes_than_cores_share_the_ranks(monkeypatch):
    """Six real processes on however few cores: a lost update of the shared
    next or stop rank would leave a rank without a result or read one past
    a witness or spent limit.  Time-bounded, and no child outlives a call."""
    k33 = from_edge_list([(u, v) for u in "abc" for v in "xyz"])
    instances = [(wheel5(), 2, SearchBudget(5, 15, 10_000_000)),
                 (k33, 3, SearchBudget(3, 24, 5_000_000)), (k33, 3, SearchBudget(3, 24, 40_000)),
                 (cycle(4), 1, SearchBudget(3, 12, 1_000_000))]
    monkeypatch.setattr(search, "usable_cpus", lambda: 6)
    t0 = time.monotonic()
    for g, d, budget in instances:
        assert find_general_word(g, d, budget, jobs=6) == sequential_search(g, d, budget)
        assert multiprocessing.active_children() == []
    assert time.monotonic() - t0 < 60


def test_jobs_match_under_the_spawn_start_method():
    """Spawned children inherit nothing from the caller: the shared ranks
    must reach them as arguments of the process they start in."""
    child = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from wordnerve import search\n"
        "from wordnerve.graphs import from_edge_list\n"
        "search.usable_cpus = lambda: 2  # a split even on one CPU\n"
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


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the failing stand-ins reach the child only by fork inheritance")


def _fail_in_children(monkeypatch, fail):
    """Run `fail()` in place of `_run_prefixes` in every process but this one."""
    caller, run = os.getpid(), search._run_prefixes

    def failing(*args):
        if os.getpid() != caller:
            fail()
        return run(*args)

    monkeypatch.setattr(search, "_run_prefixes", failing)
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)


def _cli_search_w5(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in wheel5().edges))
    code = main(["search", str(graph), "--dim", "2", "--max-copies", "5", "--max-len", "15",
                 "--jobs", "2"])
    out, err = capsys.readouterr()
    return code, out, err


@fork_only
def test_a_child_out_of_memory_is_an_input_error(monkeypatch, tmp_path, capsys):
    """A MemoryError in a child is raised again, with its type, by the
    caller, and `search --jobs 2` exits 2 with one error line."""
    def out_of_memory():
        raise MemoryError

    _fail_in_children(monkeypatch, out_of_memory)
    with pytest.raises(MemoryError):
        find_general_word(wheel5(), 2, SearchBudget(5, 15, 10_000_000), jobs=2)
    assert multiprocessing.active_children() == []
    assert _cli_search_w5(tmp_path, capsys) == (
        2, "", "error: search: the input needs more memory than is available\n")


@fork_only
def test_a_child_that_dies_without_a_result_is_an_internal_error(monkeypatch, tmp_path, capsys):
    """A child that exits without sending its result closes its pipe: the
    caller raises RuntimeError within seconds, and the CLI exits 4."""
    _fail_in_children(monkeypatch, lambda: os._exit(1))
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="ended without a result"):
        find_general_word(wheel5(), 2, SearchBudget(5, 15, 10_000_000), jobs=2)
    assert time.monotonic() - t0 < 10
    assert multiprocessing.active_children() == []
    code, out, err = _cli_search_w5(tmp_path, capsys)
    assert (code, out) == (4, "")
    assert err == "internal error: a search process ended without a result\n"


@fork_only
def test_a_failing_caller_leaves_no_child_behind(monkeypatch):
    """The caller fails while its child is 0.2 s into rank 0 of the prism
    at d = 2, a prefix of 1.5M nodes that takes about 2 s: the child
    abandons it at its next poll of the stop rank, and the call returns
    well within a second of the failure, with no child left."""
    caller, run = os.getpid(), search._run_prefixes
    failed_at = []

    def failing_caller(problem, node_limit, prefixes, ranks):
        if os.getpid() != caller:
            return run(problem, node_limit, prefixes, ranks)
        deadline = time.monotonic() + 10
        while ranks[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)  # until the child has taken rank 0
        time.sleep(0.2)
        failed_at.append(time.monotonic())
        raise KeyError("the caller's share failed")

    monkeypatch.setattr(search, "_run_prefixes", failing_caller)
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    prism = from_edge_list([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"),
                            ("x", "z"), ("a", "x"), ("b", "y"), ("c", "z")])
    with pytest.raises(KeyError):
        find_general_word(prism, 2, SearchBudget(4, 24, 20_000_000), jobs=2)
    assert time.monotonic() - failed_at[0] < 1
    assert multiprocessing.active_children() == []


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    """Under `taskset -c 0` on a 2-CPU machine the search runs in one process."""
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
    _inline_processes(monkeypatch, [])
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


def _differential_cases(rng):
    """(graph, d, budget, cut depth) for every labelled graph on 1 to 4
    vertices at d = 1..3 and for seeded 5- to 7-vertex draws at one d each,
    under random budgets; then one seeded graph for each n from 8 to
    `_UNROLL_MAX` under node limits 1, 100 and 2,000, cut at depth 2, since
    a depth-3 cut of 9 letters has hundreds of prefixes to replay."""
    def budget(n):
        return SearchBudget(rng.randint(1, 3), rng.randint(n, 12),
                            rng.choice((1, 10, 100, 2_000, 20_000)))
    for n in range(1, 5):
        labels = [f"v{i}" for i in range(n)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list([pair for i, pair in enumerate(pairs) if mask >> i & 1], labels)
            for d in (1, 2, 3):
                yield g, d, budget(n), 3
    for _ in range(40):
        labels = [f"v{i}" for i in range(rng.randint(5, 7))]
        g = from_edge_list([e for e in combinations(labels, 2) if rng.random() < 0.5], labels)
        yield g, rng.randint(1, 3), budget(len(labels)), 3
    for n in range(8, search._UNROLL_MAX + 1):
        labels = [f"v{i}" for i in range(n)]
        g = from_edge_list([e for e in combinations(labels, 2) if rng.random() < 0.3], labels)
        d, copies, length = rng.randint(1, 2), rng.randint(2, 3), rng.randint(3 * n // 2, 2 * n)
        for limit in (1, 100, 2_000):
            yield g, d, SearchBudget(copies, length, limit), 2


def _both_dfs_paths_match_the_reference(g, d, budget, depth=3):
    """Assert that `_dfs` and `_dfs_loop` return what `StepEnumeration`
    returns on the whole tree and on its cut at `depth`, and below every
    prefix of that cut under node limits 0, 7 and the budget's.  Returns
    whether the whole search ended in a witness or a spent limit."""
    letters, adj = search._problem_arrays(g)
    problem = search._problem(g, d, budget)
    args = (len(letters), adj, d, budget, automorphisms(g))
    for cap in (None, depth):
        ref, sinks = StepEnumeration(*args), ([], [], [])
        ref.dfs(depth_cap=cap, prefix_sink=sinks[0])
        expected = (ref.found, ref.nodes, ref.limit_hit)
        if cap is None:
            ended = expected[0] is not None or expected[2]
        assert search._dfs(problem, budget.node_limit, (), cap, sinks[1]) == expected
        assert search._dfs_loop(problem, budget.node_limit, (), cap, sinks[2]) == expected
        assert sinks[1] == sinks[2] == sinks[0], (g, d, budget, cap)
    for rank, (prefix, _) in enumerate(sinks[0]):
        for limit in (0, 7, budget.node_limit):
            ref = StepEnumeration(*args)
            ref.node_limit = limit
            ref.replay(prefix)
            ref.dfs()
            expected = (ref.found, ref.nodes, ref.limit_hit)
            for dfs in (search._dfs, search._dfs_loop):
                assert dfs(problem, limit, prefix) == expected, (g, d, budget, prefix)
                # polled every 1,024 nodes, a stop rank that is never
                # lowered below the prefix's own rank changes nothing
                assert dfs(problem, limit, prefix, ranks=[0, rank], rank=rank) == expected
            assert (search._dfs(problem, limit, prefix, ranks=[0, rank - 1], rank=rank)
                    == search._dfs_loop(problem, limit, prefix, ranks=[0, rank - 1], rank=rank))
    return ended


def test_prefix_cut_and_replay_match_the_reference():
    """Both DFS paths, the generated one that runs up to `_UNROLL_MAX`
    letters and the kept loop `_dfs_loop`, return what `StepEnumeration`
    returns: the same (witness, nodes, limit_hit) and prefix_sink list on
    whole trees and on depth-capped cuts, and the same results below each
    replayed prefix, also under node limits spent before, inside or after
    it.  A stop rank never lowered below the prefix's own rank changes
    nothing; one below it stops both paths at the same poll."""
    rng = random.Random(27)
    outcomes, sizes = set(), set()
    for g, d, budget, depth in _differential_cases(rng):
        assert len(g.vertices) <= search._UNROLL_MAX
        outcomes.add(_both_dfs_paths_match_the_reference(g, d, budget, depth))
        sizes.add(len(g.vertices))
    assert outcomes == {True, False}
    # every letter count the generated path serves ran, and was compiled
    assert sizes == set(range(1, search._UNROLL_MAX + 1)) <= set(search._UNROLLED)


def test_the_generated_source_depends_on_the_letter_count_alone(monkeypatch):
    """Two searches over different graphs, labels, levels and budgets on 6
    vertices compile the same text; a count past `_UNROLL_MAX` compiles
    nothing and runs the loop, with the reference's verdict."""
    sources = []
    generate = search._dfs_source
    monkeypatch.setattr(search, "_dfs_source", lambda n: sources.append(generate(n)) or sources[-1])
    two_edges = from_edge_list([("a", "b"), ("c", "d")], list("abcdef"))
    searches = [(wheel5(), 2, SearchBudget(5, 15, 10_000_000)),
                (two_edges, 1, SearchBudget(3, 9, 500))]
    for g, d, budget in searches:
        monkeypatch.setattr(search, "_UNROLLED", {})
        assert find_general_word(g, d, budget) == sequential_search(g, d, budget)
    assert len(sources) == 2 and sources[0] == sources[1]
    # a path one letter past the bound: the loop, under a small limit
    monkeypatch.setattr(search, "_UNROLLED", {})
    n = search._UNROLL_MAX + 1
    labels = [f"v{i:02}" for i in range(n)]
    g = from_edge_list(list(zip(labels, labels[1:])), labels)
    budget = SearchBudget(2, 2 * n, 300)
    loop_calls = []
    loop = search._dfs_loop
    monkeypatch.setattr(search, "_dfs_loop", lambda *args: loop_calls.append(args) or loop(*args))
    for jobs in (1, 2):
        assert find_general_word(g, 1, budget, jobs=jobs) == sequential_search(g, 1, budget)
    assert loop_calls and len(sources) == 2 and list(search._UNROLLED) == []


def test_the_generated_source_stays_small():
    """The source grows as about 16 n^2 lines, and its compile time and
    memory with it: at the bound `_UNROLL_MAX` it stays under 1,600."""
    assert search._dfs_source(search._UNROLL_MAX).count("\n") < 1_600


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

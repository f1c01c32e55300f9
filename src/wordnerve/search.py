"""Bounded exhaustive search for general d-word-representants.

Depth-first over word positions, letters tried in label order, with each
letter's last position and each pair's run count as state, so one extension
costs O(alphabet).  Verdicts are budget-relative: a miss means no word within
the copy and length bounds represents the graph, never an absolute refutation.

Completeness-preserving cuts:

* a non-edge pair that is already d-intersecting can never recover
  (pair alternation is monotone under extension);
* adjacent duplicate letters never change any pair's run count, so words
  with immediate repeats are skipped;
* a repeat letter that starts no new run for any of its still-deficient
  edge pairs is dominated by not appending it at all;
* first-occurrence sequences are restricted to the lexicographic minimum
  of their orbit under the automorphism group of the target graph (an
  automorphism maps witnesses to witnesses, so a canonical witness
  survives whenever any witness exists);
* total alternation still owed must fit in the remaining slots, each of
  which can serve at most one run per deficient pair of its letter.

The enumeration tree can be split at a fixed prefix depth across worker
processes; the parent adds up the prefixes' node counts in sequential order,
so every worker count returns the sequential verdict, node count included.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graphs import Graph
from .words import Word, induced_graph_general

FOUND = "found"
NOT_FOUND = "not_found_within_budget"
NODE_LIMIT = "node_limit_exceeded"


class SearchError(ValueError):
    """Degenerate budget or unusable search input."""


@dataclass(frozen=True)
class SearchBudget:
    max_copies_per_letter: int
    max_total_length: int
    node_limit: int

    def __post_init__(self):
        if self.max_copies_per_letter < 1 or self.max_total_length < 1 or self.node_limit < 1:
            raise SearchError("budget fields must all be positive")


@dataclass(frozen=True)
class SearchVerdict:
    outcome: str
    witness: Word | None
    nodes_explored: int

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


def _problem_arrays(g: Graph):
    letters = list(g.vertices)
    n = len(letters)
    idx = {v: i for i, v in enumerate(letters)}
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[idx[u]][idx[v]] = adj[idx[v]][idx[u]] = True
    return letters, adj


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, as index tuples over
    the sorted vertex order, in no fixed order.  Backtracking on an
    explicit stack: vertices are placed in breadth-first order from the
    smallest label, so each vertex but the first of its component has a
    placed BFS parent, and its image is drawn from the neighbours of the
    parent's image.  An image must keep the degree and the adjacency to
    every placed vertex, checked from the most recently placed one back."""
    _, adj = _problem_arrays(g)
    n = len(adj)
    if n == 0:
        return [()]
    nbrs = [[u for u in range(n) if row[u]] for row in adj]
    deg = [len(row) for row in nbrs]
    order = [0]  # also the BFS queue: the loop reads what it appends
    parent = [-1] + [-2] * (n - 1)  # -2: not reached yet, -1: first of its component
    for v in order:
        for u in nbrs[v]:
            if parent[u] == -2:
                parent[u] = v
                order.append(u)
        if v == order[-1] and len(order) < n:  # component done: next root
            root = parent.index(-2)
            parent[root] = -1
            order.append(root)

    def place(k: int):
        """Yield once per fitting image of order[k], with order[k] placed on it."""
        v = order[k]
        pool = range(n) if parent[v] < 0 else nbrs[mapping[parent[v]]]
        adj_v = adj[v]
        placed = order[k - 1 :: -1] if k else ()
        for img in pool:
            if used[img] or deg[img] != deg[v]:
                continue
            adj_img = adj[img]
            for u in placed:
                if adj_v[u] != adj_img[mapping[u]]:
                    break
            else:
                mapping[v] = img
                used[img] = True
                yield
                used[img] = False

    perms: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n
    frames = [place(0)]
    while frames:
        if next(frames[-1], True):  # True: no image left for the top frame's vertex
            frames.pop()
        elif len(frames) == n:
            perms.append(tuple(mapping))
        else:
            frames.append(place(len(frames)))
    return perms


class _Enumeration:
    """Mutable DFS state over letter indices 0..n-1: last[x] is the word
    position of x's last copy or -1, alt[x][y] the run count of the pair.
    Appending x opens a run of {x, y} iff last[x] <= last[y]."""

    def __init__(self, n: int, adj: list[list[bool]], d: int, budget: SearchBudget,
                 auts: list[tuple[int, ...]]):
        self.n = n
        self.adj = adj
        self.target = d + 2
        self.max_copies = budget.max_copies_per_letter
        self.max_len = budget.max_total_length
        self.node_limit = budget.node_limit

        self.word: list[int] = []
        self.alt = [[0] * n for _ in range(n)]
        self.last = [-1] * n
        self.counts = [0] * n
        self.introduced = 0
        self.total_deficit = sum(
            self.target for i in range(n) for j in range(i + 1, n) if adj[i][j]
        )
        self.deficient_deg = [sum(1 for j in range(n) if adj[i][j]) for i in range(n)]
        identity = tuple(range(n))
        self.stab_stack = [[p for p in auts if p != identity]]

        self.nodes = 0
        self.found: list[int] | None = None
        self.limit_hit = False

    def _useful(self, x: int) -> bool:
        adj_x, alt_x, last, lx = self.adj[x], self.alt[x], self.last, self.last[x]
        for y in range(self.n):
            if adj_x[y] and alt_x[y] < self.target and lx < last[y]:
                return True
        return False

    def _append(self, x: int):
        """Apply letter x; return (ok, lx), lx being x's previous last position."""
        ok = True
        target = self.target
        adj_x, alt_x, last, lx = self.adj[x], self.alt[x], self.last, self.last[x]
        for y in range(self.n):
            if y != x and lx <= last[y]:
                new_alt = alt_x[y] + 1
                alt_x[y] = self.alt[y][x] = new_alt
                if adj_x[y]:
                    if new_alt <= target:
                        self.total_deficit -= 1
                        if new_alt == target:
                            self.deficient_deg[x] -= 1
                            self.deficient_deg[y] -= 1
                elif new_alt >= target:
                    ok = False  # non-edge became d-intersecting; hopeless
        if lx < 0:
            self.introduced += 1
            self.stab_stack.append([p for p in self.stab_stack[-1] if p[x] == x])
        self.counts[x] += 1
        last[x] = len(self.word)
        self.word.append(x)
        self.nodes += 1
        return ok, lx

    def _undo(self, lx: int):
        """Pop x; undo is LIFO, so its previous last position lx finds its pairs."""
        x = self.word.pop()
        if lx < 0:
            self.stab_stack.pop()
            self.introduced -= 1
        self.counts[x] -= 1
        adj_x, alt_x, last, target = self.adj[x], self.alt[x], self.last, self.target
        last[x] = lx
        for y in range(self.n):
            if y != x and lx <= last[y]:
                runs = alt_x[y]
                if adj_x[y] and runs <= target:
                    self.total_deficit += 1
                    if runs == target:
                        self.deficient_deg[x] += 1
                        self.deficient_deg[y] += 1
                alt_x[y] = self.alt[y][x] = runs - 1

    def _candidates(self):
        n, counts, word = self.n, self.counts, self.word
        prev = word[-1] if word else -1
        stab = self.stab_stack[-1]
        for x in range(n):
            if x == prev or counts[x] >= self.max_copies:
                continue
            if counts[x] == 0:
                if any(p[x] < x for p in stab):
                    continue
            elif not self._useful(x):
                continue
            yield x

    def _prune(self, x: int) -> bool:
        """True when the subtree below the freshly appended x is hopeless."""
        rem = self.max_len - len(self.word)
        if self.n - self.introduced > rem:
            return True
        if self.total_deficit > 0:
            gmax = 0
            for z in range(self.n):
                if self.counts[z] < self.max_copies and self.deficient_deg[z] > gmax:
                    gmax = self.deficient_deg[z]
            if self.total_deficit > rem * gmax:
                return True
            for y in range(self.n):
                if self.adj[x][y] and self.alt[x][y] < self.target:
                    deficit = self.target - self.alt[x][y]
                    if deficit > rem:
                        return True
                    room = (self.max_copies - self.counts[x]) + (
                        self.max_copies - self.counts[y]
                    )
                    if deficit > room:
                        return True
        return False

    def _children(self, depth_cap: int | None, prefix_sink):
        """The letters to try below the current word, fixed on entry: none
        at the length bound, and none at the depth cap, where the word is
        emitted to prefix_sink instead of being expanded."""
        if len(self.word) >= self.max_len:
            return iter(())
        if depth_cap is not None and len(self.word) >= depth_cap:
            prefix_sink.append((tuple(self.word), self.nodes))
            return iter(())
        return iter(list(self._candidates()))

    def dfs(self, depth_cap: int | None = None,
            prefix_sink: list[tuple[tuple[int, ...], int]] | None = None):
        """Exhaust the subtree below the current word.  The stack holds one
        candidate iterator per open word, and undos[k] removes the letter
        that opened frames[k + 1], so depth is bounded by max_len only."""
        frames = [self._children(depth_cap, prefix_sink)]
        undos = []
        while frames:
            x = next(frames[-1], None)
            if x is None:
                frames.pop()
                if undos:
                    self._undo(undos.pop())
                continue
            if self.nodes >= self.node_limit:
                self.limit_hit = True
                break
            ok, undo = self._append(x)
            if ok:
                if self.total_deficit == 0 and self.introduced == self.n:
                    self.found = list(self.word)
                    self._undo(undo)
                    break
                if not self._prune(x):
                    frames.append(self._children(depth_cap, prefix_sink))
                    undos.append(undo)
                    continue
            self._undo(undo)
        for undo in reversed(undos):
            self._undo(undo)

    def replay(self, prefix: tuple[int, ...]):
        for x in prefix:
            ok, _ = self._append(x)
            assert ok, "enumerated prefix cannot be in violation"
        self.nodes -= len(prefix)  # replays are bookkeeping, not exploration


def _run_prefix_batch_impl(n, adj, d, budget, auts, batch):
    """Worker: DFS-complete each (rank, (prefix, shallow nodes)) in rank
    order, under what the node limit leaves after the shallow nodes and this
    worker's earlier prefixes (never less than the sequential DFS leaves), up
    to the first witness or spent limit.  Returns {rank: (witness, nodes, limit_hit)}."""
    results = {}
    spent = 0
    for rank, (prefix, shallow) in batch:
        enum = _Enumeration(n, adj, d, budget, auts)
        enum.replay(prefix)
        enum.node_limit = budget.node_limit - shallow - spent
        enum.dfs()
        spent += enum.nodes
        results[rank] = (enum.found, enum.nodes, enum.limit_hit)
        if enum.found is not None or enum.limit_hit:
            break
    return results


def find_general_word(g: Graph, d: int, budget: SearchBudget, jobs: int = 1) -> SearchVerdict:
    """Search for a word whose level-d induced graph equals g exactly.

    A found witness is re-verified through the independent induced-graph
    path before being returned.  The prefix tree is split over at most
    min(jobs, CPUs) processes; for every jobs value the verdict, witness
    and node count are the single-process DFS's, so the node count never
    exceeds the node limit.
    """
    if d < 1:
        raise SearchError("d must be a positive integer")
    if len(g.vertices) == 0:
        raise SearchError("graph must have at least one vertex")
    if budget.max_total_length < len(g.vertices):
        raise SearchError("max_total_length is below the vertex count")
    if jobs < 1:
        raise SearchError("jobs must be >= 1")

    letters, adj = _problem_arrays(g)
    auts = automorphisms(g)
    limit = budget.node_limit

    def verdict_from(found, nodes: int, limit_hit: bool) -> SearchVerdict:
        # The sequential DFS stops at its first try with `limit` nodes
        # explored, and so reports exactly `limit` nodes.
        if limit_hit or nodes > limit:
            return SearchVerdict(NODE_LIMIT, None, limit)
        if found is None:
            return SearchVerdict(NOT_FOUND, None, nodes)
        w = Word(tuple(letters[i] for i in found))
        if induced_graph_general(w, d) != g:
            raise RuntimeError(f"witness {w} fails post-hoc verification")
        return SearchVerdict(FOUND, w, nodes)

    # Enumerate the canonical prefixes at the cut, each with the sequential
    # node count up to and including it.  With one worker the cut is at
    # depth 0: the one prefix is the empty word and its DFS is the whole
    # search.  A witness no deeper than the cut ends the enumeration, after
    # every prefix emitted before it.
    workers = min(jobs, os.cpu_count() or 1)
    args = (len(letters), adj, d, budget, auts)
    enum = _Enumeration(*args)
    prefixes: list[tuple[tuple[int, ...], int]] = []
    enum.dfs(depth_cap=0 if workers == 1 else 2, prefix_sink=prefixes)
    ranked = list(enumerate(prefixes))
    k = min(workers, len(ranked))
    batches = [ranked[w::k] for w in range(k)]
    if k <= 1:
        parts = [_run_prefix_batch_impl(*args, b) for b in batches]
    else:
        # Imported on first use: multiprocessing and its dependencies add
        # about 2 MB of resident memory (CPython 3.11, Linux) to every
        # process that imports wordnerve.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=k) as pool:
            futures = [pool.submit(_run_prefix_batch_impl, *args, b) for b in batches]
            parts = [f.result() for f in futures]
    results = {rank: r for part in parts for rank, r in part.items()}

    # Add up the nodes in sequential order.  A worker stops after a witness
    # or a spent limit, so only a rank after such a stop can be missing.
    spent = 0
    for rank, (_, shallow) in ranked:
        if rank not in results:
            raise RuntimeError(f"no result for search prefix {rank}")
        found, nodes, limit_hit = results[rank]
        spent += nodes
        if found is not None or limit_hit or shallow + spent > limit:
            return verdict_from(found, shallow + spent, limit_hit)
    return verdict_from(enum.found, enum.nodes + spent, enum.limit_hit)


def general_rep_number_bounded(g: Graph, max_d: int, budget: SearchBudget,
                               jobs: int = 1) -> dict[int, SearchVerdict]:
    """Verdict per d in 1..max_d; the least d with a witness is the
    budget-relative upper bound for the representation number."""
    if max_d < 1:
        raise SearchError("max_d must be >= 1")
    return {d: find_general_word(g, d, budget, jobs=jobs) for d in range(1, max_d + 1)}


def gr_upper_bound(results: dict[int, SearchVerdict]) -> int | None:
    hits = [d for d, v in sorted(results.items()) if v.found]
    return hits[0] if hits else None

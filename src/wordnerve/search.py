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

`find_general_word` builds the problem once (`_problem`: neighbour lists,
d + 2, the copy and length bounds and the non-identity automorphisms).
Every DFS runs over it as `_dfs`, which returns (witness or None, nodes,
limit_hit): the prefix cut and each prefix's completion.  The tree can be
split at a prefix depth over processes, the caller among them.  Each takes
the lowest untaken prefix rank from one shared counter until the ranks pass
a shared stop rank, which a witness or spent limit lowers and a running DFS
polls.  The caller adds up the node counts in sequential order, so every
process count returns the sequential verdict, node count included.
"""

from __future__ import annotations

import os
from contextlib import nullcontext, suppress

from .graphs import Graph, Record
from .words import Word, induced_graph_general

FOUND = "found"
NOT_FOUND = "not_found_within_budget"
NODE_LIMIT = "node_limit_exceeded"
_POLL = 1024  # DFS nodes between two reads of the shared stop rank


class SearchError(ValueError):
    """Degenerate budget or unusable search input."""


class SearchBudget(Record):
    max_copies_per_letter: int
    max_total_length: int
    node_limit: int

    def __post_init__(self):
        if self.max_copies_per_letter < 1 or self.max_total_length < 1 or self.node_limit < 1:
            raise SearchError("budget fields must all be positive")


class SearchVerdict(Record):
    outcome: str
    witness: Word | None
    nodes_explored: int

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (`taskset` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _problem(g: Graph, d: int, budget: SearchBudget):
    """The search problem of g at level d, built once per search and read by
    every `_dfs` call: (nbrs, non_nbrs, d + 2, copy bound, length bound,
    automorphisms other than the identity), over the sorted vertex indices."""
    _, adj = _problem_arrays(g)
    n = len(adj)
    identity = tuple(range(n))
    return ([[y for y in range(n) if adj[x][y]] for x in range(n)],
            [[y for y in range(n) if y != x and not adj[x][y]] for x in range(n)],
            d + 2, budget.max_copies_per_letter, budget.max_total_length,
            [p for p in automorphisms(g) if p != identity])


def _dfs(problem, node_limit: int, prefix: tuple[int, ...] = (), depth_cap: int | None = None,
         prefix_sink: list[tuple[tuple[int, ...], int]] | None = None, ranks=None, rank: int = 0):
    """Exhaust the subtree below `prefix`, a word this search enumerated
    (neither a witness nor pruned), whose letters are replayed but not
    counted as nodes, and return (witness or None, nodes, limit_hit).  A
    word at depth_cap goes to prefix_sink with the node count so far
    instead of being expanded.  Given `ranks` (next rank, stop rank), it
    abandons the prefix, of rank `rank`, once the stop rank is below it.

    The state is over letter indices: last[x] is the word position of x's
    last copy or -1, and alt[x][y] the run count of the pair; appending x
    opens a run of {x, y} iff last[x] <= last[y].  One loop, no recursion:
    its[k] iterates the children of the word's first k letters, fixed on
    entry, and lxs[k] is the previous last position of the word's letter
    k, which is all its undo needs."""
    nbrs, non_nbrs, target, max_copies, max_len, auts = problem
    n, cap = len(nbrs), max_len if depth_cap is None else depth_cap
    word: list[int] = []
    alt = [[0] * n for _ in range(n)]
    last = [-1] * n
    counts = [0] * n
    deficient_deg = [len(ys) for ys in nbrs]
    deficit = target * sum(deficient_deg) // 2  # runs still owed, over all edges
    introduced = 0
    stabs = [auts]
    nodes = -len(prefix)
    check = node_limit if ranks is None else min(node_limit, nodes + _POLL)
    its: list = []
    lxs: list[int] = []
    x = -1  # the word's last letter whenever a word is opened
    opened = True
    while True:
        if opened:  # fix the children of the word just opened
            depth = len(word)
            kids = ()
            if depth < len(prefix):
                kids = prefix[depth:depth + 1]
            elif depth < max_len:
                # the cuts, on every word but the root: a slot for each
                # missing letter, and room for every run still owed
                rem = max_len - depth
                pruned = depth > 0 and n - introduced > rem
                if depth > 0 and deficit and not pruned:
                    gmax = 0
                    for z in range(n):
                        if counts[z] < max_copies and deficient_deg[z] > gmax:
                            gmax = deficient_deg[z]
                    pruned = deficit > rem * gmax
                    alt_x, room = alt[x], 2 * max_copies - counts[x]
                    for y in nbrs[x]:
                        owed = target - alt_x[y]
                        if owed > 0 and (owed > rem or owed > room - counts[y]):
                            pruned = True
                            break
                if pruned:
                    pass
                elif depth >= cap:
                    prefix_sink.append((tuple(word), nodes))
                else:
                    kids = []
                    stab = stabs[-1]
                    for z in range(n):
                        if z == x or counts[z] >= max_copies:
                            continue
                        if counts[z] == 0:
                            for p in stab:
                                if p[z] < z:
                                    break
                            else:
                                kids.append(z)
                            continue
                        alt_z, lz = alt[z], last[z]
                        for y in nbrs[z]:
                            if alt_z[y] < target and lz < last[y]:
                                kids.append(z)
                                break
            its.append(iter(kids))
        x = next(its[-1], -1)
        if x < 0:  # children exhausted: close the word
            its.pop()
            if not lxs:
                return None, nodes, False
            x, lx = word.pop(), lxs.pop()
            if lx < 0:
                stabs.pop()
                introduced -= 1
            counts[x] -= 1
            last[x] = lx
            alt_x = alt[x]
            for y in nbrs[x]:
                if lx <= last[y]:
                    runs = alt_x[y]
                    if runs <= target:
                        deficit += 1
                        if runs == target:
                            deficient_deg[x] += 1
                            deficient_deg[y] += 1
                    alt_x[y] = alt[y][x] = runs - 1
            for y in non_nbrs[x]:
                if lx <= last[y]:
                    alt_x[y] = alt[y][x] = alt_x[y] - 1
            opened = False
            continue
        if nodes >= check:
            if nodes >= node_limit or ranks[1] < rank:
                return None, nodes, nodes >= node_limit
            check = min(node_limit, nodes + _POLL)
        nodes += 1
        lx, alt_x = last[x], alt[x]
        opened = False
        for y in non_nbrs[x]:
            if lx <= last[y] and alt_x[y] == target - 1:
                break  # a non-edge would become d-intersecting: hopeless
        else:
            for y in nbrs[x]:
                if lx <= last[y]:
                    runs = alt_x[y] + 1
                    alt_x[y] = alt[y][x] = runs
                    if runs <= target:
                        deficit -= 1
                        if runs == target:
                            deficient_deg[x] -= 1
                            deficient_deg[y] -= 1
            for y in non_nbrs[x]:
                if lx <= last[y]:
                    alt_x[y] = alt[y][x] = alt_x[y] + 1
            if lx < 0:
                introduced += 1
                stabs.append([p for p in stabs[-1] if p[x] == x])
            counts[x] += 1
            last[x] = len(word)
            word.append(x)
            lxs.append(lx)
            if deficit == 0 and introduced == n:
                return word, nodes, False
            opened = True


def _run_prefixes(problem, node_limit, prefixes, ranks):
    """Until the ranks run out or pass the stop rank, which a witness or spent
    limit lowers, take the lowest untaken rank from `ranks` (next rank, stop
    rank; a list in a lone process) and DFS-complete its (prefix, shallow
    nodes) under the limit less the shallow nodes and this process's earlier,
    lower ranks.  Returns {rank: (witness, nodes, limit_hit)}."""
    lock = ranks.get_lock() if hasattr(ranks, "get_lock") else nullcontext()
    results, spent = {}, 0
    while True:
        with lock:
            rank = ranks[0]
            if rank == len(prefixes) or rank > ranks[1]:
                return results
            ranks[0] = rank + 1
        prefix, shallow = prefixes[rank]
        results[rank] = found, nodes, limit_hit = _dfs(
            problem, max(0, node_limit - shallow - spent), prefix, ranks=ranks, rank=rank)
        spent += nodes
        if found is not None or limit_hit:
            with lock:
                ranks[1] = min(ranks[1], rank)


def _search_child(problem, node_limit, prefixes, ranks, pipe):
    """Send the caller this child's `_run_prefixes` dict, or what it raised."""
    pipe[0].close()  # a forked child inherits it: only the caller may hold it
    try:
        result = _run_prefixes(problem, node_limit, prefixes, ranks)
    except Exception as exc:
        result = exc
    with suppress(OSError):  # the caller has failed and closed its end
        pipe[1].send(result)


def find_general_word(g: Graph, d: int, budget: SearchBudget, jobs: int = 1) -> SearchVerdict:
    """Search for a word whose level-d induced graph equals g exactly.

    A found witness is re-verified through the independent induced-graph
    path before being returned.  The prefix tree is split over at most
    min(jobs, CPUs) processes, the caller included; for every jobs value
    the verdict, witness and node count are the single-process DFS's, so
    the node count never exceeds the node limit.
    """
    if d < 1:
        raise SearchError("d must be a positive integer")
    if len(g.vertices) == 0:
        raise SearchError("graph must have at least one vertex")
    if budget.max_total_length < len(g.vertices):
        raise SearchError("max_total_length is below the vertex count")
    if jobs < 1:
        raise SearchError("jobs must be >= 1")

    problem = _problem(g, d, budget)
    limit = budget.node_limit

    def verdict_from(found, nodes: int, limit_hit: bool) -> SearchVerdict:
        # The sequential DFS stops at its first try with `limit` nodes
        # explored, and so reports exactly `limit` nodes.
        if limit_hit or nodes > limit:
            return SearchVerdict(NODE_LIMIT, None, limit)
        if found is None:
            return SearchVerdict(NOT_FOUND, None, nodes)
        w = Word(tuple(g.vertices[i] for i in found))
        if induced_graph_general(w, d) != g:
            raise RuntimeError(f"witness {w} fails post-hoc verification")
        return SearchVerdict(FOUND, w, nodes)

    # Enumerate the canonical prefixes at the cut, each with the sequential
    # node count up to and including it.  With one process the cut is at
    # depth 0: the one prefix is the empty word and its DFS is the whole
    # search.  Otherwise the cut deepens from depth 2 while the prefixes
    # grow and number fewer than 8 per process.  A witness or spent limit no
    # deeper than the cut ends the enumeration, after every prefix emitted
    # before it.
    workers = min(jobs, usable_cpus())
    depth, previous = (0 if workers == 1 else 2), 0
    while True:
        prefixes = []
        cut = _dfs(problem, limit, (), depth, prefixes)  # (witness, nodes, limit_hit)
        if (depth == 0 or not previous < len(prefixes) < 8 * workers
                or cut[0] is not None or cut[2]):
            break
        depth, previous = depth + 1, len(prefixes)
    k = min(workers, len(prefixes))
    if k <= 1:
        results = _run_prefixes(problem, limit, prefixes, [0, len(prefixes)])
    else:
        # Imported on first use: it costs 2 MB resident (CPython 3.11, Linux).
        import multiprocessing

        ranks = multiprocessing.Array("q", [0, len(prefixes)])  # an argument: spawn works
        children, conns = [], []
        try:
            for _ in range(k - 1):
                conn, send_end = pipe = multiprocessing.Pipe(duplex=False)
                conns.append(conn)
                children.append(multiprocessing.Process(
                    target=_search_child, args=(problem, limit, prefixes, ranks, pipe)))
                children[-1].start()
                send_end.close()  # so a child's exit without a result reads as EOF
            results = _run_prefixes(problem, limit, prefixes, ranks)
            for conn in conns:
                try:
                    part = conn.recv()
                except EOFError:
                    raise RuntimeError("a search process ended without a result") from None
                if isinstance(part, BaseException):
                    raise part
                results.update(part)
        finally:
            ranks[1] = -1  # after a failure, every child stops at its next poll
            for conn in conns:
                conn.close()  # and none blocks in send
            for child in children:
                child.join()

    # Add up the nodes in sequential order, ending at the stop rank (a witness
    # or spent limit) at the latest: no rank left out or abandoned is read.
    spent = 0
    for rank, (_, shallow) in enumerate(prefixes):
        if rank not in results:
            raise RuntimeError(f"no result for search prefix {rank}")
        found, nodes, limit_hit = results[rank]
        spent += nodes
        if found is not None or limit_hit or shallow + spent > limit:
            return verdict_from(found, shallow + spent, limit_hit)
    return verdict_from(cut[0], cut[1] + spent, cut[2])


def general_rep_number_bounded(g: Graph, max_d: int,
                               budget: SearchBudget) -> dict[int, SearchVerdict]:
    """Verdict per d in 1..max_d; the least d with a witness is the
    budget-relative upper bound for the representation number."""
    if max_d < 1:
        raise SearchError("max_d must be >= 1")
    return {d: find_general_word(g, d, budget) for d in range(1, max_d + 1)}


def gr_upper_bound(results: dict[int, SearchVerdict]) -> int | None:
    hits = [d for d, v in sorted(results.items()) if v.found]
    return hits[0] if hits else None

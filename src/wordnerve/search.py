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
limit_hit): the prefix cut and each prefix's completion.

On graphs of at most `_UNROLL_MAX` vertices the DFS is Python source
generated once per vertex count n and compiled on first use: every
letter's last position, copy count and count of owed edges and every
pair's run count is a local variable, and each step is unrolled over the
letters, so a node does no list subscript and runs no loop over
neighbours.  It walks the same tree as the list-based loop, about twice as
fast.  The graph, d + 2, the bounds, the limit and the prefix come in as
arguments, so the text depends on n alone and one compiled function per n
serves every search in the process (a forked child inherits them, a
spawned one compiles its own).  The text grows as about 16 n^2 lines,
and its compile time and memory with it: about 10 ms and 4 MB at n = 10,
0.2 s and 70 MB at n = 40, so gigabytes at the hundreds of vertices a
search may be given.  So above the bound the loop runs, and below it the
loop is the tests' differential reference.

The tree can be split at a prefix depth over processes, the caller among
them.  Each takes the lowest untaken prefix rank from one shared counter
until the ranks pass a shared stop rank, which a witness or spent limit
lowers and a running DFS polls.  The caller adds up the node counts in
sequential order, so every process count returns the sequential verdict,
node count included.
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
_UNROLL_MAX = 10  # the most letters whose DFS runs as generated code (module docstring)
_UNROLLED: dict = {}  # letter count -> its compiled `_dfs_source` function


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

    Up to _UNROLL_MAX letters this runs the code `_dfs_source` generates
    for the letter count, with every letter's and pair's state in a local
    variable; above it, `_dfs_loop` on lists.  Both walk the same tree in
    the same order and return the same values."""
    nbrs, _, target, max_copies, max_len, auts = problem
    n = len(nbrs)
    if n > _UNROLL_MAX:
        return _dfs_loop(problem, node_limit, prefix, depth_cap, prefix_sink, ranks, rank)
    dfs = _UNROLLED.get(n)
    if dfs is None:
        scope: dict = {}
        exec(compile(_dfs_source(n), f"<search dfs over {n} letters>", "exec"), scope)
        dfs = _UNROLLED[n] = scope["dfs"]
    edges = [y in nbrs[x] for x in range(n) for y in range(x + 1, n)]
    return dfs(edges, [len(ys) for ys in nbrs], target, max_copies, max_len,
               max_len if depth_cap is None else depth_cap, node_limit, prefix, prefix_sink,
               ranks, rank, auts)


def _dfs_source(n: int) -> str:
    """The source of `dfs`, `_dfs` over n letters with no list of letter or
    pair state: Lx is the word position of x's last copy or -1, Cx its copy
    count, Dx its count of edges still owed runs, and Ax_y (x < y) the run
    count of the pair less the d + 2 runs it owes if it is an edge, so an
    edge is owed runs while Ax_y < 0.  Hx_y is the Ax_y at which a
    non-edge's next run would make it d-intersecting (below any Ax_y on an
    edge).  The graph comes in as one flag per pair and the degrees, so the
    text depends on n alone.  The append and the undo of a letter are
    unrolled over the other letters, one block per letter behind a test of
    x; the cuts and the child listing, unrolled over all letters, are
    shared.  No recursion: frames[k] holds, for the word's letter k, its
    parent's child iterator, the letter, its previous last position and
    its parent's stabiliser."""
    letters = range(n)
    lines: list[str] = []

    def put(indent: int, *texts: str):
        lines.extend("    " * indent + text for text in texts)

    def pair(name: str, x: int, y: int) -> str:
        return f"{name}{min(x, y)}_{max(x, y)}"

    def per_letter(indent: int, block):
        """`block(indent, x)` for each letter x, behind a test of x."""
        for x in letters:
            if n > 1:
                put(indent, "else:" if x == n - 1 else f"{'el' * (x > 0)}if x == {x}:")
            block(indent + (n > 1), x)

    def append(indent: int, x: int):
        """Append x unless a non-edge would become d-intersecting, and set
        `cut` if an edge of x can no longer get its runs."""
        others = [y for y in letters if y != x]
        put(indent, f"lx = L{x}")
        if others:
            fatal = " or ".join(f"{pair('A', x, y)} == {pair('H', x, y)} and lx <= L{y}"
                                for y in others)
            put(indent, f"if {fatal}:", "    continue")
        for y in others:
            a = pair("A", x, y)
            put(indent, f"if lx <= L{y}:")
            put(indent + 1, f"{a} += 1", f"if {a} <= 0:")
            put(indent + 2, "deficit -= 1", f"if not {a}:")
            put(indent + 3, f"D{x} -= 1", f"D{y} -= 1")
        # with rem > 0, as wherever it is read, a pair owed no runs never cuts
        owed = " or ".join(f"{pair('A', x, y)} + rem < 0 or {pair('A', x, y)} + room < C{y}"
                           for y in others)
        put(indent, f"C{x} += 1", f"L{x} = depth", f"room = K2 - C{x}",
            f"cut = deficit and ({owed or 'False'})")

    def undo(indent: int, x: int):
        """Take back the copy of x appended after position lx."""
        put(indent, f"C{x} -= 1", f"L{x} = lx")
        for y in letters:
            if y != x:
                a = pair("A", x, y)
                put(indent, f"if lx <= L{y}:")
                put(indent + 1, f"if {a} <= 0:")
                put(indent + 2, "deficit += 1", f"if not {a}:")
                put(indent + 3, f"D{x} += 1", f"D{y} += 1")
                put(indent + 1, f"{a} -= 1")

    pairs = [(x, y) for x in letters for y in letters if x < y]
    put(0, "def dfs(edges, degrees, T, K, max_len, cap, node_limit, prefix, prefix_sink,"
           " ranks, rank, auts):")
    if pairs:
        put(1, "".join(f"E{x}_{y}, " for x, y in pairs) + "= edges")
    put(1, "".join(f"D{x}, " for x in letters) + "= degrees")
    for x, y in pairs:
        put(1, f"A{x}_{y}, H{x}_{y} = (-T, -T - 1) if E{x}_{y} else (0, T - 1)")
    put(1, " = ".join(f"L{x}" for x in letters) + " = -1",
        " = ".join(f"C{x}" for x in letters) + " = 0",
        "K2 = 2 * K",
        f"deficit = T * ({' + '.join(f'D{x}' for x in letters)}) // 2  # runs owed, all edges",
        "introduced = depth = 0", "frames = []", "stab = auts", "npre = len(prefix)",
        "nodes = -npre",
        f"check = node_limit if ranks is None else min(node_limit, nodes + {_POLL})",
        "if npre:", "    it = iter(prefix[:1])", "elif cap > 0:",
        f"    it = iter([z for z in range({n}) if all(p[z] >= z for p in auts)])", "else:",
        "    prefix_sink.append(((), nodes))", "    it = iter(())",
        "while True:", "    x = next(it, -1)")
    put(2, "if x < 0:  # children exhausted: close the word", "    if not depth:",
        "        return None, nodes, False", "    it, x, lx, stab = frames.pop()",
        "    depth -= 1", "else:")
    put(3, "if nodes >= check:", "    if nodes >= node_limit or ranks[1] < rank:",
        "        return None, nodes, nodes >= node_limit",
        f"    check = min(node_limit, nodes + {_POLL})", "nodes += 1",
        "rem = max_len - depth - 1")
    per_letter(3, append)
    # open the word: a witness returns, a word with children is pushed, and
    # any other is undone below, as a closed word is
    put(3, "if lx < 0:", "    introduced += 1",
        f"if not deficit and introduced == {n}:",
        "    return [f[1] for f in frames] + [x], nodes, False",
        "nstab = [p for p in stab if p[x] == x] if lx < 0 and stab else stab",
        "kids = ()", "if depth + 1 < npre:",
        "    kids = prefix[depth + 1:depth + 2]",
        # the cuts: a slot for each missing letter, and room for every run owed
        f"elif rem > 0 and {n} - introduced <= rem and not cut:", "    gmax = 0",
        "    if deficit:")
    for z in letters:
        put(5, f"if C{z} < K and D{z} > gmax:", f"    gmax = D{z}")
    put(4, "if deficit > rem * gmax:", "    pass", "elif depth + 1 >= cap:",
        "    prefix_sink.append(((*[f[1] for f in frames], x), nodes))", "else:",
        "    kids = []")
    # x itself is never useful: no letter's last copy follows it
    for z in letters:
        put(5, f"if C{z} < K:", f"    if not C{z}:")
        put(7, "for p in nstab:", f"    if p[{z}] < {z}:", "        break",
            "else:", f"    kids.append({z})")
        useful = " or ".join(f"{pair('A', z, y)} < 0 and L{z} < L{y}"
                             for y in letters if y != z)
        put(6, f"elif {useful or 'False'}:", f"    kids.append({z})")
    put(3, "if kids:")
    put(4, "frames.append((it, x, lx, stab))", "it = iter(kids)", "stab = nstab",
        "depth += 1", "continue")
    put(2, "if lx < 0:", "    introduced -= 1")
    per_letter(2, undo)
    return "\n".join(lines) + "\n"


def _dfs_loop(problem, node_limit: int, prefix: tuple[int, ...] = (),
              depth_cap: int | None = None,
              prefix_sink: list[tuple[tuple[int, ...], int]] | None = None, ranks=None,
              rank: int = 0):
    """`_dfs` on lists, for any letter count.  The state is over letter
    indices: last[x] is the word position of x's last copy or -1, and
    alt[x][y] the run count of the pair; appending x opens a run of {x, y}
    iff last[x] <= last[y].  One loop, no recursion: its[k] iterates the
    children of the word's first k letters, fixed on entry, and lxs[k] is
    the previous last position of the word's letter k, which is all its
    undo needs."""
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

"""The four workloads: seeded input streams, one operation each, and the
independent oracle every operation is checked against.

A workload yields inputs forever from `random.Random(seed)`; the library
only ever sees the generated inputs.  `run` is the timed operation and
calls the library through module attributes, so the probes in `probes.py`
see it.  `check` runs outside the timed region and returns
`(ok, counts, info)`: `counts` are the operation's deterministic counters
(equal on every run of one seed), `info` feeds workload metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import shutil
import subprocess
import sys
import time
import zlib
from fractions import Fraction
from itertools import combinations, count

from wordnerve import formats
from wordnerve.encode import word_any_graph, word_bipartite
from wordnerve.geometry import breen_intersect, gale_facets, hulls_intersect
from wordnerve.graphs import from_edge_list, is_triangle_free, one_skeleton
from wordnerve.nerve import (
    DegenerateInputError,
    extend_coloring_2d,
    nerve,
    realize_on_moment_curve,
)
from wordnerve.search import FOUND, NODE_LIMIT, SearchBudget, find_general_word
from wordnerve.words import Word, induced_graph_general

# Modules, not names: the probes patch these attributes.  The package
# re-exports a function called `nerve`, so `import wordnerve.nerve as m`
# would bind that function instead of the module.
wn_cli, wn_nerve, wn_search, wn_words = (
    importlib.import_module(f"wordnerve.{name}") for name in ("cli", "nerve", "search", "words")
)

# (d, colors, length, edges): a Latin square over (d, colors), with the
# length chosen so that a level-d graph with about half of all pairs as
# edges is common.  Fixing the edge count fixes how many candidate faces
# reach the LP, which cuts the spread of one verdict's cost from ~0.45 to
# ~0.25 of its mean; words stay short enough (tens of ms each) that a run
# holds hundreds of verdicts.  An odd number of equally weighted strata
# puts the median inside one stratum rather than on a boundary.
NERVE_STRATA = (
    (2, 4, 12, 3), (2, 5, 14, 5), (2, 6, 16, 7),
    (3, 4, 16, 3), (3, 5, 18, 5), (3, 6, 20, 7),
    (4, 4, 18, 3), (4, 5, 20, 5), (4, 6, 22, 7),
)
# (mode, colors or (part sizes, edges), extras).  Fixed sizes per stratum
# keep the cost of one extension within a small factor.
EXTEND_STRATA = (
    ("planar", 4, 10), ("bipartite", ((2, 3), 4), 10), ("planar", 5, 15),
    ("bipartite", ((2, 3), 4), 15), ("planar", 5, 20),
)
# (vertices, edges, max_len, d), connected graphs only.  A fixed edge
# count keeps the cost of one verdict within a small factor; Bernoulli
# graphs, and six-vertex graphs at any max_len, are either pruned at once
# or take seconds.  Every instance is exhausted far below the node limit,
# so the jobs=1 and jobs=2 verdicts must agree.
SEARCH_STRATA = ((5, 6, 14, 3), (5, 7, 14, 3), (5, 5, 14, 4), (5, 6, 14, 4), (5, 8, 14, 3))
SEARCH_NODE_LIMIT = 2_000_000
FACETS = (23, 6)  # gale_facets takes about 0.6-1 s on a shared 2-core VM
CLI_POOL = 3  # distinct inputs per subcommand; later cycles repeat them


def crc(text: str) -> int:
    return zlib.crc32(text.encode())


# -- input generators ---------------------------------------------------------

def level_edges(letters, d: int) -> set[tuple[str, str]]:
    """Pairs whose alternation reaches d+2, by counting the runs of each
    pair restriction; the benchmark's own route, not the library's."""
    out = set()
    for x, y in combinations(sorted(set(letters)), 2):
        runs, prev = 0, None
        for a in letters:
            if (a == x or a == y) and a != prev:
                runs, prev = runs + 1, a
        if runs >= d + 2:
            out.add((x, y))
    return out


def random_word(rng, k: int, n: int) -> Word:
    """n letters over exactly k colors c0..c{k-1}."""
    while True:
        seq = [f"c{rng.randrange(k)}" for _ in range(n)]
        if len(set(seq)) == k:
            return Word(tuple(seq))


def random_graph(rng, n: int, m: int, connected: bool = False):
    """n vertices and m edges drawn uniformly, optionally until connected."""
    vs = [str(i) for i in range(n)]
    while True:
        edges = rng.sample(list(combinations(vs, 2)), m)
        reached, frontier = {vs[0]}, [vs[0]]
        while frontier:
            x = frontier.pop()
            for e in edges:
                if x in e:
                    y = e[1] if e[0] == x else e[0]
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if not connected or len(reached) == n:
            return from_edge_list(edges, vs)


def random_bipartite(rng, small=(2, 3), large=(3, 4), edges=None):
    """Parts of `small` and `large` vertices (ranges), no isolated vertex;
    `edges` fixes the edge count."""
    while True:
        vs = [f"v{i}" for i in range(rng.randint(*small))]
        us = [f"u{j}" for j in range(rng.randint(*large))]
        pairs = [(v, u) for v in vs for u in us]
        chosen = (rng.sample(pairs, edges) if edges is not None
                  else [e for e in pairs if rng.random() < 0.6])
        if len({x for e in chosen for x in e}) == len(vs) + len(us):
            return from_edge_list(chosen)


def triangle_free_word(rng, k: int, n: int) -> Word:
    """A word whose level-2 graph has no triangle (the planar extension's
    precondition on the nerve)."""
    while True:
        w = random_word(rng, k, n)
        if is_triangle_free(from_edge_list(level_edges(w.letters, 2), w.alphabet)):
            return w


def general_position_extras(rng, points, count_: int):
    """Planar extras with no collinear triple among themselves and the
    configuration (the planar extension rejects any)."""
    def collinear(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])

    pts = list(points)
    out = []
    span = len(points) + 2
    while len(out) < count_:
        cand = (
            Fraction(rng.randint(-3 * span, 3 * span), rng.randint(1, 5)),
            Fraction(rng.randint(-span * span, 3 * span * span), rng.randint(1, 5)),
        )
        if cand in pts or any(collinear(a, b, cand) for a, b in combinations(pts, 2)):
            continue
        pts.append(cand)
        out.append(cand)
    return out


def free_extras(rng, points, d: int, length: int, count_: int):
    taken = set(points)
    out = []
    while len(out) < count_:
        cand = tuple(
            Fraction(rng.randint(-2 * length, length * length), rng.randint(1, 7))
            for _ in range(d)
        )
        if cand not in taken:
            taken.add(cand)
            out.append(cand)
    return out


class Workload:
    counts_lp = True  # LP calls and hull tests are part of the counters
    calibration_ref_s = 0.0005
    # op_tail_ms: the highest of p75, p90, p95 and p99 with at least ten
    # operations beyond it at the sample count a run of this workload
    # reaches.  It is fixed per workload: picked from each run's own count,
    # it moved with the machine's speed and the tail moved with it.
    tail_percentile = 90

    def calibrate(self) -> float:
        """Wall time of a fixed pure-Python unit of work (Fraction and int
        arithmetic, like the library's hot loops; no wordnerve code).

        On a shared 2-core VM, speed drifts by up to a third within minutes,
        which moved raw medians between runs by more than any useful bound.
        The runner takes a unit right before and right after every timed
        operation and scales end-to-end times by calibration_ref_s over the
        run's mean unit time: they read as on a machine where one unit takes
        calibration_ref_s.  The unscaled values go to the stamp.
        """
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.perf_counter() - t0

    def close(self):
        pass


# -- nerve-pipeline -----------------------------------------------------------

class NervePipeline(Workload):
    """Word -> induced graph -> moment-curve realization -> nerve(max_dim=2)."""

    tail_percentile = 95  # 300-450 operations a run

    def inputs(self, rng):
        for i in count():
            slot = i % (len(NERVE_STRATA) + 2)
            if slot < len(NERVE_STRATA):
                d, k, n, m = NERVE_STRATA[slot]
                w = random_word(rng, k, n)
                while len(level_edges(w.letters, d)) != m:
                    w = random_word(rng, k, n)
                yield {"word": w, "d": d, "source": None}
            elif slot == len(NERVE_STRATA):
                g = random_graph(rng, 5, 4)  # d = 3, 20 letters
                w, d = word_any_graph(g)
                yield {"word": w, "d": d, "source": g}
            else:
                g = random_bipartite(rng, (2, 2), (3, 3), edges=4)  # d = 2, 16 letters
                w, d = word_bipartite(g)
                yield {"word": w, "d": d, "source": g}

    def run(self, inp):
        w, d = inp["word"], inp["d"]
        g = wn_words.induced_graph_general(w, d)
        config = wn_nerve.realize_on_moment_curve(w, d)
        return g, wn_nerve.nerve(config, 2)

    def check(self, inp, out):
        g, result = out
        w, d = inp["word"], inp["d"]
        skeleton = one_skeleton(result.complex)
        ok = skeleton == g and set(g.edges) == level_edges(w.letters, d)
        ok = ok and (inp["source"] is None or g == inp["source"])
        positions = {c: [i + 1 for i, a in enumerate(w.letters) if a == c] for c in w.alphabet}
        for a, b in combinations(sorted(positions), 2):
            face = result.complex.is_face((a, b))
            ok = ok and face == breen_intersect(positions[a], positions[b], d)
        if is_triangle_free(g):
            ok = ok and not result.complex.faces_of_size(3)
        faces = [len(result.complex.faces_of_size(k)) for k in (2, 3)]
        return ok, faces, {}


# -- extend -------------------------------------------------------------------

class Extend(Workload):
    """Planar and bipartite extensions in rotation over EXTEND_STRATA."""

    tail_percentile = 90  # 140-170 operations a run

    def inputs(self, rng):
        for i in count():
            mode, shape, n_extras = EXTEND_STRATA[i % len(EXTEND_STRATA)]
            if mode == "planar":
                w = triangle_free_word(rng, shape, 10)
                config = realize_on_moment_curve(w, 2)
                extras = general_position_extras(rng, config.points, n_extras)
                g = from_edge_list(level_edges(w.letters, 2), w.alphabet)
            else:
                # a part of two vertices, so d = 2: with three, one
                # extension takes ~0.4 s and a run holds too few
                (small, large), edges = shape
                g = random_bipartite(rng, (small, small), (large, large), edges)
                w, d = word_bipartite(g)
                config = realize_on_moment_curve(w, d)
                extras = free_extras(rng, config.points, d, len(w), n_extras)
            yield {"mode": mode, "word": w, "graph": g, "config": config, "extras": extras}

    def run(self, inp):
        try:
            if inp["mode"] == "planar":
                return wn_nerve.extend_coloring_2d(inp["config"], inp["extras"])
            return wn_nerve.extend_coloring_bipartite(
                inp["graph"], inp["word"], inp["config"], inp["extras"]
            )
        except DegenerateInputError as exc:
            return "rejected", str(exc)

    def check(self, inp, out):
        config, extras = inp["config"], inp["extras"]
        info = {"mode": inp["mode"], "extras": len(extras),
                "pairs": len(config.color_labels) * (len(config.color_labels) - 1) // 2}
        if isinstance(out, tuple):
            # An extra exactly on a separator hyperplane is a correct rejection.
            ok = inp["mode"] == "bipartite" and "separator hyperplane" in out[1]
            return ok, out, info
        n = len(config.points)
        ok = (
            out.points[:n] == config.points
            and out.colors[:n] == config.colors
            and list(out.points[n:]) == extras
        )
        # The original classes are kept, so no intersection can vanish: the
        # nerve is unchanged iff every non-edge pair stays disjoint (the
        # graph is triangle-free, so no 2-face can appear without one).
        classes = out.classes()
        g = inp["graph"]
        for a, b in combinations(g.vertices, 2):
            if not g.has_edge(a, b):
                ok = ok and not hulls_intersect([classes[a], classes[b]])
        return ok, (crc(" ".join(out.colors[n:])),), info


# -- search -------------------------------------------------------------------

class Search(Workload):
    """find_general_word at jobs=1, then the same instance at jobs=2."""

    counts_lp = False
    tail_percentile = 90  # 150-180 operations a run

    def __init__(self, probe):
        self.probe = probe

    def inputs(self, rng):
        for i in count():
            n, m, max_len, d = SEARCH_STRATA[i % len(SEARCH_STRATA)]
            budget = SearchBudget(3, max_len, SEARCH_NODE_LIMIT)
            yield {"graph": random_graph(rng, n, m, connected=True), "d": d, "budget": budget}

    def run(self, inp):
        args = (inp["graph"], inp["d"], inp["budget"])
        t0 = time.perf_counter()
        v1 = wn_search.find_general_word(*args, jobs=1)
        t1 = time.perf_counter()
        # Probes do not follow work into worker processes: the per-layer
        # numbers come from the jobs=1 pass alone.
        active, self.probe.active = self.probe.active, False
        try:
            v2 = wn_search.find_general_word(*args, jobs=2)
        finally:
            self.probe.active = active
        t2 = time.perf_counter()
        return v1, v2, t1 - t0, t2 - t1

    def check(self, inp, out):
        v1, v2, t1, t2 = out
        ok = v1.outcome != NODE_LIMIT and (v2.outcome, v2.witness) == (v1.outcome, v1.witness)
        if v1.found:
            ok = ok and induced_graph_general(v1.witness, inp["d"]) == inp["graph"]
        info = {"nodes1": v1.nodes_explored, "nodes2": v2.nodes_explored,
                "t1": t1, "t2": t2, "found": v1.found}
        return ok, (v1.outcome, str(v1.witness), v1.nodes_explored, v2.nodes_explored), info


# -- cli ----------------------------------------------------------------------

class Cli(Workload):
    """One `wordnerve` call per operation, cycling over six subcommands.

    Apart from `facets`, every call is kept to a few milliseconds of work
    after start-up (three colors, three extras, a 4-vertex search), so the
    median is start-up plus formats; with more, the median followed
    whichever three inputs a seed drew.  `gale_facets` shows in ops_per_s.

    Untraced, each call is a fresh interpreter, as from a shell.  Traced,
    `wordnerve.cli.main(argv)` runs in-process so the probes see it.  The
    expected stdout is the in-process library result put through
    `formats`, computed once per distinct input.
    """

    counts_lp = False
    # 55-70 operations a run.  p75 lies among the `extend` calls: start-up
    # plus a few milliseconds, which the calibration unit tracks.  When it
    # lay among the `facets` calls (about 1 s of pure-Python enumeration),
    # it swung by a sixth between runs, because their speed follows the
    # machine's compute speed and not its start-up speed.
    tail_percentile = 75
    CYCLE = ("induce", "encode", "realize", "facets", "extend", "search")
    CONSOLE = "import sys; from wordnerve.cli import main; sys.exit(main())"
    calibration_ref_s = 0.035
    CALIBRATION = ("from fractions import Fraction as F\n"
                   "sum(F(i, i + 7) * F(3, i + 1) for i in range(1, 400))")

    def __init__(self, root, env, traced: bool):
        self.root = root
        self.env = env
        self.traced = traced
        self.workdir = root / ".bench_state" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.expected: dict[str, tuple[int, str]] = {}
        self.made = count()

    def calibrate(self) -> float:
        """A bare interpreter's start-up plus the in-process unit's kind of
        work, in a child process: a call here is both."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", self.CALIBRATION], cwd=self.root, check=True)
        return time.perf_counter() - t0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _file(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path.relative_to(self.root))

    def inputs(self, rng):
        pool: dict[tuple[str, int], dict] = {}
        for i in count():
            sub = self.CYCLE[i % len(self.CYCLE)]
            key = (sub, (i // len(self.CYCLE)) % CLI_POOL)
            if key not in pool:
                pool[key] = self._make(rng, sub, f"{sub}{next(self.made)}")
            yield pool[key]

    def _make(self, rng, sub: str, tag: str) -> dict:
        if sub == "induce":
            w, d = random_word(rng, 6, 30), rng.randint(2, 3)
            argv = ["induce", self._file(tag + ".txt", formats.dump_words_text([w])),
                    "--dim", str(d)]
            expect = lambda: (0, formats.dump_json(formats.graph_to_doc(induced_graph_general(w, d))))
        elif sub == "encode":
            g = random_bipartite(rng)
            argv = ["encode", self._file(tag + ".txt", formats.dump_graph_text(g)),
                    "--mode", "bipartite"]
            expect = lambda: (0, formats.dump_words_text([word_bipartite(g)[0]]))
        elif sub == "realize":
            w = random_word(rng, 3, 8)
            argv = ["realize", self._file(tag + ".txt", formats.dump_words_text([w])),
                    "--dim", "3"]
            expect = lambda: (0, formats.dump_json(formats.config_to_doc(realize_on_moment_curve(w, 3))))
        elif sub == "facets":
            r, d = FACETS
            argv = ["facets", str(r), str(d)]
            expect = lambda: (0, formats.dump_json(
                {"r": r, "d": d, "facets": [list(f) for f in gale_facets(r, d)]}))
        elif sub == "extend":
            w = triangle_free_word(rng, 3, 8)
            config = realize_on_moment_curve(w, 2)
            extras = general_position_extras(rng, config.points, 3)
            argv = ["extend",
                    self._file(tag + "-config.json", formats.dump_json(formats.config_to_doc(config))),
                    self._file(tag + "-extras.json", formats.dump_json(formats.points_to_doc(extras, 2))),
                    "--mode", "planar"]

            def expect():
                extended = extend_coloring_2d(config, extras)
                edges = len(nerve(config, 2).complex.faces_of_size(2))
                return 0, (formats.dump_json(formats.config_to_doc(extended))
                           + f"nerve preserved: {edges} edges before, {edges} after\n")
        else:
            g, d = random_graph(rng, 4, 3, connected=True), 3
            budget = SearchBudget(3, 14, SEARCH_NODE_LIMIT)
            argv = ["search", self._file(tag + ".txt", formats.dump_graph_text(g)),
                    "--dim", str(d), "--max-copies", "3", "--max-len", "14",
                    "--node-limit", str(SEARCH_NODE_LIMIT)]

            def expect():
                verdict = find_general_word(g, d, budget)
                return (0 if verdict.outcome == FOUND else 3,
                        formats.dump_json(formats.verdict_to_doc(verdict, d, budget)))
        return {"sub": sub, "key": tag, "argv": argv, "expect": expect}

    def run(self, inp):
        if self.traced:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = wn_cli.main(inp["argv"])
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", self.CONSOLE, *inp["argv"]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, inp, out):
        if inp["key"] not in self.expected:
            self.expected[inp["key"]] = inp["expect"]()
        code, stdout = out
        ok = (code, stdout) == self.expected[inp["key"]]
        return ok, (code, crc(stdout)), {"sub": inp["sub"]}


def make(name: str, probe, root, env, traced: bool):
    if name == "nerve-pipeline":
        return NervePipeline()
    if name == "extend":
        return Extend()
    if name == "search":
        return Search(probe)
    if name == "cli":
        return Cli(root, env, traced)
    raise KeyError(name)


WORKLOADS = ("nerve-pipeline", "extend", "search", "cli")

"""Closed-loop benchmark for wordnerve: exact verdicts per second.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client waits for each verdict before asking for the next.  Inputs come
from --seed alone; every output is checked against an independent oracle
outside the timed region.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones (see README.md).  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it stamps the run (versions, seed, tail percentile, counters).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"
SETUP_REPS = 5
WARMUP_SEED = 0
OVERHEAD_EVERY = 4  # a traced run re-times every 4th input untraced
IMPORT_REPS = 5
CLI_SUBCOMMANDS = ("induce", "encode", "realize", "facets", "extend", "search")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lp.calls": "count/op",
    "lp.self_ms": "ms/op",
    "lp.ms_per_call": "ms",
    "lp.cells_mean": "cells",
    "lp.feasible_ratio": "ratio",
    "geometry.hulls_intersect.calls": "count/op",
    "geometry.hulls_intersect.self_ms": "ms/op",
    "geometry.hyperplane.ms": "ms/op",
    "geometry.gale_facets.ms": "ms/op",
    "nerve.realize.ms": "ms/op",
    "nerve.nerve.self_ms": "ms/op",
    "nerve.nerve.candidates": "count/op",
    "nerve.nerve.hit_ratio": "ratio",
    "nerve.extend_2d.self_ms": "ms/op",
    "nerve.extend_2d.verify_ms": "ms/op",
    "nerve.extend_bipartite.self_ms": "ms/op",
    "nerve.extend_bipartite.safe_calls": "count/op",
    "nerve.extend_bipartite.verify_ms": "ms/op",
    "extend_bipartite_ms_per_extra": "ms/extra",
    "extend_planar_ms_per_extra": "ms/extra",
    "search.nodes": "count/op",
    "search.nodes_per_s": "1/s",
    "search.automorphisms.ms": "ms/op",
    "search.verify.ms": "ms/op",
    "search.j2_node_ratio": "ratio",
    "search.found_ratio": "ratio",
    "search_j2_over_j1": "ratio",
    "words.induce.ms": "ms/op",
    "encode.bipartite_layout.ms": "ms/op",
    "formats.parse.ms": "ms/op",
    "formats.dump.ms": "ms/op",
    "cli.import_ms": "ms",
    **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "trace.overhead_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD when the checkout is a git work tree, else 'unknown'.  Read from
    .git directly, so nothing outside the checkout is touched."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def tail(times: list[float], pct: int) -> float:
    """The pct-th percentile by nearest rank."""
    return sorted(times)[max(1, -(-pct * len(times) // 100)) - 1] if times else 0.0


def fresh_import(env) -> float:
    """Wall time of `import wordnerve.cli` in a new interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wordnerve.cli"],
                   env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def median_ms(values) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    def __init__(self, args, workloads, probes):
        self.args = args
        self.workloads = workloads
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.probe = probes.Probe(traced=bool(args.trace))
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, list] = {}  # input index -> deterministic counters
        self.mismatches = 0
        self.calibration: list[float] = []  # unit times around each operation
        self.setup_calibration: list[float] = []

    def attempt(self, wl, index, inp) -> dict:
        """One timed operation, then its oracle check outside the timing."""
        self.attempted += 1
        before = self.probe.snapshot()
        self.probe.active = True
        t0 = time.perf_counter()
        try:
            out, error = wl.run(inp), None
        except Exception as exc:  # a raised exception is a failed operation
            out, error = None, exc
        dt = time.perf_counter() - t0
        self.probe.active = False
        after = self.probe.snapshot()
        ok, counts, info = False, ["error", repr(error)], {}
        if error is None:
            try:
                ok, counts, info = wl.check(inp, out)
            except Exception as exc:
                counts = ["check-error", repr(exc)]
        if wl.counts_lp:
            counts = [after[0] - before[0], after[1] - before[1], *counts]
        counts = json.loads(json.dumps(list(counts)))
        if self.counts.setdefault(str(index), counts) != counts:
            ok = False  # a deterministic counter moved between two runs
            self.mismatches += 1
        if not ok:
            self.failed += 1
        return {"dt": dt, "ok": ok, "counts": counts, **info}

    def setup(self):
        """Import in a fresh interpreter, build the workload and run one
        warm-up operation, SETUP_REPS times; setup_s is the median.  The
        warm-up input is the same for every seed, so setup_s measures the
        program rather than the draw."""
        times = []
        wl = None
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.close()
            wl = self.workloads.make(self.args.workload, self.probe, ROOT, self.env,
                                     bool(self.args.trace))
            self.setup_calibration.append(wl.calibrate())
            t0 = time.perf_counter()
            fresh_import(self.env)
            self.attempt(wl, "warmup", next(wl.inputs(random.Random(WARMUP_SEED))))
            times.append(time.perf_counter() - t0)
            self.setup_calibration.append(wl.calibrate())
        self.probe.reset()
        return wl, statistics.median(times)

    def loop(self, wl):
        stream = wl.inputs(random.Random(self.args.seed))
        ops, overhead = [], []
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < self.args.seconds:
            inp = next(stream)
            self.calibration.append(wl.calibrate())
            ops.append(self.attempt(wl, index, inp))
            self.calibration.append(wl.calibrate())
            if self.args.trace and index % OVERHEAD_EVERY == OVERHEAD_EVERY - 1:
                t0 = time.perf_counter()
                try:
                    wl.run(inp)
                except Exception:
                    pass  # already counted as a failure by the traced attempt
                overhead.append(ops[-1]["dt"] - (time.perf_counter() - t0))
            index += 1
        return ops, overhead

    def check_history(self, key: str):
        """Compare this run's counters with earlier runs of the same seed on
        the same library and benchmark sources; every input whose counters
        differ is a failure."""
        STATE.mkdir(exist_ok=True)
        path = STATE / f"counts-{key}-{self.args.workload}-{self.args.seed}.json"
        try:
            history = json.loads(path.read_text())
        except (OSError, ValueError):
            history = {}
        for index, counts in self.counts.items():
            if history.setdefault(index, counts) != counts:
                self.failed = min(self.failed + 1, self.attempted)
                self.mismatches += 1
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(history))
        os.replace(tmp, path)


def end_to_end(ops, setup_s: float, tail_pct: int, children: bool,
               scale=1.0, setup_scale=1.0) -> dict:
    times = [op["dt"] * scale for op in ops]
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s * setup_scale,
        "op_p50_ms": median_ms(times),
        "op_tail_ms": 1000 * tail(times, tail_pct),
        "ops_per_s": ratio(len(times), sum(times)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(ops, overhead, probe, env) -> dict:
    n = len(ops)
    ms = lambda seconds: 1000 * ratio(seconds, n)  # noqa: E731 - per-operation ms
    lp_calls = probe.calls("lp")
    hulls = "geometry.hulls_intersect"
    candidates = probe.calls(hulls, parent="nerve.nerve")
    bip = [op for op in ops if op.get("mode") == "bipartite" and op["ok"]]
    planar = [op for op in ops if op.get("mode") == "planar" and op["ok"]]
    searched = [op for op in ops if "nodes1" in op]
    nodes1 = sum(op["nodes1"] for op in searched)
    clis = [op for op in ops if "sub" in op]
    m = {
        "lp.calls": ratio(lp_calls, n),
        "lp.self_ms": ms(probe.self_s("lp")),
        "lp.ms_per_call": 1000 * ratio(probe.self_s("lp"), lp_calls),
        "lp.cells_mean": ratio(probe.lp_cells, lp_calls),
        "lp.feasible_ratio": ratio(probe.calls("lp", field=3), lp_calls),
        "geometry.hulls_intersect.calls": ratio(probe.calls(hulls), n),
        "geometry.hulls_intersect.self_ms": ms(probe.self_s(hulls)),
        "geometry.hyperplane.ms": ms(probe.total_s("geometry.hyperplane")),
        "geometry.gale_facets.ms": ms(probe.total_s("geometry.gale_facets")),
        "nerve.realize.ms": ms(probe.total_s("nerve.realize")),
        "nerve.nerve.self_ms": ms(probe.self_s("nerve.nerve")),
        "nerve.nerve.candidates": ratio(candidates, n),
        "nerve.nerve.hit_ratio": ratio(probe.calls(hulls, parent="nerve.nerve", field=3),
                                       candidates),
        "nerve.extend_2d.self_ms": ms(probe.self_s("nerve.extend_2d")),
        "nerve.extend_2d.verify_ms": ms(probe.total_s("nerve.nerve", parent="nerve.extend_2d")),
        "nerve.extend_bipartite.self_ms": ms(probe.self_s("nerve.extend_bipartite")),
        # hull tests made by the safe() check: the direct hull tests of
        # extend_coloring_bipartite minus its one pass over all color pairs
        "nerve.extend_bipartite.safe_calls": ratio(
            probe.calls(hulls, parent="nerve.extend_bipartite")
            - sum(op["pairs"] for op in ops if op.get("mode") == "bipartite"), n),
        "nerve.extend_bipartite.verify_ms": ms(
            probe.total_s("nerve.nerve", parent="nerve.extend_bipartite")),
        "extend_bipartite_ms_per_extra": 1000 * ratio(
            sum(op["dt"] for op in bip), sum(op["extras"] for op in bip)),
        "extend_planar_ms_per_extra": 1000 * ratio(
            sum(op["dt"] for op in planar), sum(op["extras"] for op in planar)),
        "search.nodes": ratio(nodes1, n),
        "search.nodes_per_s": ratio(nodes1, sum(op["t1"] for op in searched)),
        "search.automorphisms.ms": ms(probe.total_s("search.automorphisms")),
        "search.verify.ms": ms(probe.total_s("search.verify")),
        "search.j2_node_ratio": ratio(sum(op["nodes2"] for op in searched), nodes1),
        "search.found_ratio": ratio(sum(op["found"] for op in searched), len(searched)),
        "search_j2_over_j1": ratio(sum(op["t2"] for op in searched),
                                   sum(op["t1"] for op in searched)),
        "words.induce.ms": ms(probe.total_s("words.induce")),
        "encode.bipartite_layout.ms": ms(probe.total_s("encode.bipartite_layout")),
        "formats.parse.ms": ms(probe.total_s("formats.parse")),
        "formats.dump.ms": ms(probe.total_s("formats.dump")),
        "cli.import_ms": 0.0,
        "trace.overhead_ms": median_ms(overhead),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = median_ms([op["dt"] for op in clis if op["sub"] == sub])
    if clis:
        m["cli.import_ms"] = median_ms([fresh_import(env) for _ in range(IMPORT_REPS)])
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wordnerve" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wordnerve sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(workloads.WORKLOADS)})\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    if args.workload != "search" and hasattr(os, "sched_setaffinity"):
        # One core for the loop, its calibration units and its children:
        # the two cores of a shared VM drift apart in speed, so a unit
        # measured on one says little about an operation run on the other.
        # `search` needs both cores for its jobs=2 pass.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args, workloads, probes)
    with runner.probe:
        wl, setup_s = runner.setup()
        try:
            ops, overhead = runner.loop(wl)
        finally:
            wl.close()
    src_sha = digest(SRC / "wordnerve")
    runner.check_history(src_sha + "-" + digest(Path(__file__).resolve().parent))

    if args.trace:
        metrics = per_layer(ops, overhead, runner.probe, runner.env)
        units = PER_LAYER
        raw = None
    else:
        subprocesses = args.workload == "cli"
        raw = end_to_end(ops, setup_s, wl.tail_percentile, children=subprocesses)
        metrics = end_to_end(
            ops, setup_s, wl.tail_percentile, children=subprocesses,
            scale=wl.calibration_ref_s / statistics.mean(runner.calibration),
            setup_scale=wl.calibration_ref_s / statistics.mean(runner.setup_calibration),
        )
        units = END_TO_END
    stamp = {
        "raw": raw,
        "calibration_ms": 1000 * statistics.mean(runner.calibration),
        "setup_calibration_ms": 1000 * statistics.mean(runner.setup_calibration),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": src_sha,
        "op_tail_percentile": wl.tail_percentile,
        "op_samples": len(ops),
        "op_samples_beyond_tail": len(ops) - max(1, -(-wl.tail_percentile * len(ops) // 100)),
        "failed_ratio": ratio(runner.failed, runner.attempted),
        "counter_mismatches": runner.mismatches,
        "counters": {  # totals over the timed operations
            "lp_calls": sum(op["counts"][0] for op in ops if wl.counts_lp and op["ok"]),
            "hull_tests": sum(op["counts"][1] for op in ops if wl.counts_lp and op["ok"]),
            "search_nodes_j1": sum(op.get("nodes1", 0) for op in ops),
        },
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself; about a minute on two cores.

    python3 bench/smoke.py

Runs every workload for one second in both modes and checks the result
line against BENCHMARK.json: every metric is printed with its unit, the
run is correct, and the stamp carries the fields the README promises.
It also checks that the benchmark refuses to run, printing no result,
in a directory without the wordnerve sources.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_FIELDS = {"python", "nproc", "commit", "seed", "op_tail_percentile", "op_samples",
                "failed_ratio", "counter_mismatches", "counters"}


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace, ROOT)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result, stamp = json.loads(lines[-1]), json.loads(lines[-2])["stamp"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result['attempted']} attempted, "
                                f"{result['failed']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if STAMP_FIELDS - set(stamp):
                problems.append(f"{where}: stamp lacks {sorted(STAMP_FIELDS - set(stamp))}")
            print(f"ok {where}: {result['attempted']} attempted", flush=True)

    bare = ROOT / ".bench_state" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("nerve-pipeline", 0, bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: the benchmark ran without the sources")
        else:
            print("ok bare directory: refused", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Each demo, run without arguments in a fresh interpreter, prints the
bytes of its golden file `tests/data/demo_<name>.txt`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordnerve

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
SRC = str(Path(wordnerve.__file__).parents[1])
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem.removeprefix("demo_") for p in DATA.glob("demo_*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / f"demo_{demo.stem}.txt").read_bytes()

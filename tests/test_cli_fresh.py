"""Every subcommand in a fresh interpreter.

The other CLI tests call `main` in a process where earlier tests have
already imported the whole package, so a handler whose deferred import is
broken would still pass there.  Here each subcommand runs in a new
interpreter under `-X dev -W error`.  Its stdout and exit code must equal
the in-process run (or the golden file), and the `wordnerve` modules it
loads are pinned: a subcommand loads only what it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordnerve
from wordnerve.cli import main

DATA = Path(__file__).parent / "data"
SRC = str(Path(wordnerve.__file__).parents[1])

# Runs the CLI, then names on the last line of stderr every module it
# loaded beyond those the interpreter loaded by itself.
CHILD = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from wordnerve.cli import main\n"
    "code = main()\n"
    "sys.stderr.write('\\nloaded: ' + ' '.join(sorted(set(sys.modules) - before)) + '\\n')\n"
    "sys.exit(code)\n"
)

BASE = {"wordnerve", "wordnerve.cli", "wordnerve.formats", "wordnerve.graphs", "wordnerve.words"}
GEOMETRY = {"wordnerve.geometry", "wordnerve.lp"}
PIPELINE = GEOMETRY | {"wordnerve.nerve", "wordnerve.encode"}
W5_WORD = "1 5 6 2 1 6 3 2 6 4 3 6 5 4 6\n"
W5_GRAPH = "1 2\n2 3\n3 4\n4 5\n1 5\n1 6\n2 6\n3 6\n4 6\n5 6\n"
CHORDS = json.dumps({"kind": "chord-diagram", "slots": ["a", "b", "a", "c", "b", "c"]})


def fresh(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", CHILD, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    assert last.startswith("loaded: "), proc.stderr
    return proc.returncode, proc.stdout, set(last.split()[1:])


# (id, files to write, argv naming those files (and SVG for an SVG path),
# modules beyond BASE, golden stdout file or None to compare with the
# in-process run)
CASES = [
    ("induce", {"w.txt": W5_WORD}, ["induce", "w.txt", "--dim", "2"], set(), None),
    ("encode-any", {"g.txt": W5_GRAPH}, ["encode", "g.txt"], {"wordnerve.encode"}, None),
    ("encode-bipartite", {"g.txt": "a b\nb c\nc d\n"},
     ["encode", "g.txt", "--mode", "bipartite"], {"wordnerve.encode"}, None),
    ("encode-chords", {"c.json": CHORDS},
     ["encode", "c.json", "--mode", "chords"], {"wordnerve.encode"}, None),
    ("realize", {"w.txt": W5_WORD}, ["realize", "w.txt", "--dim", "3"], PIPELINE, None),
    ("realize-svg", {"w.txt": W5_WORD}, ["realize", "w.txt", "--dim", "2", "--svg", "SVG"],
     PIPELINE | {"wordnerve.svgplot"}, None),
    ("facets", {}, ["facets", "7", "4"], GEOMETRY, None),
    ("search", {"g.txt": W5_GRAPH},
     ["search", "g.txt", "--dim", "2", "--max-copies", "5", "--max-len", "15", "--jobs", "1"],
     {"wordnerve.search"}, "w5_search_stdout.json"),
    ("extend-planar", {},
     ["extend", str(DATA / "planar_config.json"), str(DATA / "planar_extras.json"),
      "--mode", "planar"], PIPELINE, "planar_stdout.txt"),
    ("extend-bipartite", {},
     ["extend", str(DATA / "bipartite_config.json"), str(DATA / "bipartite_extras.json"),
      "--mode", "bipartite", "--graph", str(DATA / "bipartite_graph.txt")],
     PIPELINE, "bipartite_stdout.txt"),
    ("selftest", {}, ["selftest", "--seed", "0"],
     GEOMETRY | {"wordnerve.encode", "wordnerve.oracles"}, None),
]


@pytest.mark.parametrize("files, argv, extra, golden", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_subcommand_in_a_fresh_interpreter(tmp_path, capsys, files, argv, extra, golden):
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_text(text)

    def resolved(svg_name):
        paths["SVG"] = tmp_path / svg_name
        return [str(paths[a]) if a in paths else a for a in argv]

    code, out, loaded = fresh(resolved("fresh.svg"))
    assert {m for m in loaded if m.startswith("wordnerve")} == BASE | extra
    assert "dataclasses" not in loaded
    if golden:
        assert (code, out) == (0, (DATA / golden).read_text())
    else:
        expected_code = main(resolved("in-process.svg"))
        assert (code, out) == (expected_code, capsys.readouterr().out)
    if "SVG" in argv:
        assert (tmp_path / "fresh.svg").read_bytes() == (tmp_path / "in-process.svg").read_bytes()


def test_imports_load_no_pathlib_and_no_process_pool():
    """Without `site`, which on some interpreters preloads `pathlib` and so
    hides it from the `loaded:` sets above, importing the CLI loads no
    `pathlib`, and importing `search` loads no process-pool machinery."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = ("import sys, wordnerve.cli, wordnerve.search\n"
             "print(sorted({'pathlib', 'multiprocessing', 'concurrent.futures', 'ctypes'}"
             " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout == "[]\n", proc.stderr


def limited(argv):
    """Run `main(argv)` in a child that lowers only its own address-space
    limit to 600 MB, under `-X dev -W error`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = ("import resource, sys\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             "resource.setrlimit(resource.RLIMIT_AS, (600_000 * 1024, hard))\n"
             "from wordnerve.cli import main\n"
             f"sys.exit(main({argv!r}))\n")
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", child],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_facets_past_the_memory_limit_is_an_input_error():
    """C(10^7, 2) has 10^7 facets, under the up-front guard, but they do not
    fit in 600 MB: a child that lowers only its own address-space limit
    must still exit 2 with one error line and no traceback."""
    pytest.importorskip("resource")
    proc = limited(["facets", "10000000", "2"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: C(10000000, 2) has more facets than memory can hold\n"


def test_realize_past_the_memory_limit_is_an_input_error(tmp_path):
    """The W5 word on the moment curve in R^30000 does not fit in 600 MB:
    any subcommand that runs out of memory exits 2 with one error line."""
    pytest.importorskip("resource")
    word = tmp_path / "w5.word"
    word.write_text(W5_WORD)
    proc = limited(["realize", str(word), "--dim", "30000"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: realize: the input needs more memory than is available\n"

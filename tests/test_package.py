"""The package namespace: names are loaded on first access, and the name
`wordnerve.nerve` is the submodule whatever the import order."""

import ast
import os
import subprocess
import sys
import types
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

import wordnerve
from wordnerve import search

SRC = str(Path(wordnerve.__file__).parents[1])

# Every public name the package exported when it imported all its
# submodules eagerly, less the function `nerve`, which shadowed the
# submodule of the same name, and less `convex_position_subset_2d`, which
# nothing outside its own tests called.
NAMES = sorted("""
    ChordDiagram ColoredConfig ComplexError DegenerateInputError ExtensionError
    GeometryError Graph GraphError Hyperplane NerveResult SearchBudget SearchError
    SearchVerdict SimplicialComplex Word WordError bipartite_layout bipartition
    breen_intersect chord_intersection_graph
    extend_coloring_2d extend_coloring_bipartite find_general_word from_edge_list
    gale_facets general_rep_number_bounded gr_upper_bound hulls_intersect
    hyperplane_through_moment_points induced_graph_classic induced_graph_general
    is_d_intersecting is_triangle_free max_alternation moment_point one_skeleton
    point rational realize_on_moment_curve rotate word word_any_graph word_bipartite
    word_from_chord_diagram
""".split())
SUBMODULES = ["encode", "geometry", "graphs", "lp", "nerve", "search", "words"]


def fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("imports", [
    "from wordnerve import nerve as m",
    "import wordnerve.nerve\nimport wordnerve\nm = wordnerve.nerve",
    "import wordnerve\nfrom wordnerve import realize_on_moment_curve\nm = wordnerve.nerve",
    "from wordnerve import *\nimport wordnerve.nerve as m",
    "import wordnerve.cli\nfrom wordnerve import nerve as m",
])
def test_wordnerve_nerve_is_the_submodule_in_every_import_order(imports):
    out = fresh(imports + "\nprint(m.__name__, m.nerve.__module__)")
    assert out == "wordnerve.nerve wordnerve.nerve\n"


def test_every_public_name_still_resolves():
    # A star import in a fresh interpreter binds exactly the exported names.
    out = fresh("from wordnerve import *\n"
                "print(*sorted(n for n in dir() if not n.startswith('_')))")
    assert out.split() == NAMES
    assert sorted(wordnerve.__all__) == NAMES
    for name in NAMES:
        value = getattr(wordnerve, name)
        assert not isinstance(value, types.ModuleType), name
        assert value is getattr(sys.modules[value.__module__], value.__name__)
    for name in SUBMODULES:
        scope = {}
        exec(f"from wordnerve import {name}", scope)
        assert scope[name] is sys.modules[f"wordnerve.{name}"]
    with pytest.raises(AttributeError):
        wordnerve.no_such_name


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each exported name is read somewhere in the library, the demos or
    the benchmark: as a name, an attribute or a `from ... import`.  The
    files are found from this test file, not from `wordnerve.__file__`,
    so an installed copy cannot point the scan elsewhere."""
    root = Path(__file__).parents[1]
    used = set()
    for pattern in ("src/wordnerve/*.py", "demos/*.py", "bench/*.py"):
        for path in sorted(root.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    assert sorted(set(wordnerve.__all__) - used) == []


def library_sources() -> list[tuple[str, str]]:
    """(name, source) of each file under `src/wordnerve`, found from this
    test file, and of the DFS that `search` generates for each letter count
    it compiles one for."""
    root = Path(__file__).parents[1]
    files = [(path.name, path.read_text()) for path in sorted(root.glob("src/wordnerve/*.py"))]
    return files + [(f"dfs over {n} letters", search._dfs_source(n))
                    for n in range(1, search._UNROLL_MAX + 1)]


def test_no_function_in_the_library_calls_itself():
    """No function under `src/wordnerve`, nor any DFS that `search`
    generates, calls itself by name, as a plain name or as a method of
    `self` or `cls`: a recursion keeps one Python frame per level, and an
    input deep enough ends in `RecursionError`.  Deep work is a loop over
    an explicit list or stack instead."""
    found = []
    for name, text in library_sources():
        for fn in ast.walk(ast.parse(text, name)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name
                        or isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert found == []


def test_no_true_division_in_the_library():
    """No `/` or `/=` under `src/wordnerve` but in `svgplot.py`, whose
    canvas is float on purpose, nor in any DFS that `search` generates, nor
    in the exact references of `tests/oracles.py`.  Curve points at integer
    parameters are ints, and `/` on two ints is a float: a verdict read off
    it rounds.  An exact quotient is a `Fraction(p, q)`."""
    oracles = Path(__file__).parent / "oracles.py"
    found = []
    for name, text in [*library_sources(), (oracles.name, oracles.read_text())]:
        if name == "svgplot.py":
            continue
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{name}:{node.lineno}")
    assert found == []



def test_every_test_oracle_has_a_caller():
    """Each top-level function and class of `tests/oracles.py` is read by
    some test file, or by another definition of `tests/oracles.py`, as a
    name or an attribute, so no reference outlives its last test.  A
    definition that reads its own name does not count."""
    tests = Path(__file__).parent
    oracles = tests / "oracles.py"
    used = set()
    for path in sorted(tests.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", None) if path == oracles else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    defined = [
        top.name for top in ast.parse(oracles.read_text(), str(oracles)).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    ]
    assert [name for name in defined if name not in used] == []


def test_every_file_in_tests_data_is_named_by_a_test():
    """Each file in `tests/data` is named in a test file: by a string, by a
    `glob` pattern, or by an f-string with one field that some string of
    the same file fills, as `f"{name}_stdout.txt"` over the names a test
    iterates.  A golden that no test reads fails here."""
    tests = Path(__file__).parent
    named, globs = set(), []
    for path in sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        named |= strings
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                parts = node.values
                if sum(isinstance(part, ast.FormattedValue) for part in parts) == 1:
                    named |= {"".join(s if isinstance(part, ast.FormattedValue) else part.value
                                      for part in parts) for s in strings}
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "glob" and node.args
                  and isinstance(node.args[0], ast.Constant)):
                globs.append(node.args[0].value)
    unread = [p.name for p in sorted((tests / "data").iterdir())
              if p.name not in named and not any(fnmatchcase(p.name, g) for g in globs)]
    assert unread == []

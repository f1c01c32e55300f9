"""The package namespace: names are loaded on first access, and the name
`wordnerve.nerve` is the submodule whatever the import order."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wordnerve

SRC = str(Path(wordnerve.__file__).parents[1])

# Every public name the package exported when it imported all its
# submodules eagerly, less the function `nerve`, which shadowed the
# submodule of the same name.
NAMES = sorted("""
    ChordDiagram ColoredConfig ComplexError DegenerateInputError ExtensionError
    GeometryError Graph GraphError Hyperplane NerveResult SearchBudget SearchError
    SearchVerdict SimplicialComplex Word WordError bipartite_layout bipartition
    breen_intersect chord_intersection_graph convex_position_subset_2d
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

"""Fuzz of every CLI input format: whatever a document holds, the command
exits 0 or 2, never raises, and writes nothing to stdout when it exits 2.

Examples are derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordnerve import formats
from wordnerve.cli import main
from wordnerve.encode import word_bipartite
from wordnerve.graphs import from_edge_list
from wordnerve.nerve import realize_on_moment_curve
from wordnerve.words import word

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

K22 = from_edge_list([("v1", "u1"), ("v1", "u2"), ("v2", "u1"), ("v2", "u2")])
VALID = {
    "planar.json": formats.dump_json(
        formats.config_to_doc(realize_on_moment_curve(word("14213243"), 2))
    ),
    "bipartite.json": formats.dump_json(
        formats.config_to_doc(realize_on_moment_curve(word_bipartite(K22)[0], 2))
    ),
    "extras.json": formats.dump_json({"dimension": 2, "points": [["-2", "3"], ["10", "91"]]}),
}

scalars = (
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "a", "-3", "1/2", "1/0", "x y", "2"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dimension", "points", "colors", "a"]), inner, max_size=3),
    max_leaves=8,
)
coords = st.integers(-6, 6) | st.sampled_from(["1/2", "-7/3", "0", "3"]) | scalars
point_fields = {
    "dimension": st.integers(1, 3) | json_values,
    "points": st.lists(st.lists(coords, min_size=1, max_size=3), max_size=5)
    | st.lists(coords, max_size=3) | coords | json_values,
}
# Well-formed planar points, so the fuzz also reaches the extensions.
planar_points = st.lists(st.lists(st.integers(-20, 20), min_size=2, max_size=2), max_size=3)
point_docs = st.fixed_dictionaries({}, optional=point_fields) | st.fixed_dictionaries(
    {"dimension": st.just(2), "points": planar_points}
)
config_docs = st.fixed_dictionaries(
    {},
    optional={
        **point_fields,
        "colors": st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=5) | json_values,
    },
)
labels = st.sampled_from(["a", "b", "c", "d", "", "a b"])
graph_docs = st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.lists(labels, max_size=4) | json_values,
        "edges": st.lists(st.lists(labels, min_size=1, max_size=3), max_size=4) | json_values,
    },
)
chord_docs = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["chord-diagram", "polygon-arrangement"]) | json_values,
        "slots": st.lists(st.sampled_from(["a", "b", "c"]), max_size=6) | json_values,
    },
) | st.fixed_dictionaries(
    {"kind": st.just("chord-diagram"), "slots": st.permutations(["a", "a", "b", "b", "c", "c"])}
)


# Shapes of "points" that once escaped as a TypeError traceback.
BAD_POINTS = ['{"dimension": 2, "points": 5}', '{"dimension": 2, "points": [5]}']
# A coordinate with an exponent, once handed to Fraction: 10^100000 took 71 s.
EXPONENT_POINT = '{"dimension": 2, "points": [["1e-100000", "5"]]}'
# A JSON string where a list belongs, once read as a list of one-character
# labels with exit 0: edges "ab" and "bc" encoded the path a-b-c.
STRING_LISTS = {
    "edges": '{"vertices": [], "edges": ["ab", "bc"]}',
    "vertices": '{"vertices": "ab", "edges": []}',
    "slots": '{"kind": "chord-diagram", "slots": "abab"}',
    "colors": '{"dimension": 2, "points": [[1, 1], [2, 4]], "colors": "ab"}',
}


def documents(docs):
    """A JSON text of one of `docs`, any JSON value, or text that is not JSON."""
    return (
        (docs | json_values).map(json.dumps)
        | st.text(alphabet='{}[]":,0123456789ab -/', max_size=20)
    )


def exit_code(argv, files):
    """main(argv) where each argv entry naming a file in VALID or files is
    replaced by the path of that file, written to a temporary directory.
    An input error (exit 2) must leave stdout empty."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in {**VALID, **files}.items():
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
    if code == 2:
        assert out.getvalue() == "", (argv, err.getvalue())
    return code


@pytest.mark.parametrize("field", list(STRING_LISTS))
def test_a_string_is_not_a_list(field):
    if field == "colors":
        argv = ["extend", "fuzz.json", "extras.json", "--mode", "planar"]
    else:
        argv = ["encode", "fuzz.json", "--mode", "chords" if field == "slots" else "any"]
    assert exit_code(argv, {"fuzz.json": STRING_LISTS[field]}) == 2


@given(documents(config_docs))
@example(BAD_POINTS[0])
@example(BAD_POINTS[1])
@example(STRING_LISTS["colors"])
@FUZZ
def test_fuzz_config(text):
    files = {"fuzz.json": text}
    assert exit_code(["extend", "fuzz.json", "extras.json", "--mode", "planar"], files) in (0, 2)
    argv = ["extend", "fuzz.json", "extras.json", "--mode", "bipartite"]
    assert exit_code(argv, files) in (0, 2)


@given(documents(point_docs))
@example(BAD_POINTS[0])
@example(BAD_POINTS[1])
@example(EXPONENT_POINT)
@FUZZ
def test_fuzz_extras(text):
    files = {"fuzz.json": text}
    assert exit_code(["extend", "planar.json", "fuzz.json", "--mode", "planar"], files) in (0, 2)
    argv = ["extend", "bipartite.json", "fuzz.json", "--mode", "bipartite"]
    assert exit_code(argv, files) in (0, 2)


@given(documents(graph_docs) | st.text(alphabet="abc #\n\t", max_size=24))
@example(STRING_LISTS["edges"])
@example(STRING_LISTS["vertices"])
@FUZZ
def test_fuzz_graph(text):
    files = {"fuzz.txt": text}
    for mode in ("any", "bipartite"):
        assert exit_code(["encode", "fuzz.txt", "--mode", mode], files) in (0, 2)


@given(documents(chord_docs))
@example(STRING_LISTS["slots"])
@FUZZ
def test_fuzz_chords(text):
    assert exit_code(["encode", "fuzz.json", "--mode", "chords"], {"fuzz.json": text}) in (0, 2)


@given(st.text(alphabet="ab1 #\n\t", max_size=24))
@FUZZ
def test_fuzz_word(text):
    files = {"fuzz.txt": text}
    assert exit_code(["induce", "fuzz.txt", "--dim", "2"], files) in (0, 2)
    assert exit_code(["realize", "fuzz.txt", "--dim", "2"], files) in (0, 2)


# C(r, d) with more facets than memory can hold is refused before any is
# built: r = 10**20 once raised OverflowError, r = sys.maxsize MemoryError.
facet_sizes = st.integers(-3, 30) | st.sampled_from([10**20, sys.maxsize, sys.maxsize // 8])


@given(facet_sizes, facet_sizes)
@example(10**20, 2)
@example(10**20, 3)
@example(sys.maxsize, 2)
@example(sys.maxsize // 8, 2)
@FUZZ
def test_fuzz_facets(r, d):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["facets", str(r), str(d)])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert (out.getvalue() == "") == (code == 2)

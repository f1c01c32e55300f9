from fractions import Fraction

import pytest

from wordnerve import formats
from wordnerve.encode import ChordDiagram
from wordnerve.graphs import from_edge_list
from wordnerve.nerve import ColoredConfig, realize_on_moment_curve
from wordnerve.search import SearchBudget, SearchVerdict
from wordnerve.words import word

F = Fraction


def test_graph_text_roundtrip():
    g = from_edge_list([("a", "b"), ("b", "c")], ["z"])
    text = formats.dump_graph_text(g)
    assert formats.parse_graph_text(text) == g
    assert "z" in text.splitlines()


def test_graph_text_comments_and_errors():
    g = formats.parse_graph_text("# a comment\na b\n\nc  # trailing\n")
    assert g == from_edge_list([("a", "b")], ["c"])
    with pytest.raises(formats.FormatError):
        formats.parse_graph_text("a b c\n")
    with pytest.raises(formats.FormatError):
        formats.parse_graph_text("# nothing\n")
    with pytest.raises(formats.FormatError):
        formats.parse_graph_text("a a\n")


def test_graph_doc_roundtrip():
    g = from_edge_list([("a", "b")], ["q"])
    doc = formats.graph_to_doc(g)
    assert formats.graph_from_doc(doc) == g
    text = formats.dump_json(doc)
    assert formats.parse_graph_file(text) == g
    assert formats.parse_graph_file(formats.dump_graph_text(g)) == g


def test_words_text_roundtrip():
    ws = [word("abab"), word(["v1", "u1", "v1"])]
    text = formats.dump_words_text(ws)
    assert formats.parse_words_text(text) == ws
    with pytest.raises(formats.FormatError):
        formats.parse_words_text("# empty\n")


def test_fraction_strings():
    assert formats.fraction_str(F(3, 4)) == "3/4"
    assert formats.fraction_str(F(8, 2)) == 4
    pts, d = formats.points_from_doc(
        {"dimension": 2, "points": [["1/2", 3], [-1, "7/3"]]}
    )
    assert d == 2 and pts == [(F(1, 2), F(3)), (F(-1), F(7, 3))]
    with pytest.raises(formats.FormatError):
        formats.points_from_doc({"dimension": 2, "points": [[0.5, 1]]})
    with pytest.raises(formats.FormatError):
        formats.points_from_doc({"dimension": 3, "points": [["1", "2"]]})


def test_coordinate_grammar():
    # a JSON integer or -?[0-9]+(/[0-9]+)?, what fraction_str writes
    pts, _ = formats.points_from_doc({"dimension": 3, "points": [["-7/3", "007", -4]]})
    assert pts == [(F(-7, 3), F(7), F(-4))]
    for bad in ("0.5", "1e3", "1e-100000", "+3", " 2", "2 ", "2\n", "1_000", "\uff11",
                "3/-4", "1/0", "", "-", "/2"):
        with pytest.raises(formats.FormatError):
            formats.points_from_doc({"dimension": 1, "points": [[bad]]})


def test_points_from_doc_rejects_bool_and_non_integer_dimension():
    with pytest.raises(formats.FormatError):
        formats.points_from_doc({"dimension": 2, "points": [[True, 9]]})
    for dim in (True, 2.9, "2", None):
        with pytest.raises(formats.FormatError):
            formats.points_from_doc({"dimension": dim, "points": [["1", "2"]]})
    for points in (5, [5], "12", [["1", "2"], "34"], {"1": "2"}):
        with pytest.raises(formats.FormatError):
            formats.points_from_doc({"dimension": 2, "points": points})


def test_config_doc_roundtrip():
    cfg = realize_on_moment_curve(word("abab"), 2)
    doc = formats.config_to_doc(cfg)
    assert formats.config_from_doc(doc) == cfg
    text = formats.dump_json(doc)
    assert formats.config_from_doc(formats.load_json(text)) == cfg


def test_circle_structure_docs():
    dgm = ChordDiagram(("a", "b", "a", "b"))
    doc = {"kind": "chord-diagram", "slots": ["a", "b", "a", "b"]}
    assert formats.circle_structure_from_doc(doc) == dgm
    for kind in ("nope", "polygon-arrangement"):
        with pytest.raises(formats.FormatError):
            formats.circle_structure_from_doc({"kind": kind, "slots": ["a", "b", "a"]})
    with pytest.raises(formats.FormatError):
        formats.circle_structure_from_doc({"kind": "chord-diagram", "slots": ["a"]})


def test_verdict_doc():
    verdict = SearchVerdict("found", word("aba"), 17)
    doc = formats.verdict_to_doc(verdict, 1, SearchBudget(2, 6, 100))
    assert doc["witness"] == "a b a"
    assert doc["budget"]["max_total_length"] == 6
    assert doc["nodes_explored"] == 17


def test_dump_json_deterministic():
    doc = {"b": 1, "a": [2, 3]}
    assert formats.dump_json(doc) == formats.dump_json({"a": [2, 3], "b": 1})
    assert formats.dump_json(doc).endswith("\n")

import random
from fractions import Fraction

import pytest

from wordnerve import formats
from wordnerve.cli import main
from wordnerve.encode import ChordDiagram, word_bipartite
from wordnerve.graphs import from_edge_list
from wordnerve.nerve import (ColoredConfig, _curve_order, extend_coloring_bipartite, nerve,
                             realize_on_moment_curve)
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


def test_config_doc_roundtrip(tmp_path, capsys):
    """A curve configuration read back from its file has `Fraction`
    coordinates where the curve gave ints, and the two are interchangeable:
    equal with equal hashes, the same curve order and nerve, and `extend
    --mode bipartite` on the file prints what the int configuration
    extends to.  Seeded bipartite words at d = 1..5, with extras far from
    and near the curve."""
    cfg = realize_on_moment_curve(word("abab"), 2)
    doc = formats.config_to_doc(cfg)
    assert formats.config_from_doc(doc) == cfg
    text = formats.dump_json(doc)
    assert formats.config_from_doc(formats.load_json(text)) == cfg
    rng = random.Random(31)
    for d in range(1, 6):
        vs, us = [f"v{i}" for i in range(d)], [f"u{j}" for j in range(rng.randint(d, d + 1))]
        edges = [(v, u) for v in vs for u in us if rng.random() < 0.5]
        edges += [(v, rng.choice(us)) for v in vs] + [(rng.choice(vs), u) for u in us]
        g = from_edge_list(edges)
        w, _ = word_bipartite(g)
        cfg = realize_on_moment_curve(w, d)
        back = formats.config_from_doc(formats.config_to_doc(cfg))
        assert {type(x) for p in cfg.points for x in p} == {int}
        assert {type(x) for p in back.points for x in p} == {Fraction}
        assert back == cfg and hash(back) == hash(cfg)
        assert _curve_order(back) == _curve_order(cfg)
        assert nerve(back, 3) == nerve(cfg, 3)
        n = len(w)
        extras = [tuple(F(rng.randint(-2 * n, n * n), rng.randint(1, 7)) for _ in range(d))
                  for _ in range(2)]
        extras += [tuple(F(sum(p[i] for p in pts), 2) + F(rng.randint(1, 8), 9) for i in range(d))
                   for pts in (rng.sample(cfg.points, 2) for _ in range(3))]
        extras = list(dict.fromkeys(extras))
        files = {"config.json": formats.dump_json(formats.config_to_doc(cfg)),
                 "extras.json": formats.dump_json(formats.points_to_doc(extras, d))}
        for name, content in files.items():
            (tmp_path / name).write_text(content)
        config, extras_file = (str(tmp_path / name) for name in files)
        assert main(["extend", config, extras_file, "--mode", "bipartite"]) == 0
        extended = extend_coloring_bipartite(g, w, cfg, extras)
        edges = len(nerve(cfg, 1).complex.faces_of_size(2))
        assert capsys.readouterr().out == (formats.dump_json(formats.config_to_doc(extended))
                                           + f"nerve preserved: {edges} edges before, {edges} after\n")


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

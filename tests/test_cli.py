import json
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from xml.etree import ElementTree

import pytest

import wordnerve.geometry as geometry_lib
import wordnerve.nerve as nerve_lib
from wordnerve import formats
from wordnerve.cli import main
from wordnerve.graphs import from_edge_list

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


W5_WORD = " ".join("156216326436546")
W5_EDGES = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5"),
            ("1", "6"), ("2", "6"), ("3", "6"), ("4", "6"), ("5", "6")]


def test_induce_observation_word(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "1 2 1 2 1\n")
    out_path = str(tmp_path / "g.json")
    code, out, err = run(capsys, "induce", wf, "--dim", "3", "--output", out_path)
    assert code == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["edges"] == [["1", "2"]]
    assert "1: 2" in out


def test_induce_wheel(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", W5_WORD + "\n")
    code, out, _ = run(capsys, "induce", wf, "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert formats.graph_from_doc(doc) == from_edge_list(W5_EDGES)


def test_induce_bad_file(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "# no words here\n")
    code, _, err = run(capsys, "induce", wf, "--dim", "2")
    assert code == 2
    assert "error" in err


def test_encode_any_p3(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "a b\nb c\n")
    code, out, err = run(capsys, "encode", gf, "--mode", "any")
    assert code == 0
    assert out == "a b a b c b\n"
    assert "d=1" in err


def test_encode_bipartite_k22(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "v1 u1\nv1 u2\nv2 u1\nv2 u2\n")
    code, out, err = run(capsys, "encode", gf, "--mode", "bipartite")
    assert code == 0
    assert len(out.split()) == 16
    assert "d=2" in err


def test_encode_bipartite_rejects_triangle(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "a b\nb c\na c\n")
    code, _, err = run(capsys, "encode", gf, "--mode", "bipartite")
    assert code == 2
    assert "bipartite" in err


@pytest.mark.parametrize("label", ["a b", "a#b"])
def test_encode_rejects_labels_the_text_formats_cannot_carry(tmp_path, capsys, label):
    # "a b" would come back as two letters, "a#b" as a comment after "a"
    doc = {"vertices": [label, "c"], "edges": [[label, "c"]]}
    gf = write(tmp_path, "g.json", json.dumps(doc))
    code, out, err = run(capsys, "encode", gf, "--mode", "any")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_encode_chords(tmp_path, capsys):
    doc = formats.dump_json({"kind": "chord-diagram", "slots": ["a", "b", "a", "b"]})
    cf = write(tmp_path, "d.json", doc)
    code, out, _ = run(capsys, "encode", cf, "--mode", "chords")
    assert code == 0
    assert out == "a b a b\n"


@pytest.mark.parametrize("mode, doc", [
    ("any", {"vertices": [], "edges": []}),
    ("bipartite", {"vertices": [], "edges": []}),
    ("chords", {"kind": "chord-diagram", "slots": []}),
])
def test_encode_rejects_empty_documents(tmp_path, capsys, mode, doc):
    # an empty word would only be rejected later, by induce or realize
    f = write(tmp_path, "in.json", json.dumps(doc))
    code, out, err = run(capsys, "encode", f, "--mode", mode)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("label, expected", [(True, 2), (1.5, 2), (None, 2), (7, 0)])
def test_json_labels_are_strings_or_integers(tmp_path, capsys, label, expected):
    # str() would turn true, 1.5 and null into the labels "True", "1.5", "None"
    for mode, doc in [
        ("any", {"vertices": [label, "c"], "edges": [[label, "c"]]}),
        ("any", {"vertices": ["c"], "edges": [["c", label]]}),
        ("chords", {"kind": "chord-diagram", "slots": [label, "b", label, "b"]}),
    ]:
        f = write(tmp_path, "in.json", json.dumps(doc))
        code, out, err = run(capsys, "encode", f, "--mode", mode)
        assert code == expected, doc
        if expected:
            assert out == "" and err.startswith("error: ")
    wf = write(tmp_path, "w.txt", "1 4 2 1 3 2 4 3\n")
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))[0] == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["colors"] = [label if c == "1" else c for c in cfg["colors"]]
    cf = write(tmp_path, "cfg.json", json.dumps(cfg))
    extras = formats.dump_json({"dimension": 2, "points": [["-2", "3"]]})
    ef = write(tmp_path, "extras.json", extras)
    code, out, err = run(capsys, "extend", cf, ef, "--mode", "planar")
    assert code == expected
    if expected:
        assert out == "" and err.startswith("error: ")


def test_realize_with_svg(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "a b a b\n")
    svg_path = tmp_path / "out.svg"
    cfg_path = tmp_path / "cfg.json"
    code, out, _ = run(
        capsys, "realize", wf, "--dim", "2",
        "--svg", str(svg_path), "--output", str(cfg_path),
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<?xml") and "<polygon" not in svg and "<line" in svg
    cfg = formats.config_from_doc(json.loads(cfg_path.read_text()))
    assert cfg.colors == ("a", "b", "a", "b")
    assert "a: b" in out  # adjacency summary goes to stdout when --output is set


def test_realize_svg_requires_2d(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "1 2 1 2 1\n")
    code, _, err = run(capsys, "realize", wf, "--dim", "4", "--svg", str(tmp_path / "x.svg"))
    assert code == 2
    assert not (tmp_path / "x.svg").exists()
    # without --svg the same word realizes fine in R^4
    code, out, err = run(capsys, "realize", wf, "--dim", "4")
    assert code == 0
    assert json.loads(out)["dimension"] == 4
    assert "nerve 1-skeleton" in err


def test_realize_unwritable_svg_writes_nothing(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "a b a b\n")
    svg_path = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, "realize", wf, "--dim", "2", "--svg", str(svg_path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_realize_svg_deterministic(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", W5_WORD + "\n")
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "realize", wf, "--dim", "2", "--svg", str(p1))[0] == 0
    assert run(capsys, "realize", wf, "--dim", "2", "--svg", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_realize_svg_escapes_legend_labels(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "a&b c<d a&b c<d a&b\n")
    svg_path = tmp_path / "out.svg"
    assert run(capsys, "realize", wf, "--dim", "2", "--svg", str(svg_path))[0] == 0
    root = ElementTree.parse(svg_path).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a&b", "c<d"]


def test_search_c4(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "1 2\n2 3\n3 4\n1 4\n")
    out_path = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "search", gf, "--dim", "2", "--max-copies", "3",
        "--max-len", "12", "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["outcome"] == "found"
    assert doc["budget"]["max_copies_per_letter"] == 3


def test_search_node_limit(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(
        capsys, "search", gf, "--dim", "2", "--node-limit", "1",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "node_limit_exceeded"


def test_search_jobs_byte_identical(tmp_path, capsys):
    for edges, budget, expected in [
        (W5_EDGES, ["--max-copies", "5", "--max-len", "15"], 0),
        # --jobs 4 once returned a witness found after 907 nodes here
        ([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("c", "e")],
         ["--node-limit", "100"], 3),
    ]:
        gf = write(tmp_path, "g.txt", "\n".join(f"{u} {v}" for u, v in edges) + "\n")
        outs = []
        for jobs in ("1", "4"):
            code, out, _ = run(capsys, "search", gf, "--dim", "2", *budget, "--jobs", jobs)
            assert code == expected
            outs.append(out)
        assert outs[0] == outs[1]


def test_search_on_a_long_path_needs_no_recursion(tmp_path, capsys):
    # 1,101 vertices: the automorphism search places them all, far past
    # the interpreter's recursion limit, before the node limit stops it.
    labels = [f"v{i}" for i in range(1101)]
    gf = write(tmp_path, "g.txt", "".join(f"{a} {b}\n" for a, b in zip(labels, labels[1:])))
    code, out, _ = run(
        capsys, "search", gf, "--dim", "1", "--max-len", "1200", "--node-limit", "10",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "node_limit_exceeded"


def test_facets(tmp_path, capsys):
    code, out, _ = run(capsys, "facets", "6", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["facets"] == [[1, 2], [1, 6], [2, 3], [3, 4], [4, 5], [5, 6]]
    code, out, _ = run(capsys, "facets", "5", "3")
    assert json.loads(out)["facets"] == [
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 5], [3, 4, 5]
    ]
    code, _, err = run(capsys, "facets", "3", "3")
    assert code == 2


# Once an OverflowError and a MemoryError traceback with exit 1.
@pytest.mark.parametrize("r, d", [("99999999999999999999", "2"),
                                  ("99999999999999999999", "3"),
                                  (str(sys.maxsize), "2")])
def test_facets_past_memory_is_an_input_error(capsys, r, d):
    code, out, err = run(capsys, "facets", r, d)
    assert (code, out) == (2, "")
    assert err == f"error: C({r}, {d}) has more facets than memory can hold\n"


def test_extend_planar(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "1 4 2 1 3 2 4 3\n")
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))[0] == 0
    extras = formats.dump_json(
        {"dimension": 2, "points": [["-2", "3"], ["10", "91"], ["9/2", "11"]]}
    )
    ef = write(tmp_path, "extras.json", extras)
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        capsys, "extend", str(cfg_path), ef, "--mode", "planar", "--output", str(out_path),
    )
    assert code == 0
    assert "nerve preserved" in out
    ext = formats.config_from_doc(json.loads(out_path.read_text()))
    assert len(ext.points) == 8 + 3


def test_extend_bipartite_cli(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "v1 u1\nv1 u2\nv2 u1\nv2 u2\n")
    word_path = tmp_path / "w.txt"
    assert run(capsys, "encode", gf, "--mode", "bipartite", "--output", str(word_path))[0] == 0
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", str(word_path), "--dim", "2", "--output", str(cfg_path))[0] == 0
    extras = formats.dump_json({"dimension": 2, "points": [["-3", "1"], ["40", "300"]]})
    ef = write(tmp_path, "extras.json", extras)
    code, out, _ = run(
        capsys, "extend", str(cfg_path), ef, "--mode", "bipartite", "--graph", gf,
    )
    assert code == 0


def test_extend_bipartite_on_hyperplane_extra(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "v1 u1\nv1 u2\n")
    word_path = tmp_path / "w.txt"
    run(capsys, "encode", gf, "--mode", "bipartite", "--output", str(word_path))
    cfg_path = tmp_path / "cfg.json"
    run(capsys, "realize", str(word_path), "--dim", "1", "--output", str(cfg_path))
    ef = write(
        tmp_path, "extras.json",
        formats.dump_json({"dimension": 1, "points": [["7/2"]]}),
    )
    code, _, err = run(
        capsys, "extend", str(cfg_path), ef, "--mode", "bipartite", "--graph", gf,
    )
    assert code == 2
    assert err == "error: extra (7/2) lies on a separator hyperplane\n"


def golden_argv(name):
    argv = ["extend", str(DATA / f"{name}_config.json"), str(DATA / f"{name}_extras.json")]
    if name.startswith("planar"):
        return argv + ["--mode", "planar"]
    return argv + ["--mode", "bipartite", "--graph", str(DATA / f"{name}_graph.txt")]


@pytest.mark.parametrize("offset, reason", [
    (0, "block point on separator hyperplane"),
    (Fraction(3, 2), "block split by its own hyperplane"),
])
def test_extend_bipartite_separator_faults_exit_4(monkeypatch, capsys, offset, reason):
    """A separator hyperplane that breaks its invariants is an internal
    error: its first root moved onto the first point of the color's first
    block, or between that block's second and third points."""
    separator_params = nerve_lib._separator_params

    def moved(layout, j):
        return [layout.spans[1, j].start + 1 + offset] + separator_params(layout, j)[1:]

    monkeypatch.setattr(nerve_lib, "_separator_params", moved)
    code, out, err = run(capsys, *golden_argv("bipartite"))
    assert (code, out, err) == (4, "", f"internal error: {reason}\n")


@pytest.mark.parametrize("name", [
    "planar", "planar_off_curve", "bipartite", "bipartite3", "bipartite4",
])
def test_extend_golden_stdout(capsys, name):
    # rational coordinates (planar), points (t/3, t^2/9 + 1) off the curve,
    # so that the nerve tests every pair (planar_off_curve), K2,3 minus an
    # edge (bipartite, d = 2), a 6-cycle with a pendant edge (bipartite3,
    # d = 3: separators from cubics) and an 8-cycle with a chord under
    # extras whose denominators 1..7 make an integer copy scaled by 420
    # (bipartite4, d = 4)
    code, out, err = run(capsys, *golden_argv(name))
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}_stdout.txt").read_text()


@pytest.mark.parametrize("name, reaches_lp", [
    ("planar", False), ("planar_off_curve", False), ("bipartite", False),
    ("bipartite3", True), ("bipartite4", True),
])
def test_extend_golden_lp_route(capsys, monkeypatch, name, reaches_lp):
    # planar pairs are decided by separating axes, in the nerve off the
    # curve too, and the planar goldens are triangle-free, so only the
    # d = 3 and d = 4 goldens reach the simplex; their stdout stays the
    # golden one
    calls = []
    real = geometry_lib.feasible_eq_nonneg
    monkeypatch.setattr(geometry_lib, "feasible_eq_nonneg",
                        lambda rows, rhs: calls.append(rows) or real(rows, rhs))
    code, out, err = run(capsys, *golden_argv(name))
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}_stdout.txt").read_text()
    assert bool(calls) == reaches_lp


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_golden_stdout(tmp_path, capsys, jobs):
    # the wheel W5, searched in one process and over a process pool
    gf = write(tmp_path, "w5.txt", "".join(f"{u} {v}\n" for u, v in W5_EDGES))
    code, out, _ = run(capsys, "search", gf, "--dim", "2", "--max-copies", "5",
                       "--max-len", "15", "--jobs", jobs)
    assert code == 0
    assert out == (DATA / "w5_search_stdout.json").read_text()


def test_extend_rejects_exponent_coordinate_quickly(tmp_path, capsys):
    # Fraction("1e-100000") builds 10^100000: once 71 s and a wrong message
    wf = write(tmp_path, "w.txt", "a b c a b c\n")
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))[0] == 0
    ef = write(tmp_path, "extras.json", '{"dimension": 2, "points": [["1e-100000", "5"]]}')
    start = time.monotonic()
    code, out, err = run(capsys, "extend", str(cfg_path), ef, "--mode", "planar")
    assert time.monotonic() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: bad rational '1e-100000': expected integer or 'p/q' string\n"


def test_extend_planar_hollow_triangle_is_an_input_error(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "c0 c3 c1 c0 c1 c0 c2 c3 c1\n")
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))[0] == 0
    ef = write(tmp_path, "extras.json", formats.dump_json(
        {"dimension": 2, "points": [["-4", "6"], ["-3/2", "11"], ["8", "269"]]}
    ))
    code, out, err = run(capsys, "extend", str(cfg_path), ef, "--mode", "planar")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the extension fills the hollow triangle c0 c1 c3: ")


def test_internal_error_has_one_prefix(capsys, monkeypatch):
    # the planar pair test reports one non-face pair as meeting once one of
    # its classes holds an extra, which only the re-check of the extended
    # configuration sees; the pair is told by the extension's colors on its
    # integer copy
    config = formats.config_from_doc(json.loads((DATA / "planar_config.json").read_text()))
    extras, _ = formats.points_from_doc(json.loads((DATA / "planar_extras.json").read_text()))
    grown = nerve_lib.extend_coloring_2d(config, extras)
    _, ints = geometry_lib._integer_copy(grown.points)
    color_of = dict(zip(ints, grown.colors))
    gained = set(grown.colors[len(config.points):])
    apart = next(
        {a, b} for a, b in combinations(config.color_labels, 2)
        if {a, b} & gained and not nerve_lib.nerve(config, 2).complex.is_face((a, b))
    )
    real = nerve_lib._planar_hulls_meet

    def one_pair_meets(ha, hb):
        return {color_of[ha[0]], color_of[hb[0]]} == apart or real(ha, hb)

    monkeypatch.setattr(nerve_lib, "_planar_hulls_meet", one_pair_meets)
    code, out, err = run(capsys, *golden_argv("planar"))
    assert code == 4
    assert out == ""
    assert err == "internal error: extension changed the nerve\n"


@pytest.mark.parametrize("name, points, message", [
    ("bipartite", [["7/3", "-5"], ["-3", "1"], ["7/3", "-5"]], "extra (7/3, -5) is given twice"),
    ("bipartite", [["-3", "1"], ["3", "9"]], "extra (3, 9) is a configuration point"),
    ("planar", [["1", "2"], ["-201/7", "40401/49"]],
     "extra (-201/7, 40401/49) is a configuration point"),
])
def test_extend_rejects_repeated_extras_before_any_hull_test(
        tmp_path, capsys, monkeypatch, name, points, message):
    calls = []
    for test in ("hulls_intersect", "_planar_hulls_meet"):
        real = getattr(nerve_lib, test)
        monkeypatch.setattr(nerve_lib, test,
                            lambda *args, real=real: calls.append(1) or real(*args))
    ef = write(tmp_path, "extras.json", formats.dump_json({"dimension": 2, "points": points}))
    argv = golden_argv(name)
    argv[2] = ef
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("name, bad", [
    ("planar", "repeated"), ("planar", "config_point"), ("planar", "collinear"),
    ("bipartite", "repeated"), ("bipartite", "config_point"),
])
def test_extend_refused_extras_match_the_golden_stderr(capsys, name, bad):
    argv = golden_argv(name)
    argv[2] = str(DATA / f"{bad}_extras.json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (DATA / f"{bad}_stderr.txt").read_text()


def test_extend_dimension_mismatch(tmp_path, capsys):
    wf = write(tmp_path, "w.txt", "a b a b\n")
    cfg_path = tmp_path / "cfg.json"
    run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))
    ef = write(
        tmp_path, "extras.json",
        formats.dump_json({"dimension": 3, "points": [["1", "2", "3"]]}),
    )
    code, _, _ = run(capsys, "extend", str(cfg_path), ef, "--mode", "planar")
    assert code == 2


@pytest.mark.parametrize("extras", [
    '{"dimension": 2, "points": [[true, 9]]}',
    '{"dimension": 2.9, "points": [["-2", "3"]]}',
    '{"dimension": 2, "points": 5}',
    '{"dimension": 2, "points": [5]}',
])
def test_extend_rejects_bool_coordinate_and_float_dimension(tmp_path, capsys, extras):
    wf = write(tmp_path, "w.txt", "1 4 2 1 3 2 4 3\n")
    cfg_path = tmp_path / "cfg.json"
    assert run(capsys, "realize", wf, "--dim", "2", "--output", str(cfg_path))[0] == 0
    ef = write(tmp_path, "extras.json", extras)
    code, out, err = run(capsys, "extend", str(cfg_path), ef, "--mode", "planar")
    assert code == 2
    assert out == "" and err.startswith("error: ")
    # the same document read as a configuration
    good = write(tmp_path, "good.json", '{"dimension": 2, "points": [["-2", "3"]]}')
    code, out, err = run(capsys, "extend", ef, good, "--mode", "planar")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", ["extend", "encode"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    if command == "extend":
        deep = write(tmp_path, "deep.json", "[" * 200_000)
        argv = ["extend", deep, deep, "--mode", "planar"]
    else:
        deep = write(tmp_path, "deepg.json", '{"vertices": ' + "[" * 200_000)
        argv = ["encode", deep]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "0")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_selftest_reaches_the_lp_on_planar_pairs(capsys, monkeypatch):
    # the library decides planar pairs by separating axes, so selftest must
    # still run the LP, `hulls_intersect`, on them to see an LP that is
    # wrong there
    real = geometry_lib._hull_lp

    def flipped(classes):
        verdict = real(classes)
        if len(classes) == 2 and len(classes[0][0]) == 2:
            return not verdict
        return verdict

    monkeypatch.setattr(geometry_lib, "_hull_lp", flipped)
    code, out, _ = run(capsys, "selftest", "--seed", "0")
    assert code == 4
    assert "FAIL breen-vs-feasibility\n" in out


def test_selftest_checks_the_separating_axes(capsys, monkeypatch):
    # `hulls_intersect` no longer reaches the separating axes, so selftest
    # runs them itself on the planar pairs
    real = geometry_lib._planar_hulls_meet
    monkeypatch.setattr(geometry_lib, "_planar_hulls_meet", lambda ha, hb: not real(ha, hb))
    code, out, _ = run(capsys, "selftest", "--seed", "0")
    assert code == 4
    assert "FAIL breen-vs-feasibility\n" in out


def test_output_byte_determinism(tmp_path, capsys):
    gf = write(tmp_path, "g.txt", "a b\nb c\n")
    outs = []
    for tag in ("x", "y"):
        out_path = tmp_path / f"{tag}.json"
        code, _, _ = run(
            capsys, "search", gf, "--dim", "1", "--output", str(out_path),
        )
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]

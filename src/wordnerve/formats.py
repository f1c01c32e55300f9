"""Stable text and JSON document formats for every pipeline object.

Text formats use '#' comments.  JSON documents are emitted with sorted
keys, two-space indent and a trailing newline, so identical data always
serializes to identical bytes.  Rationals travel as strings "p/q" (or
plain integers when the denominator is one).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .encode import ChordDiagram
from .geometry import GeometryError, Point, rational
from .graphs import Graph, GraphError, from_edge_list
from .nerve import ColoredConfig
from .search import SearchBudget, SearchVerdict
from .words import Word


class FormatError(ValueError):
    """Malformed input document; the message names the offending line."""


def _strip_comments(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _label(x) -> str:
    """A JSON label, color or slot: a string, or an integer but not a bool."""
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return str(x)
    raise FormatError(f"bad label {x!r}: expected a string or an integer")


def _list_field(doc: dict, key: str, what: str) -> list:
    """doc[key], which must be a JSON list: iterating a string instead
    would read it as a list of one-character labels."""
    try:
        value = doc[key]
    except KeyError as exc:
        raise FormatError(f"bad {what} document: missing {key!r}") from exc
    if not isinstance(value, list):
        kind = type(value).__name__
        raise FormatError(f"bad {what} document: {key} must be a list, not {kind}")
    return value


# -- graphs -----------------------------------------------------------------

def parse_graph_text(text: str) -> Graph:
    """One edge "u v" per line; a single token declares an isolated vertex."""
    pairs = []
    isolated = []
    for lineno, line in _strip_comments(text):
        toks = line.split()
        if len(toks) == 1:
            isolated.append(toks[0])
        elif len(toks) == 2:
            pairs.append((toks[0], toks[1]))
        else:
            raise FormatError(f"line {lineno}: expected 1 or 2 tokens, got {len(toks)}")
    if not pairs and not isolated:
        raise FormatError("graph file declares no vertices")
    try:
        return from_edge_list(pairs, isolated)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def dump_graph_text(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edge_list]
    used = {x for e in g.edge_list for x in e}
    lines += [v for v in g.vertices if v not in used]
    return "\n".join(lines) + "\n"


def graph_to_doc(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edge_list]}


def graph_from_doc(doc: dict) -> Graph:
    vertices = [_label(v) for v in _list_field(doc, "vertices", "graph")]
    edges = []
    for e in _list_field(doc, "edges", "graph"):
        if not isinstance(e, list) or len(e) != 2:
            raise FormatError(f"bad graph document: edge {e!r} is not a list of two labels")
        edges.append((_label(e[0]), _label(e[1])))
    if not edges and not vertices:
        raise FormatError("graph document declares no vertices")
    try:
        return from_edge_list(edges, vertices)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def parse_graph_file(text: str) -> Graph:
    """Sniff JSON vs. plain text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_doc(load_json(text))
    return parse_graph_text(text)


# -- words ------------------------------------------------------------------

def parse_words_text(text: str) -> list[Word]:
    """One word per line, letters separated by whitespace."""
    out = []
    for lineno, line in _strip_comments(text):
        out.append(Word(tuple(line.split())))
    if not out:
        raise FormatError("word file contains no words")
    return out


def dump_words_text(words: list[Word]) -> str:
    return "\n".join(str(w) for w in words) + "\n"


# -- rationals and points ---------------------------------------------------

def fraction_str(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_coord(x) -> Fraction:
    """`geometry.rational` with a FormatError: a JSON integer or a string
    of its grammar, what `fraction_str` writes."""
    try:
        return rational(x)
    except GeometryError as exc:
        raise FormatError(f"bad rational {x!r}: expected integer or 'p/q' string") from exc


def points_to_doc(points: list[Point], dimension: int) -> dict:
    return {
        "dimension": dimension,
        "points": [[fraction_str(c) for c in p] for p in points],
    }


def points_from_doc(doc: dict) -> tuple[list[Point], int]:
    try:
        d = doc["dimension"]
    except KeyError as exc:
        raise FormatError("bad point document: missing 'dimension'") from exc
    if isinstance(d, bool) or not isinstance(d, int):
        raise FormatError(f"bad point document: dimension {d!r} is not an integer")
    points = []
    for row in _list_field(doc, "points", "point"):
        if not isinstance(row, list):
            raise FormatError("bad point document: points must be a list of coordinate lists")
        p = tuple(_parse_coord(c) for c in row)
        if len(p) != d:
            raise FormatError(f"point {row} does not have dimension {d}")
        points.append(p)
    return points, d


# -- colored configurations -------------------------------------------------

def config_to_doc(config: ColoredConfig) -> dict:
    doc = points_to_doc(list(config.points), config.dimension)
    doc["colors"] = list(config.colors)
    return doc


def config_from_doc(doc: dict) -> ColoredConfig:
    points, _ = points_from_doc(doc)
    colors = [_label(c) for c in _list_field(doc, "colors", "configuration")]
    return ColoredConfig(tuple(points), tuple(colors))


# -- circle structures ------------------------------------------------------

def circle_structure_from_doc(doc: dict) -> ChordDiagram:
    kind = doc.get("kind")
    if kind != "chord-diagram":
        raise FormatError(f"unknown circle structure kind {kind!r}")
    slots = tuple(_label(s) for s in _list_field(doc, "slots", "circle"))
    if not slots:
        raise FormatError("chord diagram has no slots")
    try:
        return ChordDiagram(slots)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- search verdicts --------------------------------------------------------

def verdict_to_doc(verdict: SearchVerdict, d: int, budget: SearchBudget) -> dict:
    return {
        "d": d,
        "outcome": verdict.outcome,
        "witness": str(verdict.witness) if verdict.witness is not None else None,
        "nodes_explored": verdict.nodes_explored,
        "budget": {
            "max_copies_per_letter": budget.max_copies_per_letter,
            "max_total_length": budget.max_total_length,
            "node_limit": budget.node_limit,
        },
    }


# -- JSON plumbing ----------------------------------------------------------

def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    return doc


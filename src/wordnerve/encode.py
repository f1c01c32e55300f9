"""Constructive encoders between graphs, words and chord diagrams.

Every encoder comes with a guarantee of the form "the induced graph of
the output equals the input", and the test-suite re-checks that guarantee
through the independent alternation machinery rather than trusting the
construction.

Determinism conventions: edges are processed in lexicographic order,
alternating factors start with the lexicographically smaller letter (or
with the v-part letter in the bipartite encoder), and isolated vertices
are appended once at the end of a constructed word, where a single
occurrence can never create a d-intersection.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph, GraphError, Record, bipartition
from .words import Word


class ChordDiagram(Record):
    """2n circle slots; each chord label occupies exactly two of them."""

    slots: tuple[str, ...]

    def __post_init__(self):
        counts = Counter(self.slots)
        for label in self.slots:
            if counts[label] != 2:
                raise ValueError(f"chord {label!r} must occupy exactly 2 slots")

    @property
    def chords(self) -> frozenset[str]:
        return frozenset(self.slots)


def _alternating_factor(first: str, second: str, length: int) -> list[str]:
    return [first if i % 2 == 0 else second for i in range(length)]


def word_any_graph(g: Graph) -> tuple[Word, int]:
    """Encode an arbitrary graph: one alternating factor of length d+2 per
    edge, with d = max(#edges - 1, 1).  Isolated vertices trail once."""
    edges = g.edge_list
    m = len(edges)
    d = max(m - 1, 1)
    letters: list[str] = []
    for x, y in edges:  # x < y already
        letters.extend(_alternating_factor(x, y, d + 2))
    used = set(letters)
    for v in g.vertices:
        if v not in used:
            letters.append(v)
    return Word(tuple(letters)), d


class BipartiteLayout(Record):
    """Full position bookkeeping for the bipartite word construction."""

    word: Word
    d: int
    u_labels: tuple[str, ...]  # u_1..u_m
    # (i, j) -> 0-based word positions of the factor F_i(u_j), 1-based i
    # and j; a non-edge's factor is an empty range at its place in W_i
    spans: dict[tuple[int, int], range]
    trailing: tuple[str, ...]  # isolated vertices appended at the end


def bipartite_parts(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Parts (U, V) of g, |V| <= |U|, and the level d = max(|V|, 1) of its encoding."""
    parts = bipartition(g)
    if parts is None:
        raise GraphError("graph is not bipartite")
    return *parts, max(len(parts[1]), 1)


def bipartite_layout(g: Graph) -> BipartiteLayout:
    """The block structure behind word_bipartite.

    Word = W_1 ... W_d where W_i concatenates, over the u-part (ascending
    for odd i, descending for even i), an alternating factor of length d+2
    over {v_i, u_j} for each edge {v_i, u_j}.  The u-order reversal between
    consecutive W_i is what caps the alternation of non-adjacent u-pairs.
    """
    u_part, v_part, d = bipartite_parts(g)

    letters: list[str] = []
    spans: dict[tuple[int, int], range] = {}
    u_order = list(enumerate(u_part, start=1))
    for i, v in enumerate(v_part, start=1):
        for j, u in u_order if i % 2 == 1 else reversed(u_order):
            start = len(letters)
            if g.has_edge(v, u):
                letters.extend(_alternating_factor(v, u, d + 2))
            spans[i, j] = range(start, len(letters))

    used = set(letters)
    trailing = tuple(v for v in g.vertices if v not in used)
    letters.extend(trailing)
    return BipartiteLayout(
        word=Word(tuple(letters)),
        d=d,
        u_labels=u_part,
        spans=spans,
        trailing=trailing,
    )


def word_bipartite(g: Graph) -> tuple[Word, int]:
    """Encode a bipartite graph with d = size of its smaller part."""
    layout = bipartite_layout(g)
    return layout.word, layout.d


def word_from_chord_diagram(dgm: ChordDiagram) -> Word:
    """Read chord labels around the circle: a 2-uniform word whose classic
    and level-2 induced graphs both equal the chord intersection graph."""
    return Word(dgm.slots)


def chord_intersection_graph(dgm: ChordDiagram) -> Graph:
    """Direct interleaving check, independent of the word machinery."""
    labels = sorted(dgm.chords)
    pos = {lab: [i for i, s in enumerate(dgm.slots) if s == lab] for lab in labels}
    edges = set()
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            (a1, a2), (b1, b2) = pos[x], pos[y]
            if a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2:
                edges.add((x, y))
    return Graph(tuple(labels), frozenset(edges))

"""Simple undirected labeled graphs and simplicial complexes.

Vertices are opaque string labels.  Everything is stored canonically
(vertices sorted, each edge once with endpoints sorted) so that equal
graphs compare equal and serialize identically.  Equality throughout the
package is labeled equality, never isomorphism: the pipelines all
preserve labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


class GraphError(ValueError):
    """Bad graph input (self-loop, unknown vertex, ...)."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with sorted vertex tuple and canonical edge set."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _adj: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})

    def has_edge(self, u: str, v: str) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    @property
    def edge_list(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def __str__(self):
        es = " ".join(f"{u}-{v}" for u, v in self.edge_list)
        return f"Graph({len(self.vertices)} vertices: {es or 'no edges'})"


def check_token(label: str, error: type[ValueError]) -> None:
    """Raise `error` unless `label` is one token of the text formats:
    nonempty, with no whitespace and no '#' (which starts a comment)."""
    if "#" in label or label.split() != [label]:
        raise error(f"labels must be nonempty tokens without whitespace or '#': {label!r}")


def from_edge_list(pairs, isolated=()) -> Graph:
    """Build a canonical Graph from edge pairs plus extra isolated vertices.

    Duplicate edges collapse; a self-loop is rejected, and so is a label
    that is not a token (`check_token`).
    """
    verts: set[str] = set(str(x) for x in isolated)
    edges: set[tuple[str, str]] = set()
    for a, b in pairs:
        a, b = str(a), str(b)
        if a == b:
            raise GraphError(f"self-loop at vertex {a!r}")
        verts.add(a)
        verts.add(b)
        edges.add((a, b) if a < b else (b, a))
    vertices = tuple(sorted(verts))
    for v in vertices:
        check_token(v, GraphError)
    return Graph(vertices, frozenset(edges))


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    for u, v in g.edges:
        if g.neighbors(u) & g.neighbors(v):
            return False
    return True


def bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """2-color g if possible, returning parts (U, V) with |V| <= |U|.

    Returns None when g has an odd cycle.  The coloring is deterministic:
    BFS from the smallest label of each component, which always gets
    color 0.  Ties in part size are broken so that the part containing
    the globally smallest vertex comes first.
    """
    color: dict[str, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in sorted(g.neighbors(u)):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part0 = tuple(sorted(v for v in g.vertices if color[v] == 0))
    part1 = tuple(sorted(v for v in g.vertices if color[v] == 1))
    if len(part0) < len(part1):
        part0, part1 = part1, part0
    return part0, part1


class ComplexError(ValueError):
    """Face set that is not a valid simplicial complex."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face set over string vertex labels.

    Faces are stored as frozensets; every singleton of a declared vertex
    must be a face.  Construction validates both invariants.
    """

    vertices: tuple[str, ...]
    faces: frozenset[frozenset[str]]

    def __post_init__(self):
        vset = set(self.vertices)
        for f in self.faces:
            if not f <= vset:
                raise ComplexError(f"face {sorted(f)} uses undeclared vertices")
        for v in self.vertices:
            if frozenset([v]) not in self.faces:
                raise ComplexError(f"missing singleton face for vertex {v!r}")
        for f in self.faces:
            for sub in combinations(sorted(f), len(f) - 1):
                if len(sub) >= 1 and frozenset(sub) not in self.faces:
                    raise ComplexError(
                        f"not downward closed: {sorted(f)} present, {list(sub)} missing"
                    )

    def is_face(self, labels) -> bool:
        return frozenset(labels) in self.faces

    def faces_of_size(self, k: int) -> list[tuple[str, ...]]:
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == k)


def one_skeleton(k: SimplicialComplex) -> Graph:
    """Graph of all 1-faces of the complex."""
    edges = {tuple(sorted(f)) for f in k.faces if len(f) == 2}
    return Graph(k.vertices, frozenset(edges))

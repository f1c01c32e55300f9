"""Simple undirected labeled graphs and simplicial complexes.

Vertices are opaque string labels.  Everything is stored canonically
(vertices sorted, each edge once with endpoints sorted) so that equal
graphs compare equal and serialize identically.  Equality throughout the
package is labeled equality, never isomorphism: the pipelines all
preserve labels.
"""

from __future__ import annotations

from itertools import combinations


class Record:
    """Base of the package's frozen value classes, in place of a frozen
    dataclass: importing `dataclasses` and building the classes took a
    large share of every CLI start-up.

    The annotated class attributes of a subclass are its fields, in order.
    The constructor takes them positionally or by keyword, then calls
    `__post_init__`.  Equality, hash and repr go over the fields, as for a
    dataclass; other instance attributes stay outside all three.
    Assignment raises AttributeError; unpickling restores the instance
    dictionary without calling the constructor.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or (
            kwargs and not kwargs.keys() <= set(fields[len(args):])
        ):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        vars(self).update(zip(fields, args), **kwargs)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _unchecked(cls, *args):
        """An instance of fields the caller already knows to be valid,
        without `__post_init__`."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._fields, args))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GraphError(ValueError):
    """Bad graph input (self-loop, unknown vertex, ...)."""


class Graph(Record):
    """Immutable simple graph with sorted vertex tuple and canonical edge set."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

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


class SimplicialComplex(Record):
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

"""The frozen value classes behave as the frozen dataclasses they replace:
constructor, validation, equality, hash, repr, immutability, pickling.
The repr strings are those the dataclasses printed."""

import pickle
from fractions import Fraction

import pytest

from wordnerve.encode import BipartiteLayout, ChordDiagram
from wordnerve.geometry import GeometryError, Hyperplane
from wordnerve.graphs import ComplexError, Graph, SimplicialComplex
from wordnerve.nerve import ColoredConfig, NerveResult
from wordnerve.search import SearchBudget, SearchError, SearchVerdict
from wordnerve.words import Word, WordError

POINT = frozenset({frozenset({"a"})})
# (class, fields by keyword, repr)
CASES = [
    (Graph, {"vertices": ("a", "b"), "edges": frozenset({("a", "b")})},
     "Graph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"),
    (SimplicialComplex, {"vertices": ("a",), "faces": POINT},
     "SimplicialComplex(vertices=('a',), faces=frozenset({frozenset({'a'})}))"),
    (Word, {"letters": ("a", "b", "a")}, "Word(letters=('a', 'b', 'a'))"),
    (ChordDiagram, {"slots": ("a", "b", "a", "b")}, "ChordDiagram(slots=('a', 'b', 'a', 'b'))"),
    (BipartiteLayout, {"word": Word(("v", "u", "v")), "d": 1, "u_labels": ("u",),
                       "spans": {(1, 1): range(0, 3)}, "trailing": ()},
     "BipartiteLayout(word=Word(letters=('v', 'u', 'v')), d=1, u_labels=('u',), "
     "spans={(1, 1): range(0, 3)}, trailing=())"),
    (Hyperplane, {"normal": (1, -2), "offset": 3}, "Hyperplane(normal=(1, -2), offset=3)"),
    (ColoredConfig, {"points": ((Fraction(1, 2), 0), (1, 1)), "colors": ("x", "y")},
     "ColoredConfig(points=((Fraction(1, 2), 0), (1, 1)), colors=('x', 'y'))"),
    (NerveResult, {"complex": SimplicialComplex(("a",), POINT)},
     "NerveResult(complex=SimplicialComplex(vertices=('a',), "
     "faces=frozenset({frozenset({'a'})})))"),
    (SearchBudget, {"max_copies_per_letter": 3, "max_total_length": 14, "node_limit": 100},
     "SearchBudget(max_copies_per_letter=3, max_total_length=14, node_limit=100)"),
    (SearchVerdict, {"outcome": "found", "witness": Word(("a",)), "nodes_explored": 7},
     "SearchVerdict(outcome='found', witness=Word(letters=('a',)), nodes_explored=7)"),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_value_class_matches_the_frozen_dataclass(cls, fields, text):
    first, *rest = fields
    obj = cls(**fields)
    assert repr(obj) == text
    assert obj == cls(*fields.values()) == cls(fields[first], **{k: fields[k] for k in rest})
    assert [getattr(obj, k) for k in fields] == list(fields.values())
    assert obj != text and not obj == text
    if cls is BipartiteLayout:  # a dict field makes it unhashable, as before
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(*fields.values()))
    with pytest.raises(AttributeError):
        setattr(obj, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    for bad_args, bad_kwargs in [((), {}), ((*fields.values(), 0), {}),
                                 ((fields[first],), {first: fields[first]}),
                                 ((), {**fields, "extra": 0})]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and repr(copy) == text


def test_unequal_values_compare_unequal():
    assert Word(("a",)) != Word(("b",))
    assert Hyperplane((1, 2), 3) != Hyperplane((1, 2), 4)
    assert SearchBudget(1, 2, 3) != SearchBudget(1, 2, 4)
    assert hash(Word(("a", "b"))) == hash(Word(("a", "b")))
    assert {Word(("a",)), Word(("a",)), Word(("b",))} == {Word(("a",)), Word(("b",))}
    # equality needs the same class, not the same fields
    assert Word(("a", "b", "a", "b")) != ChordDiagram(("a", "b", "a", "b"))


@pytest.mark.parametrize("make, error", [
    (lambda: Graph(("a",), frozenset({("a", "b")})), KeyError),
    (lambda: SimplicialComplex(("a", "b"), POINT), ComplexError),
    (lambda: Word(("a b",)), WordError),
    (lambda: ChordDiagram(("a", "a", "a", "b")), ValueError),
    (lambda: Hyperplane((0, 0), 1), GeometryError),
    (lambda: ColoredConfig(((0, 0),), ("x", "y")), GeometryError),
    (lambda: SearchBudget(max_copies_per_letter=0, max_total_length=1, node_limit=1),
     SearchError),
])
def test_post_init_still_rejects_bad_input(make, error):
    with pytest.raises(error):
        make()


def test_graph_adjacency_is_outside_eq_hash_and_repr():
    g = Graph(("a", "b", "c"), frozenset({("a", "b")}))
    assert g.neighbors("a") == {"b"} and g.neighbors("c") == frozenset()
    other = Graph(("a", "b", "c"), frozenset({("a", "b")}))
    object.__setattr__(other, "_adj", {})
    assert g == other and hash(g) == hash(other)
    assert "_adj" not in repr(g)
    assert pickle.loads(pickle.dumps(g)).neighbors("b") == {"a"}

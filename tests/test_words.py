import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordnerve.graphs import from_edge_list
from wordnerve.words import (
    Word,
    WordError,
    _intersecting_pairs,
    induced_graph_classic,
    induced_graph_general,
    is_d_intersecting,
    max_alternation,
    rotate,
    word,
)

from .oracles import brute_max_alternation, dp_max_alternation, strictly_alternates

# Fixed examples and no example database: every run draws the same cases.
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_word_basics():
    w = word("abab")
    assert len(w) == 4
    assert w.alphabet == {"a", "b"}


def test_word_tokenized_forms():
    assert word("ab ba x").letters == ("ab", "ba", "x")
    assert word(["v1", "u1"]).letters == ("v1", "u1")
    for bad in ("", "a b", "a\tb", " a", "a#b", "#"):
        with pytest.raises(WordError):
            Word(("x", bad))


def test_max_alternation_examples():
    assert max_alternation(word("abab"), "a", "b") == 4
    assert max_alternation(word("1616666"), "1", "6") == 4  # contains 1616
    assert max_alternation(word("11212"), "1", "2") == 4
    assert max_alternation(word("ab"), "a", "c") == 1
    assert max_alternation(word("ab"), "c", "d") == 0
    with pytest.raises(WordError):
        max_alternation(word("ab"), "a", "a")


def test_max_alternation_exhaustive_small():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 11)
        letters = tuple(rng.choice("abc") for _ in range(n))
        w = Word(letters)
        assert max_alternation(w, "a", "b") == brute_max_alternation(letters, "a", "b")


@EXAMPLES
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=60))
def test_max_alternation_matches_dp(letters):
    w = Word(tuple(letters))
    assert max_alternation(w, "a", "b") == dp_max_alternation(letters, "a", "b")


@EXAMPLES
@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=30),
    st.lists(st.sampled_from("abc"), min_size=0, max_size=10),
)
def test_max_alternation_monotone_under_extension(base, suffix):
    w1 = Word(tuple(base))
    w2 = Word(tuple(base + suffix))
    assert max_alternation(w2, "a", "b") >= max_alternation(w1, "a", "b")


def test_is_d_intersecting_observation_fixture():
    assert is_d_intersecting(word("12121"), "1", "2", 3)
    assert not is_d_intersecting(word("11212"), "1", "2", 3)
    assert not is_d_intersecting(word("ab"), "a", "b", 1)


def test_induced_graph_general_wheel_word():
    w5 = from_edge_list(
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5"),
         ("1", "6"), ("2", "6"), ("3", "6"), ("4", "6"), ("5", "6")]
    )
    assert induced_graph_general(word("156216326436546"), 2) == w5


def test_induced_graph_general_cyclic_permutation_fixture():
    k2 = from_edge_list([("1", "2")])
    assert induced_graph_general(word("12121"), 3) == k2
    g = induced_graph_general(word("11212"), 3)
    assert g.vertices == ("1", "2") and not g.edges


def test_induced_graph_general_two_isolated():
    g = induced_graph_general(word("aabb"), 1)
    assert g.vertices == ("a", "b") and not g.edges


def test_induced_graph_classic_examples():
    assert induced_graph_classic(word("ababab")) == from_edge_list([("a", "b")])
    g = induced_graph_classic(word("abba"))
    assert g.vertices == ("a", "b") and not g.edges
    # restriction check: {1,2} and {2,3} alternate, {1,3} gives 1133
    assert induced_graph_classic(word("121323")) == from_edge_list([("1", "2"), ("2", "3")])


def test_induced_graph_classic_matches_definition_fuzz():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 10)
        letters = tuple(rng.choice("abcd") for _ in range(n))
        w = Word(letters)
        g = induced_graph_classic(w)
        alpha = sorted(w.alphabet)
        for i, x in enumerate(alpha):
            for y in alpha[i + 1 :]:
                assert g.has_edge(x, y) == strictly_alternates(letters, x, y)


@EXAMPLES
@given(st.lists(st.sampled_from("abcdef"), max_size=40))
def test_sweep_matches_the_dp_run_count(letters):
    # one sweep of the word against the dynamic program per pair, on words
    # with repeated letters, empty words included
    alphabet = sorted(set(letters))
    runs = {(x, y): dp_max_alternation(letters, x, y)
            for i, x in enumerate(alphabet) for y in alphabet[i + 1 :]}
    for d in (1, 2, 3, 4):
        assert _intersecting_pairs(letters, d) == [pair for pair, r in runs.items() if r >= d + 2]
    if letters:
        counts = {x: letters.count(x) for x in alphabet}
        classic = {pair for pair, r in runs.items() if r == counts[pair[0]] + counts[pair[1]]}
        assert induced_graph_classic(Word(tuple(letters))).edges == classic


def test_rotate():
    assert rotate(word("12121"), 1) == word("21211")
    w = word("abcab")
    assert rotate(w, 0) == w
    assert rotate(w, len(w)) == w
    assert rotate(w, -1) == word("babca")


@EXAMPLES
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=14), st.integers(0, 13))
def test_rotation_invariance_at_level_two(letters, s):
    w = Word(tuple(letters))
    assert induced_graph_general(rotate(w, s), 2) == induced_graph_general(w, 2)


def test_rotation_invariance_fails_for_odd_level():
    w, w_rot = word("12121"), word("11212")
    assert rotate(w, 4) == w_rot
    assert induced_graph_general(w, 3) != induced_graph_general(w_rot, 3)


def test_uniform_classic_edges_survive_as_general_edges():
    # k-uniform + alternating restriction => alternation 2k-1 or 2k,
    # so classic edges persist at every level with d+2 <= 2k-1.
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(2, 4)
        alpha = ["a", "b", "c"][: rng.randint(2, 3)]
        letters = [x for x in alpha for _ in range(k)]
        rng.shuffle(letters)
        w = Word(tuple(letters))
        if not all(w.letters.count(x) == k for x in w.alphabet):
            continue
        classic = induced_graph_classic(w)
        for x, y in classic.edge_list:
            assert max_alternation(w, x, y) >= 2 * k - 1
        for d in range(1, 2 * k - 3 + 1):
            general = induced_graph_general(w, d)
            for x, y in classic.edge_list:
                assert general.has_edge(x, y)

"""Words over a finite alphabet and their alternation semantics.

The central quantity is the pairwise alternation value of two letters x, y
in a word W: the length of the longest alternating subsequence of W using
only x and y.  That equals the number of maximal runs in the restriction
of W to {x, y}.  One left-to-right sweep (`_pair_runs`) counts the runs
of every pair at once, one step per run beyond the two that each pair of
occurring letters starts from, not one per pair.

Two letters are d-intersecting when their alternation value reaches d+2.
A word induces two graphs on its alphabet:

* the general graph at level d: edge iff the pair is d-intersecting;
* the classic graph: edge iff the pair's restriction strictly alternates.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, Record, check_token


class WordError(ValueError):
    """Bad word input."""


class Word(Record):
    """Immutable sequence of string letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        for a in self.letters:
            check_token(a, WordError)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(self.letters)


def word(seq) -> Word:
    """Make a Word from an iterable of tokens or a compact string.

    A plain string is split on whitespace when it contains any, otherwise
    each character is one letter (handy for single-character alphabets
    like "12121").
    """
    if isinstance(seq, Word):
        return seq
    if isinstance(seq, str):
        toks = seq.split() if any(c.isspace() for c in seq) else list(seq)
        return Word(tuple(toks))
    return Word(tuple(str(a) for a in seq))


def _pair_runs(letters) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """(counts, runs) of a plain letter sequence: each letter's number of
    copies, and the run count of the restriction to {x, y}, keyed (x, y)
    with x < y, of every pair making more than two runs; a pair with no
    entry makes 2 runs when both letters occur, else 1 or 0.  `recent`
    holds the letters in the order of their last copies.  A first copy of
    a opens one run of every pair holding a; a repeat opens a run of {a, b}
    exactly when b's last copy follows a's, so it bumps those pairs, each
    from 2, and moves a to the end of `recent`."""
    counts: dict[str, int] = {}
    runs: dict[tuple[str, str], int] = {}
    recent: list[str] = []
    for a in letters:
        if a in counts:
            i = len(recent) - 1
            while (b := recent[i]) != a:
                pair = (a, b) if a < b else (b, a)
                runs[pair] = runs.get(pair, 2) + 1
                i -= 1
            del recent[i]
        recent.append(a)
        counts[a] = counts.get(a, 0) + 1
    return counts, runs


def max_alternation(w: Word, x: str, y: str) -> int:
    """Longest alternating x/y subsequence length = run count of the
    restriction of w to {x, y}.  Zero when neither letter occurs."""
    if x == y:
        raise WordError("alternation needs two distinct letters")
    counts, runs = _pair_runs([a for a in w.letters if a == x or a == y])
    return runs.get((x, y) if x < y else (y, x), len(counts))


def is_d_intersecting(w: Word, x: str, y: str, d: int) -> bool:
    """True iff x and y have an alternating subword of length >= d+2."""
    if d < 1:
        raise WordError("d must be a positive integer")
    return max_alternation(w, x, y) >= d + 2


def _intersecting_pairs(letters, d: int) -> list[tuple[str, str]]:
    """The pairs (x, y), x < y, of a plain letter sequence whose
    restriction makes at least d + 2 runs (`_pair_runs`): its
    d-intersecting pairs, sorted."""
    return sorted(pair for pair, r in _pair_runs(letters)[1].items() if r >= d + 2)


def induced_graph_general(w: Word, d: int) -> Graph:
    """Graph on the alphabet with an edge exactly where letters are
    d-intersecting (the biconditional reading used by every proof that
    consumes this construction)."""
    if d < 1:
        raise WordError("d must be a positive integer")
    return Graph(tuple(sorted(w.alphabet)), frozenset(_intersecting_pairs(w.letters, d)))


def induced_graph_classic(w: Word) -> Graph:
    """Graph on the alphabet with an edge exactly where the pair
    restriction strictly alternates (no two adjacent equal letters)."""
    counts, runs = _pair_runs(w.letters)
    # strict alternation <=> every copy opens a run; two once-occurring
    # letters make their 2 runs with no entry in `runs`
    edges = {pair for pair, r in runs.items() if r == counts[pair[0]] + counts[pair[1]]}
    edges.update(combinations(sorted(x for x, n in counts.items() if n == 1), 2))
    return Graph(tuple(sorted(counts)), frozenset(edges))


def rotate(w: Word, s: int) -> Word:
    """Cyclic left rotation by s (mod word length)."""
    n = len(w)
    if n == 0:
        return w
    s %= n
    return Word(w.letters[s:] + w.letters[:s])

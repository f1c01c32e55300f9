"""Words over a finite alphabet and their alternation semantics.

The central quantity is the pairwise alternation value of two letters x, y
in a word W: the length of the longest alternating subsequence of W using
only x and y.  That equals the number of maximal runs in the restriction
of W to {x, y}, so it is computed in one left-to-right pass.

Two letters are d-intersecting when their alternation value reaches d+2.
A word induces two graphs on its alphabet:

* the general graph at level d: edge iff the pair is d-intersecting;
* the classic graph: edge iff the pair's restriction strictly alternates.
"""

from __future__ import annotations

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

    def count(self, x: str) -> int:
        return self.letters.count(x)

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


def pair_runs(letters, x: str, y: str) -> int:
    """Run count of the restriction of a plain letter sequence to {x, y}.
    Zero when neither letter occurs."""
    if x == y:
        raise WordError("alternation needs two distinct letters")
    runs = 0
    prev = None
    for a in letters:
        if a == x or a == y:
            if a != prev:
                runs += 1
                prev = a
    return runs


def max_alternation(w: Word, x: str, y: str) -> int:
    """Longest alternating x/y subsequence length = run count of the
    restriction of w to {x, y}.  Zero when neither letter occurs."""
    return pair_runs(w.letters, x, y)


def is_d_intersecting(w: Word, x: str, y: str, d: int) -> bool:
    """True iff x and y have an alternating subword of length >= d+2."""
    if d < 1:
        raise WordError("d must be a positive integer")
    return max_alternation(w, x, y) >= d + 2


def _opened_runs(letters) -> tuple[list[str], list[list[int]]]:
    """The sorted alphabet of a plain letter sequence and, for letters
    i != j of it, opened[i][j]: how many runs of the restriction to
    {i, j} letter i opens, so the pair makes opened[i][j] + opened[j][i]
    runs.  One left-to-right sweep keeps last[x], the position of x's
    last copy (-1 before its first): appending x opens a run of {x, y}
    exactly when last[x] <= last[y]."""
    alphabet = sorted(set(letters))
    index = {a: i for i, a in enumerate(alphabet)}
    last = [-1] * len(alphabet)
    opened = [[0] * len(alphabet) for _ in alphabet]
    for pos, a in enumerate(letters):
        x = index[a]
        lx = last[x]
        row = opened[x]
        for y, ly in enumerate(last):
            if lx <= ly:
                row[y] += 1
        last[x] = pos
    return alphabet, opened


def _intersecting_pairs(letters, d: int) -> list[tuple[str, str]]:
    """The pairs (x, y), x < y, of a plain letter sequence whose
    restriction makes at least d + 2 runs: its d-intersecting pairs."""
    alphabet, opened = _opened_runs(letters)
    return [(x, alphabet[j]) for i, x in enumerate(alphabet) for j in range(i + 1, len(alphabet))
            if opened[i][j] + opened[j][i] >= d + 2]


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
    letters, opened = _opened_runs(w.letters)
    # strict alternation <=> every occurrence starts a new run
    counts = [w.count(x) for x in letters]
    edges = frozenset(
        (x, letters[j]) for i, x in enumerate(letters) for j in range(i + 1, len(letters))
        if opened[i][j] == counts[i] and opened[j][i] == counts[j]
    )
    return Graph(tuple(letters), edges)


def rotate(w: Word, s: int) -> Word:
    """Cyclic left rotation by s (mod word length)."""
    n = len(w)
    if n == 0:
        return w
    s %= n
    return Word(w.letters[s:] + w.letters[:s])

"""Independent references used only by the tests.

Each reference recomputes a quantity through a different route than the
library (dynamic programming, exhaustive enumeration, LP membership, the
state or arithmetic a refactor replaced), so agreement is evidence rather
than tautology.  Most questions have one reference; a few have two, each
by its own route:

- run counts: `brute_max_alternation` by enumerating every subsequence,
  `dp_max_alternation` by dynamic programming; alternating pairs:
  `strictly_alternates`;
- bipartiteness: `has_odd_cycle_bruteforce`;
- general position: `check_general_position_2d_cubic`;
- nerve: `nerve_lp`; face walk: `new_faces_reference`;
- Gale facets: `facet_oracle` by the sides of each spanned hyperplane,
  `gale_facets_scan` by scanning the evenness condition; orientation:
  `det`;
- automorphisms: `automorphisms_bruteforce`;
- search: `StepEnumeration`, whole trees through `sequential_search`;
- LP verdict: `feasible_eq_nonneg_fraction`; LP pivots: `feasible_eq_nonneg_full`;
- moment points: `moment_point_products`; curve order: `curve_order_products`;
- planar colors: `assign_extras_2d_reference`;
- bipartite colors and hull tests: `extend_bipartite_fractions`;
- extra refusals: `coerce_extras_reference`.

The enumerations are exponential: keep their inputs small.  A replaced
route stays only while it catches a mutant that no remaining reference
catches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import wordnerve.geometry as geometry_lib
import wordnerve.nerve as nerve_lib
from wordnerve.encode import bipartite_layout
from wordnerve.geometry import (
    GeometryError,
    Point,
    _cross,
    _hull_2d,
    _hull_lp,
    _point_text,
    hyperplane_through_moment_points,
    moment_point,
    rational,
)
from wordnerve.graphs import SimplicialComplex
from wordnerve.nerve import (
    _FIXED_DIRECTIONS,
    ColoredConfig,
    DegenerateInputError,
    ExtensionError,
    NerveResult,
    _curve_order,
)
from wordnerve.search import (
    FOUND,
    NODE_LIMIT,
    NOT_FOUND,
    SearchVerdict,
    _problem_arrays,
    automorphisms,
)
from wordnerve.words import Word


def brute_max_alternation(letters, x, y) -> int:
    """Longest alternating x/y subsequence by explicit enumeration."""
    n = len(letters)
    best = 0
    for mask in range(1 << n):
        sub = [letters[i] for i in range(n) if mask >> i & 1]
        if not sub:
            continue
        if any(a not in (x, y) for a in sub):
            continue
        if all(a != b for a, b in zip(sub, sub[1:])):
            best = max(best, len(sub))
    return best


def dp_max_alternation(letters, x, y) -> int:
    """Longest alternating x/y subsequence by dynamic programming on the
    last letter used."""
    end_x = end_y = 0
    for a in letters:
        if a == x:
            end_x = max(end_x, end_y + 1)
        elif a == y:
            end_y = max(end_y, end_x + 1)
    return max(end_x, end_y)


def strictly_alternates(letters, x, y) -> bool:
    restr = [a for a in letters if a in (x, y)]
    return bool(restr) and all(a != b for a, b in zip(restr, restr[1:]))


def has_odd_cycle_bruteforce(vertices, edges) -> bool:
    """No valid 2-coloring among all 2^n assignments (first vertex pinned)."""
    vs = list(vertices)
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    pairs = [(idx[a], idx[b]) for a, b in edges]
    for mask in range(1 << n):
        if n and mask & 1:
            continue
        if all((mask >> a & 1) != (mask >> b & 1) for a, b in pairs):
            return False
    return True


def check_general_position_2d_cubic(points: list[Point]):
    """The general-position check by testing every triple in
    lexicographic order (the cubic loop the library replaced)."""
    if len(set(points)) != len(points):
        raise GeometryError("duplicate points")
    for i, j, k in combinations(range(len(points)), 3):
        if _cross(points[i], points[j], points[k]) == 0:
            raise GeometryError(
                f"collinear triple at indices ({i}, {j}, {k}): "
                + ", ".join(_point_text(points[m]) for m in (i, j, k))
            )


def nerve_lp(config: ColoredConfig, max_dim: int) -> NerveResult:
    """The nerve with every face, pairs included, an exact LP verdict
    (`geometry._hull_lp`, the route the library keeps for triples and for
    pairs outside the plane)."""
    if max_dim < 1:
        raise DegenerateInputError("max_dim must be >= 1")
    classes = config.classes()
    labels = config.color_labels
    faces: set[frozenset[str]] = {frozenset([c]) for c in labels}
    for size in range(2, max_dim + 2):
        layer_hits = []
        for combo in combinations(labels, size):
            if any(
                frozenset(combo[:i] + combo[i + 1 :]) not in faces
                for i in range(size)
            ):
                continue
            if _hull_lp([classes[c] for c in combo]):
                layer_hits.append(frozenset(combo))
        if not layer_hits:
            break
        faces.update(layer_hits)
    return NerveResult(SimplicialComplex(labels, frozenset(faces)))


def new_faces_reference(faces, labels, sizes, kept, grown=None) -> list[tuple[str, ...]]:
    """`nerve._new_faces` by walking every label set of each size in
    `sizes`, in label order: the sets not among the faces whose subsets one
    smaller all are, that hold a label of `grown` when it is given, and
    whose classes `kept[c]` meet by `nerve._meets`.  Each layer joins the
    faces before the next."""
    faces, gained = set(faces), []
    for size in sizes:
        met = [
            combo for combo in combinations(sorted(labels), size)
            if frozenset(combo) not in faces
            and all(frozenset(combo[:i] + combo[i + 1 :]) in faces for i in range(size))
            and (grown is None or not grown.isdisjoint(combo))
            and nerve_lib._meets([kept[c] for c in combo])
        ]
        faces.update(map(frozenset, met))
        gained += met
    return gained


def facet_oracle(r: int, d: int) -> list[tuple[int, ...]]:
    """Facets of C(r, d) by the definition: all remaining vertices lie
    strictly on one side of the spanned hyperplane."""
    pts = [moment_point(t, d) for t in range(1, r + 1)]
    out = []
    for sub in combinations(range(r), d):
        h = hyperplane_through_moment_points([i + 1 for i in sub], d)
        sides = {h.side(pts[i]) for i in range(r) if i not in sub}
        if len(sides) == 1 and 0 not in sides:
            out.append(tuple(i + 1 for i in sub))
    return out


def gale_facets_scan(r: int, d: int) -> list[tuple[int, ...]]:
    """Facets of C(r, d) by testing the evenness condition on every
    d-subset of {1..r}, in lexicographic order."""
    facets = []
    for sub in combinations(range(1, r + 1), d):
        outside = [i for i in range(1, r + 1) if i not in sub]
        if all(
            sum(1 for s in sub if x < s < y) % 2 == 0
            for x, y in combinations(outside, 2)
        ):
            facets.append(sub)
    return facets


def automorphisms_bruteforce(g) -> set[tuple[int, ...]]:
    """Every permutation of the sorted vertex indices that maps each edge
    to an edge (and so the edge set onto itself), found by trying all n!."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    pairs = [(idx[a], idx[b]) for a, b in g.edges]
    edges = {frozenset(pair) for pair in pairs}
    return {
        p for p in permutations(range(len(g.vertices)))
        if all(frozenset((p[a], p[b])) in edges for a, b in pairs)
    }


class StepEnumeration:
    """The search's DFS as it was before `wordnerve.search` flattened it
    into one loop and moved to per-letter last positions: one method per
    step, over the same tree in the same order, on a state that shares
    nothing with `search._dfs`.  It keeps the run-end matrix over letter
    indices 0..n-1: endl[x][y] is whichever of x and y came last (-1 before
    both) and alt[x][y] the run count of the pair.  Appending x opens a run
    of {x, y} iff endl[x][y] != x, and returns an undo list of
    (y, old_alt, old_end)."""

    def __init__(self, n: int, adj: list[list[bool]], d: int, budget,
                 auts: list[tuple[int, ...]]):
        self.n = n
        self.adj = adj
        self.target = d + 2
        self.max_copies = budget.max_copies_per_letter
        self.max_len = budget.max_total_length
        self.node_limit = budget.node_limit

        self.word: list[int] = []
        self.alt = [[0] * n for _ in range(n)]
        self.endl = [[-1] * n for _ in range(n)]
        self.counts = [0] * n
        self.introduced = 0
        self.total_deficit = sum(
            self.target for i in range(n) for j in range(i + 1, n) if adj[i][j]
        )
        self.deficient_deg = [sum(1 for j in range(n) if adj[i][j]) for i in range(n)]
        identity = tuple(range(n))
        self.stab_stack = [[p for p in auts if p != identity]]

        self.nodes = 0
        self.found: list[int] | None = None
        self.limit_hit = False

    def _useful(self, x: int) -> bool:
        adj_x, alt_x, end_x = self.adj[x], self.alt[x], self.endl[x]
        for y in range(self.n):
            if adj_x[y] and alt_x[y] < self.target and end_x[y] != x:
                return True
        return False

    def _append(self, x: int):
        """Apply letter x; return (ok, undo) where undo restores state."""
        changed: list[tuple[int, int, int]] = []  # (y, old_alt, old_end)
        ok = True
        target = self.target
        for y in range(self.n):
            if y == x:
                continue
            if self.endl[x][y] != x:
                changed.append((y, self.alt[x][y], self.endl[x][y]))
                new_alt = self.alt[x][y] + 1
                self.alt[x][y] = self.alt[y][x] = new_alt
                self.endl[x][y] = self.endl[y][x] = x
                if self.adj[x][y]:
                    if new_alt <= target:
                        self.total_deficit -= 1
                        if new_alt == target:
                            self.deficient_deg[x] -= 1
                            self.deficient_deg[y] -= 1
                elif new_alt >= target:
                    ok = False  # non-edge became d-intersecting; hopeless
        new_letter = self.counts[x] == 0
        self.counts[x] += 1
        if new_letter:
            self.introduced += 1
            self.stab_stack.append([p for p in self.stab_stack[-1] if p[x] == x])
        self.word.append(x)
        self.nodes += 1
        return ok, (x, changed, new_letter)

    def _undo(self, undo):
        x, changed, new_letter = undo
        self.word.pop()
        if new_letter:
            self.stab_stack.pop()
            self.introduced -= 1
        self.counts[x] -= 1
        target = self.target
        for y, old_alt, old_end in changed:
            if self.adj[x][y]:
                if self.alt[x][y] <= target:
                    self.total_deficit += 1
                    if self.alt[x][y] == target:
                        self.deficient_deg[x] += 1
                        self.deficient_deg[y] += 1
            self.alt[x][y] = self.alt[y][x] = old_alt
            self.endl[x][y] = self.endl[y][x] = old_end

    def _candidates(self):
        n, counts, word = self.n, self.counts, self.word
        prev = word[-1] if word else -1
        stab = self.stab_stack[-1]
        for x in range(n):
            if x == prev or counts[x] >= self.max_copies:
                continue
            if counts[x] == 0:
                if any(p[x] < x for p in stab):
                    continue
            elif not self._useful(x):
                continue
            yield x

    def _prune(self, x: int) -> bool:
        """True when the subtree below the freshly appended x is hopeless."""
        rem = self.max_len - len(self.word)
        if self.n - self.introduced > rem:
            return True
        if self.total_deficit > 0:
            gmax = 0
            for z in range(self.n):
                if self.counts[z] < self.max_copies and self.deficient_deg[z] > gmax:
                    gmax = self.deficient_deg[z]
            if self.total_deficit > rem * gmax:
                return True
            for y in range(self.n):
                if self.adj[x][y] and self.alt[x][y] < self.target:
                    deficit = self.target - self.alt[x][y]
                    if deficit > rem:
                        return True
                    room = (self.max_copies - self.counts[x]) + (
                        self.max_copies - self.counts[y]
                    )
                    if deficit > room:
                        return True
        return False

    def _children(self, depth_cap: int | None, prefix_sink):
        """The letters to try below the current word, fixed on entry: none
        at the length bound, and none at the depth cap, where the word is
        emitted to prefix_sink instead of being expanded."""
        if len(self.word) >= self.max_len:
            return iter(())
        if depth_cap is not None and len(self.word) >= depth_cap:
            prefix_sink.append((tuple(self.word), self.nodes))
            return iter(())
        return iter(list(self._candidates()))

    def dfs(self, depth_cap: int | None = None,
            prefix_sink: list[tuple[tuple[int, ...], int]] | None = None):
        """Exhaust the subtree below the current word.  The stack holds one
        candidate iterator per open word, and undos[k] removes the letter
        that opened frames[k + 1], so depth is bounded by max_len only."""
        frames = [self._children(depth_cap, prefix_sink)]
        undos = []
        while frames:
            x = next(frames[-1], None)
            if x is None:
                frames.pop()
                if undos:
                    self._undo(undos.pop())
                continue
            if self.nodes >= self.node_limit:
                self.limit_hit = True
                break
            ok, undo = self._append(x)
            if ok:
                if self.total_deficit == 0 and self.introduced == self.n:
                    self.found = list(self.word)
                    self._undo(undo)
                    break
                if not self._prune(x):
                    frames.append(self._children(depth_cap, prefix_sink))
                    undos.append(undo)
                    continue
            self._undo(undo)
        for undo in reversed(undos):
            self._undo(undo)

    def replay(self, prefix: tuple[int, ...]):
        for x in prefix:
            ok, _ = self._append(x)
            assert ok, "enumerated prefix cannot be in violation"
        self.nodes -= len(prefix)  # replays are bookkeeping, not exploration


def sequential_search(g, d: int, budget) -> SearchVerdict:
    """The search as one plain `StepEnumeration` DFS over the whole tree,
    with no prefix split: the verdict every `jobs` value of
    `find_general_word` must return, node count included."""
    letters, adj = _problem_arrays(g)
    enum = StepEnumeration(len(letters), adj, d, budget, automorphisms(g))
    enum.dfs()
    if enum.found is not None:
        return SearchVerdict(FOUND, Word(tuple(letters[i] for i in enum.found)), enum.nodes)
    return SearchVerdict(NODE_LIMIT if enum.limit_hit else NOT_FOUND, None, enum.nodes)


ZERO = Fraction(0)
ONE = Fraction(1)


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    result = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = Fraction(m[r][col], pivot)
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * result


def feasible_eq_nonneg_fraction(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is there x >= 0 with rows . x = rhs?  Exact Phase-I simplex on a
    dense Fraction tableau (the solver `wordnerve.lp` replaced)."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])

    # Tableau: [A | I | b], artificial j has column n+j.  Flip rows so b >= 0.
    tab: list[list[Fraction]] = []
    for i in range(m):
        assert len(rows[i]) == n
        sign = -1 if rhs[i] < 0 else 1
        row = [sign * a for a in rows[i]]
        row += [ONE if j == i else ZERO for j in range(m)]
        row.append(sign * rhs[i])
        tab.append(row)
    basis = [n + i for i in range(m)]
    width = n + m + 1

    # Phase-I objective row: z = sum of artificials; express in terms of
    # nonbasic columns by subtracting every tableau row.
    obj = [ZERO] * width
    for j in range(n, n + m):
        obj[j] = ONE
    for row in tab:
        for j in range(width):
            obj[j] -= row[j]

    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest eligible index enters
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = Fraction(tab[i][-1], a)
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # Unbounded Phase-I objective cannot happen (bounded below by 0);
            # guard anyway.
            raise ArithmeticError("phase-I simplex unbounded")
        piv = tab[leave][enter]
        tab[leave] = [Fraction(a, piv) for a in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter

    return -obj[-1] == 0  # objective value = -obj[rhs]; feasible iff 0


def moment_point_products(t, d: int) -> Point:
    """(t, t^2, ..., t^d) by running Fraction products (the route
    `geometry.moment_point` replaced by integer powers of t's numerator
    and denominator)."""
    t = rational(t)
    out = []
    acc = ONE
    for _ in range(d):
        acc = acc * t
        out.append(acc)
    return tuple(out)


def curve_order_products(config: ColoredConfig) -> list[int] | None:
    """`nerve._curve_order` by checking p[k] == p[0]**(k+1) with one
    running Fraction product per point (the route it replaced by integer
    numerators and denominators)."""
    for p in config.points:
        t = acc = p[0]
        for x in p[1:]:
            acc *= t
            if x != acc:
                return None
    return sorted(range(len(config.points)), key=lambda i: config.points[i][0])


def feasible_eq_nonneg_full(rows: list[list[Fraction | int]], rhs: list[Fraction | int]) -> bool:
    """`wordnerve.lp.feasible_eq_nonneg` on the full integer tableau [A | b]
    as lists of ints, one per entry: every pivot rewrites each entry
    (the solver `wordnerve.lp` replaced, first by a tableau of nonbasic
    columns, then by one packed int per row).  Same pricing, ratio test
    and Bareiss update, so the same pivots."""
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"rhs has {len(rhs)} entries for {m} rows")
    if m == 0:
        return True
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("rows must all have the same length")

    # Tableau: [A | b] in integers.  Each row is scaled by the lcm of its
    # denominators, negated when b < 0 so that b >= 0.
    tab: list[list[int]] = []
    for i in range(m):
        entries = [*rows[i], rhs[i]]
        # A list, not a generator: unpacking a generator builds a resized
        # tuple, and those pile up in the interpreter's tuple free lists.
        scale = math.lcm(*[a.denominator for a in entries])
        if rhs[i] < 0:
            scale = -scale
        tab.append([a.numerator * (scale // a.denominator) for a in entries])
    basis = [n + i for i in range(m)]

    # Row m is the Phase-I objective, the sum of artificials: minus each column sum.
    tab.append([-sum(column) for column in zip(*tab)])

    denom = 1
    degenerate = 0  # consecutive pivots on a zero rhs
    while True:
        obj = tab[m]
        low = min(obj[:n], default=0)  # reduced costs, all over one D > 0
        if low >= 0:
            break
        if degenerate < 2 * m:  # Dantzig: most negative, lowest index on ties
            enter = obj.index(low)
        else:  # Bland: smallest eligible index, which cannot cycle
            enter = next(j for j in range(n) if obj[j] < 0)
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # b_i / a_i against b_leave / a_leave; both a's are > 0.
                diff = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # Cannot happen: the Phase-I objective is bounded below by 0.
            raise ArithmeticError("phase-I simplex unbounded")
        degenerate = degenerate + 1 if tab[leave][-1] == 0 else 0
        p = tab[leave][enter]
        prow = tab[leave]
        for i in range(m + 1):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(p * a - f * b) // denom for a, b in zip(tab[i], prow)]
        denom = p
        basis[leave] = enter

    return tab[m][-1] == 0  # objective value = -obj[rhs] / D; feasible iff 0


# The planar extension's line search as it was before `wordnerve.nerve`
# folded it into one generator: a `_Line` class, an eagerly built direction
# pool, and a test of every line against every point of the other classes.


@dataclass(frozen=True)
class _Line:
    """Oriented support line n.q = c with the class on the side n.q <= c;
    chord lines (two class points on the line) tolerate straddling
    neighbors, tangent lines do not."""

    normal: tuple[Fraction, Fraction]
    offset: Fraction
    chord: bool

    def value(self, q: Point) -> Fraction:
        return self.normal[0] * q[0] + self.normal[1] * q[1] - self.offset


def _support_lines(own: list[Point], foreign: list[Point],
                   pool: list[tuple[int, int]]):
    """Yield candidate support lines of conv(own) in deterministic order.

    For every pool direction the two extreme tangents are offered; a line
    through two own points is a chord, and any candidate containing a
    foreign point is dropped so side classifications stay strict.
    """
    seen = set()
    for dx, dy in pool:
        n = (Fraction(-dy), Fraction(dx))
        values = [n[0] * p[0] + n[1] * p[1] for p in own]
        for extreme, sign in ((max(values), 1), (min(values), -1)):
            normal = (sign * n[0], sign * n[1])
            offset = sign * extreme
            key = (normal, offset)
            if key in seen:
                continue
            seen.add(key)
            on_own = sum(1 for v in values if v == extreme)
            if any(normal[0] * q[0] + normal[1] * q[1] == offset for q in foreign):
                continue
            yield _Line(normal, offset, chord=on_own >= 2)


def _primitive(values: list[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of `values`: rationals
    scaled to integers, divided by their gcd, first nonzero entry positive
    (the library's `_primitive` takes integer vectors only)."""
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _direction_pool(own: list[Point],
                    class_points: dict[str, list[Point]]) -> list[tuple[int, int]]:
    """Line directions to try for one class: its own hull edges first (the
    cheap, usually admissible chords), then a fixed fan, then all pairwise
    point directions and their perpendiculars (these realize separating
    tangents whose direction is forced by other classes)."""
    ordered: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add(dir2: tuple[int, int]):
        if dir2 not in seen:
            seen.add(dir2)
            ordered.append(dir2)

    hull = _hull_2d(own)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if a != b:
            add(_primitive([b[0] - a[0], b[1] - a[1]]))
    for dir2 in _FIXED_DIRECTIONS:
        add(_primitive([Fraction(dir2[0]), Fraction(dir2[1])]))
    all_points = [q for c in sorted(class_points) for q in class_points[c]]
    for a, b in combinations(all_points, 2):
        add(_primitive([b[0] - a[0], b[1] - a[1]]))
        add(_primitive([a[1] - b[1], b[0] - a[0]]))  # perpendicular
    return ordered


def assign_extras_2d_reference(class_points: dict[str, list[Point]],
                               original: SimplicialComplex,
                               extras: list[Point]) -> dict[int, str]:
    """Recursive planar extension on the remaining colors.

    Returns extra-index -> color.  Mirrors the two-color base split and
    the peel-one-color recursion: find a color and a support line whose
    class side contains no class disjoint from it, give that side's extras
    to the color, and recurse on the rest.  Pair verdicts are read from
    the original nerve.
    """
    colors = sorted(class_points)
    if len(colors) == 1:
        return {i: colors[0] for i in range(len(extras))}
    if len(colors) == 2 and original.is_face(colors):
        return {i: colors[1] for i in range(len(extras))}

    for color in colors:
        own = class_points[color]
        foreign = [q for c in colors if c != color for q in class_points[c]] + extras
        pool = _direction_pool(own, class_points)
        for line in _support_lines(own, foreign, pool):
            admissible = True
            for other in colors:
                if other == color:
                    continue
                values = [line.value(q) for q in class_points[other]]
                inside = all(v < 0 for v in values)
                outside = all(v > 0 for v in values)
                if inside and not original.is_face((color, other)):
                    admissible = False  # disjoint class trapped on our side
                    break
                if not inside and not outside and not line.chord:
                    admissible = False  # straddling is only safe across a chord
                    break
            if not admissible:
                continue
            rest = {c: pts for c, pts in class_points.items() if c != color}
            sub = assign_extras_2d_reference(rest, original, extras)
            for i, q in enumerate(extras):
                if line.value(q) < 0:
                    sub[i] = color
            return sub
    raise ExtensionError("extension step failed: no admissible color/line pair")


# The bipartite extension before it decided on one integer copy: separator
# sides, curve-gap certificates and placements on the given `Fraction`
# points, each certificate offset a `Fraction` midpoint.  Hull tests go
# through `wordnerve.nerve.hulls_intersect`, or in the plane through
# `wordnerve.nerve._planar_hulls_meet` on hulls built for the test, each
# looked up at the call, so a test that patches those bindings sees them.


def coerce_extras_reference(extras, config: ColoredConfig) -> list[Point]:
    """`nerve._coerce_extras` without the integer copy: the extras coerced
    one by one, each refused in turn when it is no point of the
    configuration's dimension, given twice or a configuration point, by
    comparing `Fraction` points rather than their integer ratios."""
    d = config.dimension
    taken = set(config.points)
    out: list[Point] = []
    for p in map(geometry_lib.point, extras):
        if len(p) != d:
            raise DegenerateInputError(f"extras must live in R^{d}")
        if p in taken:
            where = "a configuration point" if p in config.points else "given twice"
            raise DegenerateInputError(f"extra {_point_text(p)} is {where}")
        taken.add(p)
        out.append(p)
    return out


def _dot(normal, p):
    return sum(a * x for a, x in zip(normal, p))


def curve_separator_fractions(config: ColoredConfig, order: list[int], a: str, b: str):
    """`nerve._curve_separator` on the given points: (normal, offset) with
    normal . p < offset < normal . q for p in a and q in b, the offset the
    midpoint of the two classes' values."""
    pair = [i for i in order if config.colors[i] in (a, b)]
    roots = [
        Fraction(config.points[i][0] + config.points[j][0], 2)
        for i, j in zip(pair, pair[1:])
        if config.colors[i] != config.colors[j]
    ]
    last = config.points[pair[-1]][0]
    roots += [last + k for k in range(1, config.dimension - len(roots) + 1)]
    normal = hyperplane_through_moment_points(roots, config.dimension).normal
    va = [_dot(normal, config.points[i]) for i in pair if config.colors[i] == a]
    vb = [_dot(normal, config.points[i]) for i in pair if config.colors[i] == b]
    if min(vb) < max(va):
        normal, va, vb = tuple(-x for x in normal), [-v for v in va], [-v for v in vb]
    if not max(va) < min(vb):
        raise ExtensionError(f"the curve-gap hyperplane does not separate {a} and {b}")
    return normal, Fraction(max(va) + min(vb), 2)


class FractionSeparations:
    """`nerve._Separations` on the given points, with `Fraction` offsets."""

    def __init__(self, config: ColoredConfig, before: NerveResult):
        order = _curve_order(config)
        self.classes = config.classes()
        self.certs: dict[str, dict[str, tuple | None]] = {c: {} for c in self.classes}
        for a, b in combinations(config.color_labels, 2):
            if not before.complex.is_face((a, b)):
                normal, offset = curve_separator_fractions(config, order, a, b)
                self.certs[a][b] = normal, offset
                self.certs[b][a] = tuple(-x for x in normal), -offset

    def place(self, c: str, e: Point) -> bool:
        certs = self.certs[c]
        unsure = [x for x, cert in certs.items() if cert is None or not _dot(cert[0], e) < cert[1]]
        grown = self.classes[c] + [e]
        if len(e) == 2:
            meets = any(nerve_lib._planar_hulls_meet(_hull_2d(grown), _hull_2d(self.classes[x]))
                        for x in unsure)
        else:
            meets = any(nerve_lib.hulls_intersect([grown, self.classes[x]]) for x in unsure)
        if meets:
            return False
        self.classes[c] = grown
        for x in unsure:
            certs[x] = self.certs[x][c] = None
        return True


def extend_bipartite_fractions(g, w: Word, config: ColoredConfig, extras) -> ColoredConfig:
    """`nerve.extend_coloring_bipartite` with every decision on the given
    points: the same colors, hull tests in the same order on the same
    points, and the same errors.  Only the re-check, the library's, runs
    on the integer copy."""
    layout = bipartite_layout(g)
    if layout.word != w:
        raise DegenerateInputError("word does not match the bipartite encoding of the graph")
    if layout.trailing:
        raise DegenerateInputError(
            f"isolated vertices {layout.trailing} have no block region; "
            "the separator construction does not cover them"
        )
    d = layout.d
    expected = nerve_lib.realize_on_moment_curve(w, d)
    if config.points != expected.points or config.colors != expected.colors:
        raise DegenerateInputError("configuration is not the moment-curve realization of the word")
    extras = coerce_extras_reference(extras, config)

    m = len(layout.u_labels)
    hyperplanes = []
    for j in range(1, m):
        h = hyperplane_through_moment_points(nerve_lib._separator_params(layout, j), d)
        block_sign = None
        for i in range(1, d + 1):
            for pos in layout.spans[i, j]:
                s = h.side(config.points[pos])
                if s == 0:
                    raise ExtensionError("block point on separator hyperplane")
                if block_sign is None:
                    block_sign = s
                elif s != block_sign:
                    raise ExtensionError("block split by its own hyperplane")
        if block_sign is None:
            raise ExtensionError(f"color {layout.u_labels[j - 1]} has no block")
        for jj in range(j + 1, m + 1):
            for i in range(1, d + 1):
                for pos in layout.spans[i, jj]:
                    if h.side(config.points[pos]) != -block_sign:
                        raise ExtensionError("remainder block on the claimed side")
        hyperplanes.append((layout.u_labels[j - 1], h, block_sign))

    labels = config.color_labels
    before = nerve_lib.nerve(config, 2)
    separations = FractionSeparations(config, before)
    assignment = []
    for e in extras:
        sides = [h.side(e) for _, h, _ in hyperplanes]
        if 0 in sides:
            raise DegenerateInputError(f"extra {_point_text(e)} lies on a separator hyperplane")
        region = next(
            (label for (label, _, sign), s in zip(hyperplanes, sides) if s == sign),
            layout.u_labels[m - 1],
        )
        candidates = [region] + [c for c in layout.u_labels if c != region] + [
            c for c in labels if c not in layout.u_labels
        ]
        for c in candidates:
            if separations.place(c, e):
                assignment.append(c)
                break
        else:
            raise ExtensionError(
                f"extension step failed: no safe color for extra {_point_text(e)}")
    _, ints = geometry_lib._integer_copy(list(config.points) + extras)
    return nerve_lib._verified_extension(config, before, extras, ints, assignment)

"""Word -> colored moment-curve configuration -> nerve complex, plus the
two nerve-preserving coloring extensions.

A word of length N is realized as N moment-curve points (integer
parameters 1..N by default), point i colored by letter i.  The nerve of
the coloring has the color labels as vertices and a face for every set of
classes whose convex hulls share a common point; faces are only evaluated
up to a requested dimension and never extrapolated beyond it.

Both extension algorithms recolor extra points so that the nerve of the
enlarged configuration is label-identical to the original.  Neither is
trusted: every run recomputes the nerve geometrically afterwards and
fails loudly on any difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .encode import BipartiteLayout, bipartite_layout
from .geometry import (
    GeometryError,
    Hyperplane,
    Point,
    _check_general_position_2d,
    _hull_2d,
    _primitive,
    hulls_intersect,
    hyperplane_through_moment_points,
    moment_point,
    point,
    rational,
)
from .graphs import Graph, SimplicialComplex, complex_from_faces, one_skeleton, is_triangle_free
from .words import Word


class ExtensionError(RuntimeError):
    """The extension search failed or produced a nerve change."""


class DegenerateInputError(ValueError):
    """Input violates a geometric precondition (never silently perturbed)."""


@dataclass(frozen=True)
class ColoredConfig:
    """Distinct points in one dimension, each carrying a color label."""

    points: tuple[Point, ...]
    colors: tuple[str, ...]

    def __post_init__(self):
        if len(self.points) != len(self.colors):
            raise DegenerateInputError("one color per point required")
        if not self.points:
            raise DegenerateInputError("configuration must be nonempty")
        d = len(self.points[0])
        for p in self.points:
            if len(p) != d:
                raise DegenerateInputError("mixed point dimensions")
        if len(set(self.points)) != len(self.points):
            raise DegenerateInputError("duplicate points in configuration")
        for c in self.colors:
            if not c:
                raise DegenerateInputError("empty color label")

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def color_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.colors)))

    def classes(self) -> dict[str, list[Point]]:
        out: dict[str, list[Point]] = {c: [] for c in self.color_labels}
        for p, c in zip(self.points, self.colors):
            out[c].append(p)
        return out


@dataclass(frozen=True)
class NerveResult:
    complex: SimplicialComplex


def realize_on_moment_curve(w: Word, d: int, params=None) -> ColoredConfig:
    """Point i is x(t_i) in R^d colored by letter i; t_i defaults to i."""
    if d < 1:
        raise DegenerateInputError("dimension must be >= 1")
    n = len(w)
    if params is None:
        params = list(range(1, n + 1))
    params = [rational(t) for t in params]
    if len(params) != n:
        raise DegenerateInputError("need exactly one parameter per letter")
    for a, b in zip(params, params[1:]):
        if not a < b:
            raise DegenerateInputError("parameters must be strictly increasing")
    points = tuple(moment_point(t, d) for t in params)
    return ColoredConfig(points, w.letters)


def nerve(config: ColoredConfig, max_dim: int) -> NerveResult:
    """Faces of size <= max_dim+1, found layer by layer: a candidate set is
    only tested when all its subsets one smaller are already faces."""
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
            if hulls_intersect([classes[c] for c in combo]):
                layer_hits.append(frozenset(combo))
        if not layer_hits:
            break
        faces.update(layer_hits)
    return NerveResult(complex_from_faces(labels, faces))


def verify_partition_induced(g: Graph, w: Word, d: int) -> bool:
    """Realize w in R^d and check the nerve's 1-skeleton equals g; when g
    is triangle-free additionally require that no 2-faces appear."""
    config = realize_on_moment_curve(w, d)
    result = nerve(config, 2)
    if one_skeleton(result.complex) != g:
        return False
    if is_triangle_free(g) and result.complex.faces_of_size(3):
        return False
    return True


def _coerce_extras(extras, d: int) -> list[Point]:
    """The extras as exact points, each of the configuration's dimension."""
    extras = [point(p) for p in extras]
    if any(len(p) != d for p in extras):
        raise DegenerateInputError(f"extras must live in R^{d}")
    return extras


def _verified_extension(config: ColoredConfig, before: NerveResult,
                        extras: list[Point], new_colors) -> ColoredConfig:
    """The configuration grown by the colored extras, after recomputing
    its nerve from scratch and checking it against the original one."""
    extended = ColoredConfig(config.points + tuple(extras), config.colors + tuple(new_colors))
    if nerve(extended, 2).complex != before.complex:
        raise ExtensionError("internal error: extension changed the nerve")
    return extended


# ---------------------------------------------------------------------------
# Planar extension: convex-position colorings in R^2
# ---------------------------------------------------------------------------

_FIXED_DIRECTIONS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
    (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3),
]


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


def _assign_extras_2d(class_points: dict[str, list[Point]],
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
            sub = _assign_extras_2d(rest, original, extras)
            for i, q in enumerate(extras):
                if line.value(q) < 0:
                    sub[i] = color
            return sub
    raise ExtensionError("extension step failed: no admissible color/line pair")


def extend_coloring_2d(config: ColoredConfig, extras: list[Point]) -> ColoredConfig:
    """Extend a convex-position planar coloring over extra points without
    changing its nerve.  Degenerate inputs (points off general position,
    colored points not in convex position) are rejected, and the returned
    coloring is re-verified geometrically at max_dim=2.
    """
    if config.dimension != 2:
        raise DegenerateInputError("planar extension needs a 2D configuration")
    extras = _coerce_extras(extras, 2)
    try:
        _check_general_position_2d(list(config.points) + extras)
    except GeometryError as exc:
        raise DegenerateInputError(str(exc)) from exc
    if len(config.points) >= 3 and len(_hull_2d(list(config.points))) != len(config.points):
        raise DegenerateInputError("colored points are not in convex position")

    before = nerve(config, 2)
    assignment = _assign_extras_2d(config.classes(), before.complex, extras)
    return _verified_extension(
        config, before, extras, (assignment[i] for i in range(len(extras)))
    )


# ---------------------------------------------------------------------------
# Bipartite extension: moment-curve colorings in R^d
# ---------------------------------------------------------------------------


def _separator_params(layout: BipartiteLayout, j: int) -> list[Fraction]:
    """Parameters of the d separator points for color u_j: one per block
    row, in the inter-letter gap flanking that row's u_j factor (after it
    in ascending rows, before it in descending rows), with co-located
    separators spread across their shared gap."""
    gaps: list[int] = []
    for i in range(1, layout.d + 1):
        f = layout.factor(i, j)
        gaps.append(f.end if i % 2 == 1 else f.start - 1)
    params: list[Fraction] = []
    for gap in sorted(set(gaps)):
        count = gaps.count(gap)
        for idx in range(count):
            params.append(Fraction(gap) + Fraction(idx + 1, count + 1))
    return params


def extend_coloring_bipartite(g: Graph, w: Word, config: ColoredConfig,
                              extras: list[Point]) -> ColoredConfig:
    """Extend the bipartite moment-curve coloring over arbitrary extras.

    For each u-color except the last, a hyperplane through d separator
    points splits off the curve stretch holding that color's blocks; an
    extra is colored by the first hyperplane whose block side contains it,
    the leftovers by the last u-color.  Extras lying exactly on a
    separator hyperplane are rejected.  The resulting nerve is recomputed
    and compared; any change is an internal error.
    """
    layout = bipartite_layout(g)
    if layout.word != w:
        raise DegenerateInputError("word does not match the bipartite encoding of the graph")
    if layout.trailing:
        raise DegenerateInputError(
            f"isolated vertices {layout.trailing} have no block region; "
            "the separator construction does not cover them"
        )
    d = layout.d
    expected = realize_on_moment_curve(w, d)
    if config.points != expected.points or config.colors != expected.colors:
        raise DegenerateInputError("configuration is not the moment-curve realization of the word")
    extras = _coerce_extras(extras, d)
    if set(extras) & set(config.points):
        raise DegenerateInputError("extras must be disjoint from the configuration")

    m = len(layout.u_labels)
    hyperplanes: list[tuple[str, Hyperplane, int]] = []
    for j in range(1, m):
        h = hyperplane_through_moment_points(_separator_params(layout, j), d)
        block_sign = None
        for i in range(1, d + 1):
            f = layout.factor(i, j)
            for pos in range(f.start, f.end + 1):
                s = h.side(config.points[pos - 1])
                if s == 0:
                    raise ExtensionError("internal error: block point on separator hyperplane")
                if block_sign is None:
                    block_sign = s
                elif s != block_sign:
                    raise ExtensionError("internal error: block split by its own hyperplane")
        if block_sign is None:
            raise ExtensionError(f"internal error: color {layout.u_labels[j - 1]} has no block")
        # everything not yet claimed by colors u_1..u_j must sit opposite
        for jj in range(j + 1, m + 1):
            for i in range(1, d + 1):
                f = layout.factor(i, jj)
                for pos in range(f.start, f.end + 1):
                    if h.side(config.points[pos - 1]) != -block_sign:
                        raise ExtensionError(
                            "internal error: remainder block on the claimed side"
                        )
        hyperplanes.append((layout.u_labels[j - 1], h, block_sign))

    labels = config.color_labels
    classes = config.classes()
    before = nerve(config, 2)

    def safe(c: str, e: Point) -> bool:
        """Would coloring e with c keep every non-intersecting pair apart?
        Growth cannot delete an intersection, so this is the whole check."""
        grown = classes[c] + [e]
        return not any(
            not before.complex.is_face((c, x)) and hulls_intersect([grown, classes[x]])
            for x in labels
            if x != c
        )

    assignment: list[str] = []
    for e in extras:
        sides = [h.side(e) for _, h, _ in hyperplanes]
        if 0 in sides:
            raise DegenerateInputError(f"extra {e} lies on a separator hyperplane")
        # Candidate order: the region rule's u-color first (the hyperplane
        # whose block side holds the extra, else the last u-color), then
        # the remaining colors.  The region rule alone can weld a far
        # class's hull across a non-adjacent one, so every placement is
        # verified exactly against the original intersection pattern; an
        # extra inside some current hull always passes with that color.
        region = next(
            (label for (label, _, sign), s in zip(hyperplanes, sides) if s == sign),
            layout.u_labels[m - 1],
        )
        candidates = [region] + [c for c in layout.u_labels if c != region] + [
            c for c in labels if c not in layout.u_labels
        ]
        for c in candidates:
            if safe(c, e):
                classes[c].append(e)
                assignment.append(c)
                break
        else:
            raise ExtensionError(f"extension step failed: no safe color for extra {e}")
    return _verified_extension(config, before, extras, assignment)

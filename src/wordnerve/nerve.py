"""Word -> colored moment-curve configuration -> nerve complex, plus the
two nerve-preserving coloring extensions.

A word of length N is realized as N moment-curve points (integer
parameters 1..N by default), point i colored by letter i.  The nerve of
the coloring has the color labels as vertices and a face for every set of
classes whose convex hulls share a common point; faces are only evaluated
up to a requested dimension and never extrapolated beyond it.  When every
point is on the moment curve, its parameter is its first coordinate and
Breen's run count settles the pairs; faces of size 3 and up, and every
face of a configuration off the curve, are exact LP verdicts.

Both extension algorithms recolor extra points so that the nerve of the
enlarged configuration is label-identical to the original.  Neither is
trusted: every run re-checks the enlarged configuration by LP afterwards
and fails loudly on any difference.  The classes only grow, so no face
can be lost; the re-check tests the candidates that could be gained.
The planar extension searches its support lines on one integer-scaled
copy of the points (its predicates are signs of homogeneous polynomials
in the coordinates, which a positive scale keeps).  The bipartite one
keeps each non-face pair apart with a hyperplane through curve points in
the gaps between the pair's runs, which Breen's criterion bounds by d + 1,
and asks the LP only when an extra lands on the wrong side of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

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
from .graphs import Graph, Record, SimplicialComplex
from .words import Word, pair_runs


class ExtensionError(RuntimeError):
    """The extension search failed or produced a nerve change."""


DegenerateInputError = GeometryError  # the nerve code's name for the same class


class ColoredConfig(Record):
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


class NerveResult(Record):
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


def _curve_order(config: ColoredConfig) -> list[int] | None:
    """The point indices sorted by curve parameter when every point is
    (t, t^2, ..., t^d) for its first coordinate t, else None."""
    for p in config.points:
        t = acc = p[0]
        for x in p[1:]:
            acc *= t
            if x != acc:
                return None
    return sorted(range(len(config.points)), key=lambda i: config.points[i][0])


def nerve(config: ColoredConfig, max_dim: int) -> NerveResult:
    """Faces of size <= max_dim+1, found layer by layer: a candidate set is
    only tested when all its subsets one smaller are already faces.

    On the moment curve the pairs come from Breen's criterion: two classes
    meet iff their colors, read in parameter order, make at least d+2 runs.
    Faces of size 3 and up, and every face of a configuration off the
    curve, are exact LP verdicts (`hulls_intersect`).

    For a realized word only the 1-skeleton is a function of the word.
    Higher faces depend on the chosen curve parameters: the same word can
    gain or lose a 2-face when they change.
    """
    if max_dim < 1:
        raise DegenerateInputError("max_dim must be >= 1")
    classes = config.classes()
    labels = config.color_labels
    faces: set[frozenset[str]] = {frozenset([c]) for c in labels}
    first = 2
    order = _curve_order(config)
    if order is not None:
        seq = [config.colors[i] for i in order]
        faces.update(
            frozenset(pair) for pair in combinations(labels, 2)
            if pair_runs(seq, *pair) >= config.dimension + 2
        )
        first = 3
    for size in range(first, max_dim + 2):
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
    return NerveResult(SimplicialComplex(labels, frozenset(faces)))


def _coerce_extras(extras, config: ColoredConfig) -> list[Point]:
    """The extras as exact points of the configuration's dimension, each
    new: an extra given twice or equal to a configuration point is refused
    before any extension work."""
    d = config.dimension
    taken = set(config.points)
    out: list[Point] = []
    for p in map(point, extras):
        if len(p) != d:
            raise DegenerateInputError(f"extras must live in R^{d}")
        if p in taken:
            where = "a configuration point" if p in config.points else "given twice"
            text = ", ".join(map(str, p))
            raise DegenerateInputError(f"extra ({text}) is {where}")
        taken.add(p)
        out.append(p)
    return out


def _verified_extension(config: ColoredConfig, before: NerveResult,
                        extras: list[Point], new_colors) -> ColoredConfig:
    """The configuration grown by the colored extras, after checking by LP
    that its nerve (up to triangles) is the original one.

    The original points are a prefix of the grown configuration and the
    extras take original labels, so every face of `before` stays a face.
    The LP therefore runs only on the candidates that could be gained:
    non-faces of size 2 and 3 of `before` whose proper subsets are faces.
    The candidates that meet are then exactly the faces gained.

    The extensions only guarantee the pair verdicts.  A hollow triangle
    (three classes that meet pairwise but share no point) can fill in as
    its classes grow; when only triangles are gained, the input is
    rejected with the least of them named.  A gained pair or an extra with
    a new label is an internal error."""
    extended = ColoredConfig(config.points + tuple(extras), config.colors + tuple(new_colors))
    k = before.complex
    classes = extended.classes()
    if set(classes) != set(k.vertices):
        raise ExtensionError("extension changed the nerve")
    met = [
        combo
        for size in (2, 3)
        for combo in combinations(k.vertices, size)
        if not k.is_face(combo)
        and all(k.is_face(combo[:i] + combo[i + 1 :]) for i in range(size))
        and hulls_intersect([classes[c] for c in combo])
    ]
    if any(len(combo) == 2 for combo in met):
        raise ExtensionError("extension changed the nerve")
    if met:
        filled = min(sorted(combo) for combo in met)
        raise DegenerateInputError(
            f"the extension fills the hollow triangle {' '.join(filled)}: its "
            "classes meet pairwise but share no point, and only pair "
            "verdicts are kept"
        )
    return extended


# ---------------------------------------------------------------------------
# Planar extension: convex-position colorings in R^2
# ---------------------------------------------------------------------------

IntPoint = tuple[int, int]

_FIXED_DIRECTIONS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
    (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3),
]


def _support_lines(own: list[IntPoint], class_points: dict[str, list[IntPoint]],
                   extras: list[IntPoint]):
    """Yield candidate support lines of conv(own), lazily and in a fixed
    order, as (normal, offset, chord): the line normal.q = offset with the
    class on the side normal.q <= offset.  Points are integer pairs, so the
    normal and the offset are integers too.

    Directions come from the class's own hull edges first (the cheap,
    usually admissible chords), then a fixed fan, then every pairwise point
    direction and its perpendicular (these realize separating tangents
    whose direction is forced by other classes), each primitive direction
    once.  For each direction the two extreme lines are offered; a line
    through two own points is a chord, which other classes may straddle,
    and a tangent is not.

    Only the extras are tested for lying on a line.  Class points need no
    test: a third point on a chord would be a collinear triple, which the
    general-position check rejects up front, and a point of another class
    on a tangent has value 0 there, so the caller's strict inside/outside
    test already rejects the line.
    """
    hull = _hull_2d(own)
    points = [q for c in sorted(class_points) for q in class_points[c]]
    directions = chain(
        ((b[0] - a[0], b[1] - a[1]) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b),
        _FIXED_DIRECTIONS,
        (v for a, b in combinations(points, 2)
         for v in ((b[0] - a[0], b[1] - a[1]), (a[1] - b[1], b[0] - a[0]))),
    )
    seen: set[tuple[int, ...]] = set()
    for direction in directions:
        dx, dy = primitive = _primitive(direction)
        if primitive in seen:
            continue
        seen.add(primitive)
        values = [dx * p[1] - dy * p[0] for p in own]
        for sign, extreme in ((1, max(values)), (-1, min(values))):
            a, b = -sign * dy, sign * dx
            offset = sign * extreme
            if any(a * q[0] + b * q[1] == offset for q in extras):
                continue
            yield (a, b), offset, values.count(extreme) >= 2


def _assign_extras_2d(class_points: dict[str, list[IntPoint]],
                      original: SimplicialComplex,
                      extras: list[IntPoint]) -> dict[int, str]:
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
        for (a, b), offset, chord in _support_lines(class_points[color], class_points, extras):
            for other in colors:
                if other == color:
                    continue
                values = [a * q[0] + b * q[1] for q in class_points[other]]
                inside = all(v < offset for v in values)
                if inside and not original.is_face((color, other)):
                    break  # disjoint class trapped on our side
                if not inside and not chord and not all(v > offset for v in values):
                    break  # straddling is only safe across a chord
            else:
                rest = {c: pts for c, pts in class_points.items() if c != color}
                sub = _assign_extras_2d(rest, original, extras)
                for i, q in enumerate(extras):
                    if a * q[0] + b * q[1] < offset:
                        sub[i] = color
                return sub
    raise ExtensionError("extension step failed: no admissible color/line pair")


def extend_coloring_2d(config: ColoredConfig, extras: list[Point]) -> ColoredConfig:
    """Extend a convex-position planar coloring over extra points without
    changing its nerve.  Degenerate inputs (points off general position,
    colored points not in convex position) are rejected, and the returned
    coloring is re-verified geometrically at max_dim=2.

    Every predicate of the line search is the sign of a homogeneous
    polynomial in the coordinates, so it runs on the copy of all points
    scaled by the lcm of their denominators that the general-position
    check returns: integers only, the same verdicts.  The nerve and its
    re-verification use the given points.  A hollow triangle that fills in
    is rejected (see `_verified_extension`).
    """
    if config.dimension != 2:
        raise DegenerateInputError("planar extension needs a 2D configuration")
    extras = _coerce_extras(extras, config)
    n = len(config.points)
    ints = _check_general_position_2d(list(config.points) + extras)
    if n >= 3 and len(_hull_2d(ints[:n])) != n:
        raise DegenerateInputError("colored points are not in convex position")

    before = nerve(config, 2)
    classes = ColoredConfig(tuple(ints[:n]), config.colors).classes()
    assignment = _assign_extras_2d(classes, before.complex, ints[n:])
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
        span = layout.spans[i, j]
        gaps.append(span.stop if i % 2 == 1 else span.start)
    params: list[Fraction] = []
    for gap in sorted(set(gaps)):
        count = gaps.count(gap)
        for idx in range(count):
            params.append(Fraction(gap) + Fraction(idx + 1, count + 1))
    return params


def _dot(normal, p: Point):
    return sum(a * x for a, x in zip(normal, p))


def _curve_separator(config: ColoredConfig, order: list[int], a: str, b: str):
    """A hyperplane strictly between classes a and b of a moment-curve
    configuration, as (normal, hi, lo) with normal . p <= hi < lo <=
    normal . q for every p in a and q in b; `order` is `_curve_order`.

    The pair must be a non-face: by Breen's criterion its colors make at
    most d + 1 runs in parameter order.  One root goes between the two
    parameters of each color change and the rest past the pair's largest
    parameter, so the degree-d polynomial with these roots, which is
    normal . x(t) - offset, has one sign on class a and the other on b.
    """
    pair = [i for i in order if config.colors[i] in (a, b)]
    roots = [
        (config.points[i][0] + config.points[j][0]) / 2
        for i, j in zip(pair, pair[1:])
        if config.colors[i] != config.colors[j]
    ]
    last = config.points[pair[-1]][0]
    roots += [last + k for k in range(1, config.dimension - len(roots) + 1)]
    normal = hyperplane_through_moment_points(roots, config.dimension).normal
    va = [_dot(normal, config.points[i]) for i in pair if config.colors[i] == a]
    vb = [_dot(normal, config.points[i]) for i in pair if config.colors[i] == b]
    if max(va) < min(vb):
        return normal, max(va), min(vb)
    if max(vb) < min(va):
        return tuple(-x for x in normal), -min(va), -max(vb)
    raise ExtensionError(f"the curve-gap hyperplane does not separate {a} and {b}")


class _Separations:
    """The classes of a moment-curve coloring as extras join them, with
    each non-face pair of the original nerve kept apart.

    Every non-face pair starts with a `_curve_separator` certificate
    [normal, hi, lo], built without an LP.  An extra on the correct side
    of it keeps the pair apart at the cost of one dot product.  Otherwise
    the LP decides, and a certificate whose bounds a placement crosses is
    dropped: from then on that pair is an LP verdict.
    """

    def __init__(self, config: ColoredConfig, before: NerveResult):
        order = _curve_order(config)
        self.classes = config.classes()
        self.apart: dict[str, list[str]] = {c: [] for c in self.classes}
        self.certs: dict[tuple[str, str], list] = {}
        for a, b in combinations(config.color_labels, 2):
            if not before.complex.is_face((a, b)):
                self.apart[a].append(b)
                self.apart[b].append(a)
                self.certs[a, b] = list(_curve_separator(config, order, a, b))

    def place(self, c: str, e: Point) -> bool:
        """Color e with c if that keeps every non-face pair apart, and
        say whether it did.  Growth cannot delete an intersection, so
        this is the whole check."""
        values = {}
        unsure = []
        for x in self.apart[c]:
            key = (c, x) if c < x else (x, c)
            cert = self.certs.get(key)
            if cert is not None:
                values[key] = v = _dot(cert[0], e)
                if (v < cert[2]) if key[0] == c else (v > cert[1]):
                    continue
            unsure.append(x)
        grown = self.classes[c] + [e]
        if any(hulls_intersect([grown, self.classes[x]]) for x in unsure):
            return False
        self.classes[c] = grown
        for key, v in values.items():
            cert = self.certs[key]
            if key[0] == c:
                cert[1] = max(cert[1], v)
            else:
                cert[2] = min(cert[2], v)
            if cert[1] >= cert[2]:
                del self.certs[key]
        return True


def extend_coloring_bipartite(g: Graph, w: Word, config: ColoredConfig,
                              extras: list[Point]) -> ColoredConfig:
    """Extend the bipartite moment-curve coloring over arbitrary extras.

    For each u-color except the last, a hyperplane through d separator
    points splits off the curve stretch holding that color's blocks; an
    extra is offered first to the color of the first hyperplane whose
    block side contains it, else to the last u-color, then to the other
    colors.  A color is taken when it keeps every non-face pair apart
    (`_Separations`: curve-gap certificates, the LP where they fail).
    Extras lying exactly on a separator hyperplane, given twice or equal
    to a configuration point are rejected.  The result is re-checked by
    `_verified_extension`: a filled hollow triangle is an input error,
    any other change of the nerve an internal error.
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
    extras = _coerce_extras(extras, config)

    m = len(layout.u_labels)
    hyperplanes: list[tuple[str, Hyperplane, int]] = []
    for j in range(1, m):
        h = hyperplane_through_moment_points(_separator_params(layout, j), d)
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
        # everything not yet claimed by colors u_1..u_j must sit opposite
        for jj in range(j + 1, m + 1):
            for i in range(1, d + 1):
                for pos in layout.spans[i, jj]:
                    if h.side(config.points[pos]) != -block_sign:
                        raise ExtensionError("remainder block on the claimed side")
        hyperplanes.append((layout.u_labels[j - 1], h, block_sign))

    labels = config.color_labels
    before = nerve(config, 2)
    separations = _Separations(config, before)

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
            if separations.place(c, e):
                assignment.append(c)
                break
        else:
            raise ExtensionError(f"extension step failed: no safe color for extra {e}")
    return _verified_extension(config, before, extras, assignment)

"""Word -> colored moment-curve configuration -> nerve complex, plus the
two nerve-preserving coloring extensions.

A word of length N is realized as N moment-curve points (integer
parameters 1..N by default), point i colored by letter i.  The nerve of
the coloring has the color labels as vertices and a face for every set of
classes whose convex hulls share a common point; faces are only evaluated
up to a requested dimension and never extrapolated beyond it.  When every
point is on the moment curve, its parameter is its first coordinate and
Breen's run count settles the pairs.  One layered walk, `_new_faces`,
finds every other face, each an exact hull verdict of `_meets`, in the
nerve and the extensions' re-check alike: two classes in the plane by
separating axes on their hulls (`_planar_hulls_meet`), every other shape
by the LP `hulls_intersect`.  The nerve decides on one integer copy of
the points (`_integer_copy`), so every LP it builds has int entries.  On
the curve the walk starts at triples, whose classes are the copy's
points; off it, at pairs, and `_kept_classes` keeps each class as those
tests need it, its `_hull_2d` hull in the plane and its points otherwise.

Both extension algorithms recolor extra points so that the nerve of the
enlarged configuration is label-identical to the original.  Neither is
trusted: every run re-checks the enlarged configuration and fails loudly
on any difference.  The classes only grow, so no face can be lost; the
re-check resumes the nerve's walk from the original faces, building only
candidates that hold a class that gained an extra.  Each extension
builds one integer copy of the configuration and the extras, scaled by
the lcm of all their coordinate denominators, in `_coerce_extras`, which
refuses repeated extras on its int tuples: each predicate is the sign of
a homogeneous polynomial in the coordinates, or of an affine one whose
constant is scaled too, and a positive scale keeps every such sign.  The
general-position check, every decision and the re-check run on that
copy, one kept class per color, so no pair test rebuilds a copy or a
hull.  The planar extension peels colors behind support lines on the
copy, one per loop step.  The bipartite one keeps each non-face pair
apart with a fixed hyperplane midway between the pair, whose normal has
its roots on the curve in the gaps between the pair's runs (Breen's
criterion bounds them by d + 1), and runs a hull test only when an extra
does not land strictly on its class's side of it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations

from .encode import BipartiteLayout, bipartite_layout
from .geometry import (
    GeometryError,
    Hyperplane,
    Point,
    _check_exact,
    _check_general_position_2d,
    _dot,
    _hull_2d,
    _integer_copy,
    _planar_hulls_meet,
    _point_text,
    _primitive,
    hulls_intersect,
    hyperplane_through_moment_points,
    moment_point,
    point,
    rational,
)
from .graphs import Graph, Record, SimplicialComplex
from .words import Word, _intersecting_pairs


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
        if not d:
            raise DegenerateInputError("points need at least one coordinate")
        for p in self.points:
            if len(p) != d:
                raise DegenerateInputError("mixed point dimensions")
            _check_exact(p)
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
        return _group(self.points, self.colors)


def _group(points, colors) -> dict[str, list]:
    """The points of each color, in label order; nothing is validated."""
    out: dict[str, list] = {c: [] for c in sorted(set(colors))}
    for p, c in zip(points, colors):
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
        params = range(1, n + 1)
    else:
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
    (t, t^2, ..., t^d) for its first coordinate t, else None.  With
    t = n/q in lowest terms, t^k is n^k / q^k in lowest terms, so each
    coordinate is checked by its integer numerator and denominator."""
    for p in config.points:
        n = nk = p[0].numerator
        q = qk = p[0].denominator
        for x in p[1:]:
            nk *= n
            qk *= q
            if x.numerator != nk or x.denominator != qk:
                return None
    return sorted(range(len(config.points)), key=lambda i: config.points[i][0])


def nerve(config: ColoredConfig, max_dim: int) -> NerveResult:
    """Faces of size <= max_dim+1, found by one layered walk (`_new_faces`):
    a candidate set is only tested when all its subsets one smaller are
    already faces.

    On the moment curve the pairs come from Breen's criterion: two classes
    meet iff their colors, read in parameter order, make at least d+2 runs,
    and the walk starts at triples, on one integer copy of the points
    (`_integer_copy`).  Off the curve it starts at pairs, on the classes
    kept (`_kept_classes`) on that copy.

    For a realized word only the 1-skeleton is a function of the word.
    Higher faces depend on the chosen curve parameters: the same word can
    gain or lose a 2-face when they change.
    """
    if max_dim < 1:
        raise DegenerateInputError("max_dim must be >= 1")
    labels = config.color_labels
    faces = {frozenset([c]) for c in labels}
    order = _curve_order(config)
    ints = _integer_copy(config.points)[1]
    if order is not None:
        seq = [config.colors[i] for i in order]
        faces.update(map(frozenset, _intersecting_pairs(seq, config.dimension)))
        kept, first = _group(ints, config.colors), 3
    else:
        kept, first = _kept_classes(ints, config.colors), 2
    faces.update(map(frozenset, _new_faces(faces, labels, range(first, max_dim + 2), kept)))
    return NerveResult(SimplicialComplex(labels, frozenset(faces)))


def _kept(points: list) -> list:
    """A class as the hull tests keep it: its `_hull_2d` hull in the plane,
    where `_meets` compares two hulls, else its points."""
    return _hull_2d(points) if len(points[0]) == 2 else points


def _kept_classes(points, colors) -> dict[str, list]:
    """Each color's class kept by `_kept`, in label order."""
    return {c: _kept(p) for c, p in _group(points, colors).items()}


def _meets(kept: list[list]) -> bool:
    """Do the hulls of these classes share a point?  Two classes in the
    plane must be kept by `_kept`, as hulls, and are decided by separating
    axes (`_planar_hulls_meet`); every other shape goes to the LP
    `hulls_intersect`, which takes hull vertices and points alike."""
    if len(kept) == 2 and len(kept[0][0]) == 2:
        return _planar_hulls_meet(*kept)
    return hulls_intersect(kept)


def _new_faces(faces, labels, sizes, kept, grown=None) -> list[tuple[str, ...]]:
    """The faces gained over `faces`, layer by layer over `sizes`, each
    layer joining the faces before the next: label sets, in label order,
    not faces while every subset one smaller is, whose classes `kept[c]`
    meet (`_meets`).  A candidate is a face one smaller, sorted, plus a
    larger label of the sorted `labels`, so the walk is bounded by the
    faces, not the label sets, and stops at a size with no face one
    smaller.  Given the set `grown`, only candidates holding a grown label
    are built: a face with none takes only the larger grown labels."""
    faces, gained = set(faces), []
    rank = {c: i for i, c in enumerate(labels)}
    grown_sorted = sorted(grown or ())
    for size in sizes:
        base = sorted(tuple(sorted(f)) for f in faces if len(f) == size - 1)
        if not base:
            break
        met = [
            combo for f in base for combo in (f + (c,) for c in (
                labels[rank[f[-1]] + 1 :] if grown is None or not grown.isdisjoint(f)
                else grown_sorted[bisect_right(grown_sorted, f[-1]) :]))
            if frozenset(combo) not in faces
            and all(frozenset(combo[:i] + combo[i + 1 :]) in faces for i in range(size - 1))
            and _meets([kept[c] for c in combo])
        ]
        faces.update(map(frozenset, met))
        gained += met
    return gained


def _coerce_extras(extras, config: ColoredConfig):
    """(extras, scale, ints): the extras as exact points of the
    configuration's dimension, each new, and `_integer_copy` of the
    configuration's points followed by them, the one integer copy an
    extension decides and re-checks on.

    One pass over the extras in order refuses the first that is no point
    of the dimension, given twice or equal to a configuration point,
    before any extension work.  Points are compared by their coordinates'
    `as_integer_ratio()` pairs, which are in lowest terms, so no
    `Fraction` is hashed."""
    d = config.dimension
    given = {tuple(x.as_integer_ratio() for x in p) for p in config.points}
    taken = set(given)
    out: list[Point] = []
    for x in extras:
        p = point(x)
        if len(p) != d:
            raise DegenerateInputError(f"extras must live in R^{d}")
        key = tuple(c.as_integer_ratio() for c in p)
        if key in taken:
            where = "a configuration point" if key in given else "given twice"
            raise DegenerateInputError(f"extra {_point_text(p)} is {where}")
        taken.add(key)
        out.append(p)
    scale, ints = _integer_copy(list(config.points) + out)
    return out, scale, ints


def _verified_extension(config: ColoredConfig, before: NerveResult, extras: list[Point],
                        ints: list[tuple[int, ...]], new_colors) -> ColoredConfig:
    """The configuration grown by the colored extras, after checking by
    hull tests that its nerve (up to triangles) is the original one.
    `ints` is the extension's one integer copy (`_coerce_extras`) of the
    configuration's points followed by the extras; every hull test runs
    on it, and the grown configuration is built from points that are
    already known to be distinct, so no point is hashed again.

    The original points are a prefix of the grown configuration and the
    extras take original labels, so every face of `before` stays a face,
    and the re-check resumes the nerve's walk (`_new_faces`) from them over
    sizes 2 and 3 on the classes kept afresh from `ints`, building only
    candidates that hold a grown class: the others keep their verdict.

    The extensions only guarantee the pair verdicts.  A hollow triangle
    (three classes that meet pairwise but share no point) can fill in as
    its classes grow; when only triangles are gained, the input is
    rejected with the least of them named.  A gained pair or an extra with
    a new label is an internal error."""
    colors = config.colors + tuple(new_colors)
    kept = _kept_classes(ints, colors)
    if set(kept) != set(before.complex.vertices):
        raise ExtensionError("extension changed the nerve")
    met = _new_faces(before.complex.faces, list(kept), (2, 3), kept, set(new_colors))
    if any(len(combo) == 2 for combo in met):
        raise ExtensionError("extension changed the nerve")
    if met:
        raise DegenerateInputError(
            f"the extension fills the hollow triangle {' '.join(min(met))}: its "
            "classes meet pairwise but share no point, and only pair "
            "verdicts are kept"
        )
    return ColoredConfig._unchecked(config.points + tuple(extras), colors)


# ---------------------------------------------------------------------------
# Planar extension: convex-position colorings in R^2
# ---------------------------------------------------------------------------

IntPoint = tuple[int, int]

_FIXED_DIRECTIONS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
    (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3),
]


def _support_lines(own: list[IntPoint], class_points: dict[str, list[IntPoint]]):
    """Yield candidate support lines of conv(own), lazily and in a fixed
    order, as (normal, offset, chord): the line normal.q = offset with the
    class on the side normal.q <= offset.  Points are integer pairs of the
    extension's one integer copy, so the normal and the offset are
    integers too.

    Directions come from the class's own hull edges first (the cheap,
    usually admissible chords), then a fixed fan, then every pairwise point
    direction and its perpendicular (these realize separating tangents
    whose direction is forced by other classes), each primitive direction
    once.  For each direction the two extreme lines are offered; a line
    through two own points is a chord, which other classes may straddle,
    and a tangent is not.

    No point is tested for lying on a line here.  Class points need no
    test: a third point on a chord would be a collinear triple, which the
    general-position check rejects up front, and a point of another class
    on a tangent has value 0 there, so the caller's strict inside/outside
    test already rejects the line.  The caller drops a line through an
    extra only once the line is admissible: the two tests filter one lazy
    sequence, so in either order the first line to pass both is the same.
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
            yield (-sign * dy, sign * dx), sign * extreme, values.count(extreme) >= 2


def _peel_choices(class_points: dict[str, list[IntPoint]], original: SimplicialComplex,
                  extras: list[IntPoint]):
    """Yield each (color, normal, offset) that may be peeled, colors in
    label order and lines in `_support_lines` order: no class disjoint
    from the color (by the original nerve) on its side, a class cut only
    across a chord, and no extra on the line, tested last."""
    colors = sorted(class_points)
    for color in colors:
        for (a, b), offset, chord in _support_lines(class_points[color], class_points):
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
                if not any(a * q[0] + b * q[1] == offset for q in extras):
                    yield color, (a, b), offset


def _assign_extras_2d(class_points: dict[str, list[IntPoint]], original: SimplicialComplex,
                      extras: list[IntPoint]) -> list[str]:
    """The colors of the extras, in their order.  A loop peels the first
    choice of `_peel_choices` off the remaining colors until one is left,
    or two that form a face.  An extra takes the color of the first peeled
    line with the extra strictly on its class side, else the last color."""
    rest = dict(class_points)
    peeled = []
    while len(rest) > 2 or len(rest) == 2 and not original.is_face(rest):
        choice = next(_peel_choices(rest, original, extras), None)
        if choice is None:
            raise ExtensionError("extension step failed: no admissible color/line pair")
        peeled.append(choice)
        del rest[choice[0]]
    last = max(rest)
    return [next((c for c, (a, b), k in peeled if a * q[0] + b * q[1] < k), last) for q in extras]


def extend_coloring_2d(config: ColoredConfig, extras: list[Point]) -> ColoredConfig:
    """Extend a convex-position planar coloring over extra points without
    changing its nerve.  Degenerate inputs (points off general position,
    colored points not in convex position) are rejected, and the returned
    coloring is re-verified geometrically at max_dim=2.

    Every predicate of the peel loop is the sign of a homogeneous
    polynomial in the coordinates, so it runs on the copy of all points
    scaled by the lcm of their denominators that `_coerce_extras` builds:
    integers only, the same verdicts.  The general-position check and the
    re-verification run on that copy too; the original nerve uses the
    given points.  A hollow triangle that fills in is rejected (see
    `_verified_extension`).
    """
    if config.dimension != 2:
        raise DegenerateInputError("planar extension needs a 2D configuration")
    extras, _, ints = _coerce_extras(extras, config)
    n = len(config.points)
    _check_general_position_2d(list(config.points) + extras, ints)
    if n >= 3 and len(_hull_2d(ints[:n])) != n:
        raise DegenerateInputError("colored points are not in convex position")

    before = nerve(config, 2)
    colors = _assign_extras_2d(_group(ints[:n], config.colors), before.complex, ints[n:])
    return _verified_extension(config, before, extras, ints, colors)


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


def _curve_separator(config: ColoredConfig, order: list[int], ints: list[tuple[int, ...]],
                     a: str, b: str):
    """A hyperplane strictly between classes a and b of a moment-curve
    configuration, as an integer normal and a doubled integer offset with
    2 normal . p < offset2 < 2 normal . q for every p in a and q in b of
    `ints`, the configuration's points scaled by `_integer_copy`: the
    hyperplane normal . x = offset2 / 2 lies midway between the two classes
    with no Fraction.  `order` is `_curve_order`.

    The pair must be a non-face: by Breen's criterion its colors make at
    most d + 1 runs in parameter order.  One root goes between the two
    parameters of each color change and the rest past the pair's largest
    parameter, so the degree-d polynomial with these roots, which is
    normal . x(t) - c for some c, has one sign on class a and the other on b.

    The roots come from the given curve parameters, rational or not; the
    normal is the same on any positive scale of the points.
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
    va = [_dot(normal, ints[i]) for i in pair if config.colors[i] == a]
    vb = [_dot(normal, ints[i]) for i in pair if config.colors[i] == b]
    if min(vb) < max(va):
        normal, va, vb = tuple(-x for x in normal), [-v for v in va], [-v for v in vb]
    if not max(va) < min(vb):
        raise ExtensionError(f"the curve-gap hyperplane does not separate {a} and {b}")
    return normal, max(va) + min(vb)


class _Separations:
    """The classes of a moment-curve coloring as extras join them, with
    each non-face pair of the original nerve kept apart.  Points are those
    of the extension's one integer copy (`_integer_copy` of the
    configuration and the extras): every test here is a sign, which a
    positive scale keeps.

    `certs[c][x]` is a fixed hyperplane (normal, offset2) with class c
    strictly below and class x strictly above, 2 normal . p against the
    doubled offset, from `_curve_separator` without an LP; `certs[x][c]` is
    its negation.  An extra for c strictly below it keeps the pair apart at
    the cost of one integer dot product.  Any other extra runs a hull test,
    and a placement that passes it retires the pair's certificate to None:
    a hull-test verdict from then on.

    `classes[c]` holds class c kept by `_kept`, its hull in the plane, and
    a placement keeps the grown class the same way, so no placement
    rebuilds a hull of a class it does not grow.
    """

    def __init__(self, config: ColoredConfig, ints: list[tuple[int, ...]],
                 before: NerveResult):
        order = _curve_order(config)
        self.classes = _kept_classes(ints, config.colors)
        self.certs: dict[str, dict[str, tuple | None]] = {c: {} for c in self.classes}
        for a, b in combinations(config.color_labels, 2):
            if not before.complex.is_face((a, b)):
                normal, offset2 = _curve_separator(config, order, ints, a, b)
                self.certs[a][b] = normal, offset2
                self.certs[b][a] = tuple(-x for x in normal), -offset2

    def place(self, c: str, e: tuple[int, ...]) -> bool:
        """Color e with c if that keeps every non-face pair apart, and
        say whether it did.  Growth cannot delete an intersection, so
        this is the whole check."""
        certs = self.certs[c]
        unsure = [
            x for x, cert in certs.items() if cert is None or not 2 * _dot(cert[0], e) < cert[1]
        ]
        grown = _kept(self.classes[c] + [e])
        if any(_meets([grown, self.classes[x]]) for x in unsure):
            return False
        self.classes[c] = grown
        for x in unsure:
            certs[x] = self.certs[x][c] = None
        return True


def extend_coloring_bipartite(g: Graph, w: Word, config: ColoredConfig,
                              extras: list[Point]) -> ColoredConfig:
    """Extend the bipartite moment-curve coloring over arbitrary extras.

    For each u-color except the last, a hyperplane through d separator
    points splits off the curve stretch holding that color's blocks; an
    extra is offered first to the color of the first hyperplane whose
    block side contains it, else to the last u-color, then to the other
    colors.  A color is taken when it keeps every non-face pair apart
    (`_Separations`: curve-gap certificates, hull tests where they fail).
    Extras lying exactly on a separator hyperplane, given twice or equal
    to a configuration point are rejected.

    Every decision runs on one integer copy of the configuration and the
    extras, scaled by the lcm of all their coordinate denominators
    (`_integer_copy`); each hyperplane's offset is scaled with them.
    Messages name the given points.  The result is re-checked on the copy
    by `_verified_extension`: a filled hollow triangle is an input error,
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
    curve = tuple(tuple(t**k for k in range(1, d + 1)) for t in range(1, len(w) + 1))
    if config.points != curve or config.colors != w.letters:
        raise DegenerateInputError("configuration is not the moment-curve realization of the word")
    extras, scale, ints = _coerce_extras(extras, config)
    n = len(config.points)

    m = len(layout.u_labels)
    hyperplanes: list[tuple[str, Hyperplane, int]] = []
    for j in range(1, m):
        h = hyperplane_through_moment_points(_separator_params(layout, j), d)
        h = Hyperplane(h.normal, h.offset * scale)
        block_sign = None
        for i in range(1, d + 1):
            for pos in layout.spans[i, j]:
                s = h.side(ints[pos])
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
                    if h.side(ints[pos]) != -block_sign:
                        raise ExtensionError("remainder block on the claimed side")
        hyperplanes.append((layout.u_labels[j - 1], h, block_sign))

    labels = config.color_labels
    before = nerve(config, 2)
    separations = _Separations(config, ints[:n], before)

    assignment: list[str] = []
    for e, x in zip(extras, ints[n:]):
        sides = [h.side(x) for _, h, _ in hyperplanes]
        if 0 in sides:
            raise DegenerateInputError(f"extra {_point_text(e)} lies on a separator hyperplane")
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
            if separations.place(c, x):
                assignment.append(c)
                break
        else:
            raise ExtensionError(
                f"extension step failed: no safe color for extra {_point_text(e)}")
    return _verified_extension(config, before, extras, ints, assignment)

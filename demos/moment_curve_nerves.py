"""Colored points on the moment curve and their nerve complexes.

Run:  python demos/moment_curve_nerves.py
"""

from fractions import Fraction

from wordnerve import (
    breen_intersect,
    gale_facets,
    hulls_intersect,
    moment_point,
    one_skeleton,
    realize_on_moment_curve,
    word,
)
from wordnerve.nerve import ColoredConfig, nerve

# The moment curve t -> (t, t^2, ..., t^d).  Whether two convex hulls of
# curve points meet is a purely combinatorial question: merge the two
# parameter sets and count how often the labels switch.
a, b = [1, 3, 6], [2, 4, 5]
for d in (1, 2, 3, 4):
    combinatorial = breen_intersect(a, b, d)
    geometric = hulls_intersect(
        [[moment_point(t, d) for t in a], [moment_point(t, d) for t in b]]
    )
    assert combinatorial == geometric
    print(f"d={d}: hulls of x({a}) and x({b}) intersect: {geometric}")
print()

# Facets of the cyclic polytope come from the evenness condition; the
# exact-arithmetic hyperplane test agrees (see tests/ for the full sweep).
print("facets of C(6, 3):")
for facet in gale_facets(6, 3):
    print("   ", facet)
print()

# Realizing a word: letter i colors the i-th curve point.  The nerve of
# the coloring then reproduces the word's induced graph as its 1-skeleton.
w = word("156216326436546")
config = realize_on_moment_curve(w, 2)
result = nerve(config, 2)
print("wheel word realized on 15 points in the plane")
print("nerve 1-skeleton:", one_skeleton(result.complex))
print("2-faces:", result.complex.faces_of_size(3))
print()

# Nine points, three colors, in R^3: the classes interleave heavily yet
# no two hulls meet (every pairwise alternation stays below 5).
colors = {1: "b", 2: "b", 6: "b", 3: "r", 5: "r", 7: "r", 4: "g", 8: "g", 9: "g"}
fixture = ColoredConfig(
    tuple(moment_point(t, 3) for t in range(1, 10)),
    tuple(colors[t] for t in range(1, 10)),
)
result = nerve(fixture, 2)
print("nine-point fixture nerve edges:", result.complex.faces_of_size(2))

# Rational parameters work exactly the same; the nerve only depends on the
# order type, not on the chosen parameters.
config_rational = realize_on_moment_curve(
    w, 2, params=[Fraction(3 * t, 2) + Fraction(1, 3) for t in range(1, 16)]
)
assert one_skeleton(nerve(config_rational, 1).complex) == one_skeleton(
    nerve(config, 1).complex
)
print("same 1-skeleton under rescaled rational parameters")

"""Growing a colored point set without changing its nerve.

Run:  python demos/extending_colorings.py [out.svg]
"""

import sys
from fractions import Fraction

from wordnerve import (
    ChordDiagram,
    extend_coloring_2d,
    extend_coloring_bipartite,
    from_edge_list,
    one_skeleton,
    realize_on_moment_curve,
    word_bipartite,
    word_from_chord_diagram,
)
from wordnerve.nerve import nerve
from wordnerve.svgplot import svg_for_config

F = Fraction

# A 4-cycle as a circle graph, realized on 8 convex-position points.
c4_word = word_from_chord_diagram(ChordDiagram(("1", "4", "2", "1", "3", "2", "4", "3")))
config = realize_on_moment_curve(c4_word, 2)
print("base nerve:", one_skeleton(nerve(config, 2).complex))

# Sprinkle extra points anywhere (here: far outside, near the middle, and
# inside one of the class hulls).  The planar extension recolors them so
# the nerve is untouched, and re-verifies that geometrically.
extras = [(F(-2), F(3)), (F(10), F(91)), (F(9, 2), F(11)), (F(7, 3), F(40))]
extended = extend_coloring_2d(config, extras)
print("extended nerve:", one_skeleton(nerve(extended, 2).complex))
for p, c in zip(extended.points[len(config.points):], extended.colors[len(config.colors):]):
    print(f"   extra {tuple(map(str, p))} -> color {c}")
print()

# The bipartite extension works in any dimension: separator hyperplanes
# through fresh moment-curve points carve space into one region per color
# of the bigger side.
k22 = from_edge_list([(v, u) for v in ("v1", "v2") for u in ("u1", "u2")])
w, d = word_bipartite(k22)
config = realize_on_moment_curve(w, d)
extras = [(F(-5), F(2)), (F(40), F(300)), (F(17, 2), F(70))]
extended = extend_coloring_bipartite(k22, w, config, extras)
print(f"K(2,2) realized on {len(config.points)} points in R^{d}, plus {len(extras)} extras")
print("nerve after extension:", one_skeleton(nerve(extended, 2).complex))
for p, c in zip(extended.points[len(config.points):], extended.colors[len(config.colors):]):
    print(f"   extra {tuple(map(str, p))} -> color {c}")

if len(sys.argv) > 1:
    path = sys.argv[1]
    with open(path, "w") as fh:
        fh.write(svg_for_config(extended))
    print(f"wrote {path}")

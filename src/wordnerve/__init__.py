"""wordnerve: words, graphs, and nerves of colored moment-curve point sets.

Library layout:

* graphs    -- simple graphs and simplicial complexes
* words     -- alternation semantics and induced graphs
* encode    -- graph/word/chord-diagram encoders
* search    -- bounded exhaustive search for word representants
* lp        -- exact rational LP feasibility (fraction-free integer
               Phase-I simplex)
* geometry  -- exact rational geometry (moment curve, Gale, Breen,
               hyperplanes) and the planar primitives (cross product,
               hull, general-position check, convex-position subset)
* nerve     -- colored configurations, nerve complexes, extensions
* formats   -- stable text/JSON formats
* svgplot   -- deterministic SVG rendering (2D)
* oracles   -- brute-force oracles shared by `selftest` and the tests
* cli       -- the `wordnerve` command
"""

from .graphs import (
    Graph,
    GraphError,
    SimplicialComplex,
    ComplexError,
    bipartition,
    from_edge_list,
    is_triangle_free,
    one_skeleton,
)
from .words import (
    Word,
    WordError,
    induced_graph_classic,
    induced_graph_general,
    is_d_intersecting,
    max_alternation,
    rotate,
    word,
)
from .encode import (
    ChordDiagram,
    bipartite_layout,
    chord_intersection_graph,
    word_any_graph,
    word_bipartite,
    word_from_chord_diagram,
)
from .geometry import (
    GeometryError,
    Hyperplane,
    breen_intersect,
    convex_position_subset_2d,
    gale_facets,
    hulls_intersect,
    hyperplane_through_moment_points,
    moment_point,
    point,
    rational,
)
from .search import (
    SearchBudget,
    SearchError,
    SearchVerdict,
    find_general_word,
    general_rep_number_bounded,
    gr_upper_bound,
)
from .nerve import (
    ColoredConfig,
    DegenerateInputError,
    ExtensionError,
    NerveResult,
    extend_coloring_2d,
    extend_coloring_bipartite,
    nerve,
    realize_on_moment_curve,
)

__version__ = "0.1.0"

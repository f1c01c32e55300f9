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
               hull, general-position check)
* nerve     -- colored configurations, nerve complexes, extensions
* formats   -- stable text/JSON formats
* svgplot   -- deterministic SVG rendering (2D)
* oracles   -- brute-force oracles shared by `selftest` and the tests
* cli       -- the `wordnerve` command
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562), so `import wordnerve.cli` loads only what a
# subcommand runs.  The function `nerve` is not exported here: the name
# `wordnerve.nerve` is the submodule, whatever the import order.
_EXPORTS = {
    name: module
    for module, names in (
        ("graphs", "Graph GraphError SimplicialComplex ComplexError bipartition "
                   "from_edge_list is_triangle_free one_skeleton"),
        ("words", "Word WordError induced_graph_classic induced_graph_general "
                  "is_d_intersecting max_alternation rotate word"),
        ("encode", "ChordDiagram bipartite_layout chord_intersection_graph "
                   "word_any_graph word_bipartite word_from_chord_diagram"),
        ("geometry", "GeometryError Hyperplane breen_intersect gale_facets hulls_intersect "
                     "hyperplane_through_moment_points moment_point point rational"),
        ("search", "SearchBudget SearchError SearchVerdict find_general_word "
                   "general_rep_number_bounded gr_upper_bound"),
        ("nerve", "ColoredConfig DegenerateInputError ExtensionError NerveResult "
                  "extend_coloring_2d extend_coloring_bipartite realize_on_moment_curve"),
    )
    for name in names.split()
}
__all__ = list(_EXPORTS)


def _deferred(namespace: dict, sources: dict[str, str]):
    """A module `__getattr__` (PEP 562) for the names in `sources`: each is
    imported from the submodule it maps to on first access, then kept in
    `namespace`, the module's globals."""

    def __getattr__(name):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{sources[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _deferred(globals(), _EXPORTS)


__version__ = "0.1.0"

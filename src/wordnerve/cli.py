"""Command-line surface.

Subcommands: induce, encode, realize, search, facets, extend.
Exit codes: 0 success, 2 input error (an input too large for the memory
at hand included), 3 search budget exhausted, 4 internal invariant
violation.

Every command validates its inputs fully before writing anything, and
identical inputs plus identical flags produce byte-identical outputs
(wall-clock diagnostics go to stderr only).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import _deferred, formats
from .graphs import Graph, one_skeleton
from .words import Word, induced_graph_general

# Each handler imports the modules it runs on first use, so a subcommand
# loads only those.  The four functions below are bindings of this module
# that `bench/probes.py` wraps.  They load on first access, and the
# handlers call them through the module object `_cli`, so a wrapped
# binding is the one that runs.
__getattr__ = _deferred(globals(), {
    "gale_facets": "geometry",
    "nerve": "nerve",
    "realize_on_moment_curve": "nerve",
    "extend_coloring_2d": "nerve",
})
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Every library input error (FormatError, GraphError, WordError,
# GeometryError alias DegenerateInputError, SearchError) is a ValueError.
_INPUT_ERRORS = (ValueError, OSError)


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _emit(text: str, output: str | None):
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def _graph_summary(g: Graph) -> str:
    lines = [f"vertices: {' '.join(g.vertices)}"]
    for v in g.vertices:
        ns = " ".join(sorted(g.neighbors(v)))
        lines.append(f"  {v}: {ns}" if ns else f"  {v}: (isolated)")
    return "\n".join(lines) + "\n"


def _single_word(path: str) -> Word:
    words = formats.parse_words_text(_read(path))
    if len(words) != 1:
        raise formats.FormatError(f"expected exactly one word in {path}, found {len(words)}")
    return words[0]


def cmd_induce(args) -> int:
    w = _single_word(args.word_file)
    g = induced_graph_general(w, args.dim)
    _emit(formats.dump_json(formats.graph_to_doc(g)), args.output)
    if args.output:
        sys.stdout.write(_graph_summary(g))
    return EXIT_OK


def cmd_encode(args) -> int:
    from .encode import word_any_graph, word_bipartite, word_from_chord_diagram

    text = _read(args.input_file)
    if args.mode == "chords":
        doc = formats.load_json(text)
        w, d = word_from_chord_diagram(formats.circle_structure_from_doc(doc)), 2
    else:
        g = formats.parse_graph_file(text)
        w, d = (word_any_graph if args.mode == "any" else word_bipartite)(g)
    _emit(formats.dump_words_text([w]), args.output)
    (sys.stdout if args.output else sys.stderr).write(f"d={d}\n")
    return EXIT_OK


def cmd_realize(args) -> int:
    w = _single_word(args.word_file)
    if args.svg and args.dim != 2:
        raise ValueError("--svg requires --dim 2")
    config = _cli.realize_on_moment_curve(w, args.dim)
    skeleton = one_skeleton(_cli.nerve(config, 1).complex)
    if args.svg:  # first, so that an unwritable path leaves stdout empty
        from .svgplot import svg_for_config

        _write(args.svg, svg_for_config(config))
    _emit(formats.dump_json(formats.config_to_doc(config)), args.output)
    summary = f"nerve 1-skeleton ({len(skeleton.edges)} edges):\n" + _graph_summary(skeleton)
    (sys.stdout if args.output else sys.stderr).write(summary)
    return EXIT_OK


def cmd_search(args) -> int:
    from .search import NODE_LIMIT, NOT_FOUND, SearchBudget, find_general_word

    g = formats.parse_graph_file(_read(args.graph_file))
    budget = SearchBudget(
        max_copies_per_letter=args.max_copies,
        max_total_length=args.max_len,
        node_limit=args.node_limit,
    )
    t0 = time.perf_counter()
    verdict = find_general_word(g, args.dim, budget, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    _emit(formats.dump_json(formats.verdict_to_doc(verdict, args.dim, budget)), args.output)
    sys.stderr.write(f"wall_time_s={elapsed:.3f}\n")
    if verdict.outcome == NODE_LIMIT or verdict.outcome == NOT_FOUND:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_facets(args) -> int:
    # gale_facets refuses a list past the address space; one that only
    # exceeds the memory at hand is the same input error.
    try:
        doc = {"r": args.r, "d": args.d, "facets": _cli.gale_facets(args.r, args.d)}
        _emit(formats.dump_json(doc), args.output)  # tuples dump as arrays
        return EXIT_OK
    except MemoryError:
        pass  # leave the handler first: its traceback holds the partial list
    raise ValueError(f"C({args.r}, {args.d}) has more facets than memory can hold")


def cmd_extend(args) -> int:
    config = formats.config_from_doc(formats.load_json(_read(args.config_file)))
    extras, extras_dim = formats.points_from_doc(formats.load_json(_read(args.extras_file)))
    if extras_dim != config.dimension:
        raise ValueError(
            f"extras dimension {extras_dim} != configuration dimension {config.dimension}"
        )
    if args.mode == "planar":
        extended = _cli.extend_coloring_2d(config, extras)
    else:
        from .nerve import extend_coloring_bipartite

        w = Word(config.colors)  # the encoding, whose level-d graph is the encoded one
        g = induced_graph_general(w, config.dimension)
        extended = extend_coloring_bipartite(g, w, config, extras)
    # Both extensions check that the extended nerve equals the original one,
    # so one edge count serves before and after.
    edges = len(_cli.nerve(config, 1).complex.faces_of_size(2))
    _emit(formats.dump_json(formats.config_to_doc(extended)), args.output)
    sys.stdout.write(f"nerve preserved: {edges} edges before, {edges} after\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordnerve",
        description="Words, graphs, and nerves of colored moment-curve point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="induced graph of a word at level d")
    p.add_argument("word_file")
    p.add_argument("--dim", type=int, required=True, help="alternation level d")
    p.add_argument("--output", help="graph document path (default: stdout)")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("encode", help="encode a graph (or chord diagram) as a word")
    p.add_argument("input_file", help="graph file, or chord-diagram JSON for --mode chords")
    p.add_argument("--mode", choices=["any", "bipartite", "chords"], default="any")
    p.add_argument("--output", help="word file path (default: stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("realize", help="realize a word on the moment curve")
    p.add_argument("word_file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--svg", help="write an SVG rendering here (2D only)")
    p.add_argument("--output", help="configuration document path (default: stdout)")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("search", help="search for a general d-word-representant")
    p.add_argument("graph_file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-copies", type=int, default=3)
    p.add_argument("--max-len", type=int, default=24)
    p.add_argument("--node-limit", type=int, default=5_000_000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", help="verdict document path (default: stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("facets", help="facets of the cyclic polytope C(r, d)")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--output", help="facet document path (default: stdout)")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("extend", help="extend a coloring over extra points")
    p.add_argument("config_file")
    p.add_argument("extras_file")
    p.add_argument("--mode", choices=["planar", "bipartite"], required=True,
                   help="bipartite reads its graph off the configuration's colors and dimension")
    p.add_argument("--output", help="extended configuration path (default: stdout)")
    p.set_defaults(func=cmd_extend)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (RuntimeError, AssertionError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except MemoryError:
        pass  # leave the handler first: its traceback holds what filled memory
    sys.stderr.write(f"error: {args.command}: the input needs more memory than is available\n")
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Counters and spans recorded from outside the library.

The library is not edited: every probe replaces a module attribute with a
wrapper for the duration of a run.  Callers bind names at import time
(`nerve.py` does `from .geometry import hulls_intersect`), so each probe
patches the binding its caller looks up, never the defining module alone.

Two modes share one wrapper:

* counting (untraced runs): only the call counters the deterministic
  checks need; no clock reads, so end-to-end timings stay unperturbed;
* tracing: every call is also a span with a start, an end and the span
  that caused it.  A span's self time is its duration minus the time its
  child spans cover.  Spans are aggregated in memory per (name, parent)
  and summarised when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  The attribute is the caller's binding.
PROBES = (
    ("wordnerve.geometry", "feasible_eq_nonneg", "lp"),
    ("wordnerve.nerve", "hulls_intersect", "geometry.hulls_intersect"),
    ("wordnerve.nerve", "hyperplane_through_moment_points", "geometry.hyperplane"),
    ("wordnerve.cli", "gale_facets", "geometry.gale_facets"),
    ("wordnerve.nerve", "nerve", "nerve.nerve"),
    ("wordnerve.cli", "nerve", "nerve.nerve"),
    ("wordnerve.nerve", "realize_on_moment_curve", "nerve.realize"),
    ("wordnerve.cli", "realize_on_moment_curve", "nerve.realize"),
    ("wordnerve.nerve", "extend_coloring_2d", "nerve.extend_2d"),
    ("wordnerve.cli", "extend_coloring_2d", "nerve.extend_2d"),
    ("wordnerve.nerve", "extend_coloring_bipartite", "nerve.extend_bipartite"),
    ("wordnerve.nerve", "bipartite_layout", "encode.bipartite_layout"),
    ("wordnerve.encode", "bipartite_layout", "encode.bipartite_layout"),
    ("wordnerve.search", "automorphisms", "search.automorphisms"),
    ("wordnerve.search", "induced_graph_general", "search.verify"),
    ("wordnerve.words", "induced_graph_general", "words.induce"),
    ("wordnerve.cli", "induced_graph_general", "words.induce"),
    ("wordnerve.formats", "parse_graph_file", "formats.parse"),
    ("wordnerve.formats", "parse_words_text", "formats.parse"),
    ("wordnerve.formats", "load_json", "formats.parse"),
    ("wordnerve.formats", "config_from_doc", "formats.parse"),
    ("wordnerve.formats", "points_from_doc", "formats.parse"),
    ("wordnerve.formats", "dump_json", "formats.dump"),
    ("wordnerve.formats", "dump_words_text", "formats.dump"),
    ("wordnerve.formats", "graph_to_doc", "formats.dump"),
    ("wordnerve.formats", "config_to_doc", "formats.dump"),
    ("wordnerve.formats", "verdict_to_doc", "formats.dump"),
)

# The spans an untraced run still counts for the deterministic checks.
COUNTED = frozenset({"lp", "geometry.hulls_intersect"})


class Probe:
    """Installs wrappers on enter, restores the original bindings on exit.

    `active` gates recording, so the benchmark's own oracle calls made
    between operations are never counted.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        # (name, parent) -> [calls, total_s, self_s, truthy results]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.lp_cells = 0
        self._stack: list[list] = []  # [name, child_s]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name in PROBES:
            if not self.traced and name not in COUNTED:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.active:
                return fn(*args, **kwargs)
            probe.counts[name] += 1
            if name == "lp":
                rows = args[0]
                probe.lp_cells += len(rows) * (len(rows[0]) if rows else 0)
            if not probe.traced:
                result = fn(*args, **kwargs)
            else:
                parent = probe._stack[-1][0] if probe._stack else None
                frame = [name, 0.0]
                probe._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    probe._stack.pop()
                    if probe._stack:
                        probe._stack[-1][1] += dt
                    agg = probe.spans[(name, parent)]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
                agg[3] += result is True
            return result

        return wrapper

    def reset(self):
        self.counts.clear()
        self.spans.clear()
        self.lp_cells = 0

    def snapshot(self) -> tuple[int, int]:
        """(LP calls, hull tests) so far; an operation's counts are the
        difference of two snapshots."""
        return self.counts["lp"], self.counts["geometry.hulls_intersect"]

    # -- summaries of the aggregated spans ----------------------------------

    def total_s(self, name: str, parent=...) -> float:
        """Wall time of the top-level spans of `name` (nested same-name
        spans are not counted twice); restricted to one parent if given."""
        return sum(
            agg[1]
            for (n, p), agg in self.spans.items()
            if n == name and p != name and (parent is ... or p == parent)
        )

    def self_s(self, name: str) -> float:
        return sum(agg[2] for (n, _), agg in self.spans.items() if n == name)

    def calls(self, name: str, parent=..., field: int = 0) -> int:
        """Calls of `name` (or, with field=3, calls that returned True)."""
        return sum(
            agg[field]
            for (n, p), agg in self.spans.items()
            if n == name and (parent is ... or p == parent)
        )

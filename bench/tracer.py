"""Outside-in tracing of ringline's layers for the traced benchmark runs.

The tracer replaces chosen public functions with wrappers that record one
span per call: a name, a start, an end and the index of the enclosing span.
Every module namespace that imported a traced name gets the wrapper, since
``from .quadrangle import graph_isomorphism`` binds a second reference that
patching ``quadrangle`` alone would miss.  ``lru_cache`` objects stay in
place behind their wrappers, and their ``cache_info()`` supplies the miss
counts.

Spans stay in memory until ``fold()``, which turns them into per-name call
counts and self time (a span's duration minus the time its child spans
cover) and then drops them.  Nothing here touches the program's
files; the wrappers live only in the traced process.
"""

from __future__ import annotations

import importlib
import sys
import time

# Public functions traced per module, named "<module>.<function>" in output.
TARGETS = {
    "gf2": ("rank",),
    "rings": ("ring_by_name", "validate_ring"),
    "projline": (
        "enumerate_line",
        "is_admissible",
        "gl2_elements",
        "map_standard_triple_to",
    ),
    "pauli": (
        "mub_spread_check",
        "mermin_square_check",
        "line_product_sign",
        "multiply",
        "commutes",
    ),
    "quadrangle": (
        "graph_isomorphism",
        "enumerate_ovoids",
        "enumerate_hyperplanes",
        "is_petersen",
        "validate_gq_axioms",
    ),
    "correspondence": (
        "verify_all",
        "verify_ring_tables",
        "verify_line_census",
        "verify_subconfig",
        "verify_relation_signs",
        "verify_gq_structure",
        "verify_hyperplane_census",
        "verify_petersen",
        "verify_split_9_6",
        "trinity_report",
        "verify_transitivity",
        "verify_split_10_5",
        "verify_perp_sublines",
        "verify_mermin",
        "verify_mub",
        "grid_mermin_arrangement",
    ),
    "export": (
        "sign_matrix_csv",
        "sign_matrix_dot",
        "graph_dot",
        "line_points_csv",
        "structure_to_json_dict",
        "hyperplane_catalog_to_json_dict",
    ),
}

# Both Report serializers record under one span name.
RENDER_SPAN = "correspondence.Report.render"
RENDER_METHODS = ("to_text", "to_json_dict")

# Calls whose result is counted as a hit: truthy for predicates, not None
# for searches.
HIT_TESTS = {
    "projline.is_admissible": bool,
    "quadrangle.graph_isomorphism": lambda result: result is not None,
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.hits: dict[str, int] = {}
        self.totals: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self._cached: dict[str, object] = {}
        self._miss_base: dict[str, int] = {}

    def span(self, name: str, fn, hit_test=None):
        """A wrapper around ``fn`` that records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hits = self.hits
        hits.setdefault(name, 0)

        def traced(*args, **kwargs):
            record = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if hit_test is not None and hit_test(result):
                hits[name] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced name in every loaded ringline module."""
        for short in TARGETS:
            importlib.import_module(f"ringline.{short}")
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "ringline" or n.startswith("ringline.")
        ]
        for short, attrs in TARGETS.items():
            home = sys.modules[f"ringline.{short}"]
            for attr in attrs:
                name = f"{short}.{attr}"
                orig = getattr(home, attr)
                if hasattr(orig, "cache_info"):
                    self._cached[name] = orig
                wrapper = self.span(name, orig, HIT_TESTS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
        report_cls = sys.modules["ringline.correspondence"].Report
        for attr in RENDER_METHODS:
            setattr(report_cls, attr, self.span(RENDER_SPAN, getattr(report_cls, attr)))
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; later folds start from here."""
        self.spans.clear()
        self.totals.clear()
        for name in self.hits:
            self.hits[name] = 0
        self._miss_base = {n: f.cache_info().misses for n, f in self._cached.items()}

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (nid, start, end, _) in enumerate(spans):
            entry = self.totals.setdefault(self.names[nid], [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[i]
        spans.clear()

    def summary(self) -> dict:
        """Totals, hits and cache misses since the last reset, as JSON data."""
        self.fold()
        misses = {
            n: f.cache_info().misses - self._miss_base[n] for n, f in self._cached.items()
        }
        return {"totals": self.totals, "hits": self.hits, "misses": misses}

"""In-memory span tracing of gridorbits layer boundaries.

The tracer replaces each traced function with a wrapper under every name
that binds it: modules import some functions by name (``rank`` lives in
``exact_linalg``, ``decomposition`` and ``degeneration_lab``), so patching
only the defining module would miss those calls.  Spans (name, start, end,
parent, op) are kept in memory and written out when the job ends.

This module does not import gridorbits itself; :meth:`Tracer.install`
takes the already imported package.
"""

from __future__ import annotations

import json
import sys
import time

# Traced functions per module, as ``<module>: [attribute path, ...]``.
TRACED = {
    "exact_linalg": ["rank", "b_reduce", "Matrix.__matmul__"],
    "parametrizations": ["sw_array", "sw_table", "same_orbit", "degenerates"],
    "decomposition": ["rank_vector", "decompose"],
    "grid_quiver": ["window_products", "assemble_canonical", "make_point"],
    "orbit_poset": ["enumerate_orbits", "build_poset", "f2_distinct_count"],
    "degeneration_lab": [
        "flat_scan",
        "hom_report",
        "subrep_count",
        "fit_dimension",
        "rep_variety_count",
    ],
    "subspaces": ["column_chains"],
    "serialize": ["map_tuple_to_json", "sw_array_to_json"],
}

# One span per CLI command the workloads run, named ``cli.<command>``.
CLI_COMMANDS = ["orbits", "poset", "count-report", "flat-scan", "hom-report"]

SPAN_STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))

# Layer metrics that are not span statistics: (name, unit, better).
EXTRA_METRICS = [
    ("grid_quiver.window_products.hit_ratio", "ratio", "higher"),
    ("grid_quiver.window_products.cache_entries", "count", "lower"),
    ("degeneration_lab.rep_variety_count.candidates", "count", "lower"),
    ("degeneration_lab.rep_variety_count.accept_ratio", "ratio", "higher"),
    ("subspaces.hit_ratio", "ratio", "higher"),
    ("fields.gf_add.calls", "count", "lower"),
    ("fields.gf_mul.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def span_names():
    names = [f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [
        (f"{span}.{stat}", unit, "lower")
        for span in span_names()
        for stat, unit in SPAN_STATS
    ]
    return out + EXTRA_METRICS


def rep_variety_candidates(shape, e, q):
    """q^nvars: the arrow tuples a brute-force count of the representation
    variety with dimension grid ``e`` checks.  Every horizontal and
    vertical arrow of the grid carries an e_t x e_s matrix."""
    nvars = 0
    for i in range(1, shape.size + 1):
        for j in range(1, shape.n + 1):
            here = e[i - 1][j - 1]
            if j < shape.n:
                nvars += here * e[i - 1][j]
            if i < shape.size:
                nvars += here * e[i][j - 1]
    return q ** nvars


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self):
        self.names = span_names()
        self.index = {name: k for k, name in enumerate(self.names)}
        self.spans = []  # [name index, start, end, parent span or -1, op]
        self.stack = []
        self.op = -1
        self.gf_calls = {"add": 0, "mul": 0}
        self.rep_candidates = 0
        self.rep_points = 0
        self.bindings = {}  # span name -> [(module name, attribute)]
        self._caches = {}  # cache name -> (lru cache, cache_info at install)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        k = self.index[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [k, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _count_rep_variety(self, args, result):
        shape, e, q = args[:3]
        self.rep_candidates += rep_variety_candidates(shape, e, q)
        self.rep_points += result

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap every traced function of ``package`` (gridorbits, with all
        submodules imported) under each module-level name bound to it.
        Cache hit ratios count only the calls made after installation."""
        prefix = package.__name__
        for key, cache in (
            ("grid_quiver.window_products", sys.modules[f"{prefix}.grid_quiver"].window_products),
            ("subspaces", sys.modules[f"{prefix}.subspaces"].subspaces),
        ):
            self._caches[key] = (cache, cache.cache_info())
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for mod_name, attrs in TRACED.items():
            mod = sys.modules[f"{prefix}.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    self.bindings[name] = [(mod.__name__, attr)]
                    continue
                original = getattr(mod, attr)
                hook = self._count_rep_variety if attr == "rep_variety_count" else None
                wrapper = self._wrap(name, original, hook)
                bound = []
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            bound.append((m.__name__, key))
                self.bindings[name] = bound
        gf = sys.modules[f"{prefix}.fields"].GaloisField
        for op in ("add", "mul"):
            setattr(gf, op, self._counted(op, getattr(gf, op)))

    def _counted(self, op, fn):
        calls = self.gf_calls

        def counted(*args):
            calls[op] += 1
            return fn(*args)

        return counted

    # -- results ---------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time covered by direct child spans)."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for k, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for idx, (k, start, end, _parent, _op) in enumerate(self.spans):
            calls[k] += 1
            total[k] += end - start
            self_time[k] += end - start - child[idx]
        return {
            name: {"calls": calls[k], "total_s": total[k], "self_s": self_time[k]}
            for k, name in enumerate(self.names)
        }

    def layer_values(self):
        """Every per-layer metric except the tracing overhead."""
        out = {}
        for name, stats in self.span_stats().items():
            for stat, _unit in SPAN_STATS:
                out[f"{name}.{stat}"] = stats[stat]
        for key in self._caches:
            out[f"{key}.hit_ratio"] = self._hit_ratio(key)
        out["grid_quiver.window_products.cache_entries"] = self._caches[
            "grid_quiver.window_products"
        ][0].cache_info().currsize
        out["degeneration_lab.rep_variety_count.candidates"] = self.rep_candidates
        out["degeneration_lab.rep_variety_count.accept_ratio"] = _ratio(
            self.rep_points, self.rep_candidates
        )
        out["fields.gf_add.calls"] = self.gf_calls["add"]
        out["fields.gf_mul.calls"] = self.gf_calls["mul"]
        return out

    def _hit_ratio(self, key):
        cache, base = self._caches[key]
        now = cache.cache_info()
        hits = now.hits - base.hits
        return _ratio(hits, hits + now.misses - base.misses)

    def write(self, path):
        """Write every recorded span as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num, den):
    return num / den if den else 0.0

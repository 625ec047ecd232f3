"""Span wrappers for the traced run, installed from the benchmark's side.

``install`` replaces the names one ``torus_tails`` module calls in another
(and the public names the workloads call) by wrappers that time each call.
Spans are aggregated as they close, per span name: calls, total time, self
time (duration minus the time of the spans opened inside it) and exceptions
raised.  Nothing under ``src/`` changes; a name a later version no longer
has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# -- counters read at span boundaries -----------------------------------------


def _summation_points(counts, out, args):
    counts["summation_set.points"] += len(out)
    counts["summation_set.nonzero"] += sum(1 for m in out.values() if m)


def _jones_summands(counts, out, args):
    # the summation set colored_jones assembles (jones calls it only there
    # in the workloads); its nonzero members are the Jones summands
    _summation_points(counts, out, args)
    counts["colored_jones.summands"] += sum(1 for m in out.values() if m)


def _jones_terms(counts, out, args):
    counts["colored_jones.terms"] += len(out.polynomial.terms)


def _hull_points(counts, out, args):
    counts["lattice_hull.points"] += len(out)


def _family_read_terms(counts, out, args):
    # detection reads member n only below q^((k_max+1) n)
    if len(args) < 4:
        return
    family, k_max = args[0], args[3]
    for n, f in family.items():
        counts["family.terms"] += len(f.terms)
        bound = (k_max + 1) * n * f.denom
        counts["family.read_terms"] += sum(1 for e, _ in f.terms if e < bound)


# (module, class or None, attribute, span name, counter hook)
WRAPS = (
    ("torus_tails", None, "colored_jones", "jones.colored_jones", _jones_terms),
    ("torus_tails.stability", None, "colored_jones", "jones.colored_jones",
     _jones_terms),
    ("torus_tails.jones", None, "summation_set", "mult.summation_set",
     _jones_summands),
    ("torus_tails.mult", None, "summation_set", "mult.summation_set",
     _summation_points),
    ("torus_tails.jones", None, "minimizer_closed_form",
     "jones.minimizer_closed_form", None),
    ("torus_tails.stability", None, "minimizer_closed_form",
     "jones.minimizer_closed_form", None),
    ("torus_tails", None, "plethysm_mult", "mult.plethysm_mult", None),
    ("torus_tails.mult", None, "plethysm_mult", "mult.plethysm_mult", None),
    ("torus_tails.stability", None, "plethysm_mult", "mult.plethysm_mult",
     None),
    ("torus_tails.mult", None, "weight_mult", "mult.weight_mult", None),
    ("torus_tails.mult", None, "kostant", "kostant.kostant", None),
    ("torus_tails.mult", None, "_freudenthal_table",
     "mult.weight_mult_freudenthal", None),
    ("torus_tails", None, "plethysm_adams_oracle",
     "mult.plethysm_adams_oracle", None),
    ("torus_tails", None, "lattice_hull", "mult.lattice_hull", None),
    ("torus_tails.mult", None, "lattice_hull", "mult.lattice_hull", None),
    ("torus_tails.stability", None, "lattice_hull", "mult.lattice_hull", None),
    ("torus_tails.mult", "LatticeHull", "points", "mult.lattice_hull",
     _hull_points),
    ("torus_tails.mult", None, "missing_points", "mult.missing_points", None),
    ("torus_tails", None, "missing_point_bound_check",
     "mult.missing_point_bound_check", None),
    ("torus_tails", None, "kostant_dp", "kostant.kostant_dp", None),
    ("torus_tails", None, "kostant_closed_A2", "kostant.kostant_closed", None),
    ("torus_tails", None, "kostant_closed_B2", "kostant.kostant_closed", None),
    ("torus_tails", None, "kostant_closed_G2", "kostant.kostant_closed", None),
    ("torus_tails.lie", "RootSystem", "weight_system", "lie.weight_system",
     None),
    ("torus_tails", None, "detect_jones_tail", "stability.detect_jones_tail",
     None),
    ("torus_tails.stability", None, "minimal_class_modulus",
     "stability.minimal_class_modulus", None),
    ("torus_tails.stability", None, "jones_family", "stability.jones_family",
     None),
    ("torus_tails.stability", None, "detect_cstability",
     "stability.detect_cstability", _family_read_terms),
    ("torus_tails.stability", None, "_defect_threshold",
     "stability.defect_threshold", None),
    ("torus_tails.stability", None, "fit_quasi_polynomial",
     "quasipoly.fit_quasi_polynomial", None),
    ("torus_tails", None, "tail_eval_stable_limit",
     "stability.tail_eval_stable_limit", None),
    ("torus_tails", None, "tail_closed_T2b", "stability.tail_closed", None),
    ("torus_tails", None, "tail_closed_T4b", "stability.tail_closed", None),
    ("torus_tails.stability", "QPSeries", "__mul__", "stability.qpseries_mul",
     None),
    ("torus_tails.qseries", "TruncatedSeries", "__mul__",
     "qseries.truncated_series_mul", None),
    ("torus_tails.stability", None, "theta", "qseries.functions", None),
    ("torus_tails.stability", None, "euler_phi", "qseries.functions", None),
    ("torus_tails.stability", None, "geometric_inverse", "qseries.functions",
     None),
    ("torus_tails.qseries", None, "pochhammer", "qseries.functions", None),
    ("torus_tails.qseries", None, "euler_phi", "qseries.functions", None),
    ("torus_tails.qseries", None, "exact_div", "qseries.functions", None),
    ("workloads", None, "encode_jones", "json.encode", None),
)

# lru_cache tables whose hit ratios are reported, by metric
CACHE_RATIOS = {
    "mult.weight_mult.cache_hit_ratio": "torus_tails.mult._weight_mult",
    "kostant.dp.cache_hit_ratio": "torus_tails.kostant._dp",
    "lie.weight_system.cache_hit_ratio": "torus_tails.lie._weight_system",
}

LAYERS = ("lie", "kostant", "mult", "jones", "qseries", "quasipoly",
          "stability")

# (name, unit, better): the per-layer metrics of a traced run
PER_LAYER = (
    ("mult.summation_set.calls", "count", "lower"),
    ("mult.summation_set.self_s", "s", "lower"),
    ("mult.summation_set.points", "count", "lower"),
    ("mult.summation_set.nonzero_ratio", "ratio", "higher"),
    ("mult.plethysm_mult.calls", "count", "lower"),
    ("mult.plethysm_mult.self_s", "s", "lower"),
    ("mult.weight_mult.calls", "count", "lower"),
    ("mult.weight_mult.self_s", "s", "lower"),
    ("mult.weight_mult.cache_hit_ratio", "ratio", "higher"),
    ("kostant.kostant.calls", "count", "lower"),
    ("kostant.kostant.self_s", "s", "lower"),
    ("kostant.dp.cache_hit_ratio", "ratio", "higher"),
    ("lie.weight_system.calls", "count", "lower"),
    ("lie.weight_system.self_s", "s", "lower"),
    ("lie.weight_system.cache_hit_ratio", "ratio", "higher"),
    ("jones.colored_jones.calls", "count", "lower"),
    ("jones.colored_jones.self_s", "s", "lower"),
    ("jones.colored_jones.summands", "count", "lower"),
    ("jones.colored_jones.terms", "count", "lower"),
    ("stability.family.read_term_ratio", "ratio", "higher"),
    ("stability.jones_family.self_s", "s", "lower"),
    ("stability.detect_cstability.calls", "count", "lower"),
    ("stability.detect_cstability.self_s", "s", "lower"),
    ("stability.defect_threshold.self_s", "s", "lower"),
    ("quasipoly.fit_quasi_polynomial.calls", "count", "lower"),
    ("quasipoly.fit_quasi_polynomial.self_s", "s", "lower"),
    ("quasipoly.fit_quasi_polynomial.errors", "count", "lower"),
    ("mult.plethysm_adams_oracle.calls", "count", "lower"),
    ("mult.plethysm_adams_oracle.self_s", "s", "lower"),
    ("mult.weight_mult_freudenthal.self_s", "s", "lower"),
    ("mult.lattice_hull.points", "count", "lower"),
    ("kostant.kostant_dp.self_s", "s", "lower"),
    ("stability.tail_eval_stable_limit.self_s", "s", "lower"),
    ("stability.tail_closed.self_s", "s", "lower"),
    ("stability.qpseries_mul.calls", "count", "lower"),
    ("stability.qpseries_mul.self_s", "s", "lower"),
    ("qseries.truncated_series_mul.calls", "count", "lower"),
    ("qseries.truncated_series_mul.self_s", "s", "lower"),
    ("qseries.functions.self_s", "s", "lower"),
    ("cache.entries", "count", "lower"),
    ("json.encode_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
) + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Aggregated spans: per name [calls, total_s, self_s, errors]."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts = defaultdict(int)
        self.active = True           # checks run with recording paused
        self.caches = {}             # "module.name" -> lru_cache wrapper
        self._stack = []             # child-time accumulator per open span

    def wrap(self, fn, name, hook=None):
        stats, counts, stack = self.stats[name], self.counts, self._stack
        hook_stats = self.stats["bench.count"]
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                t1 = clock()
                hook(counts, out, args)
                dur = clock() - t1
                hook_stats[0] += 1
                hook_stats[1] += dur
                hook_stats[2] += dur
                if stack:
                    stack[-1][0] += dur
            return out

        return span

    def install(self):
        """Find the lru_cache tables of the loaded torus_tails modules, then
        wrap every name in WRAPS."""
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("torus_tails."):
                for attr, obj in vars(mod).items():
                    if hasattr(obj, "cache_info") and \
                            obj.__module__ == modname:
                        self.caches[f"{modname}.{attr}"] = obj
        for modname, cls, attr, name, hook in WRAPS:
            owner = importlib.import_module(modname)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or not hasattr(owner, attr):
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def metrics(self, traced_wall: float) -> dict:
        """Every PER_LAYER metric but ``trace.overhead_ratio``, which needs
        an untraced pass, as {name: value}."""
        stats, counts = self.stats, self.counts

        def hit_ratio(key):
            fn = self.caches.get(key)
            if fn is None:
                return 0.0
            info = fn.cache_info()
            return _ratio(info.hits, info.hits + info.misses)

        special = {
            "mult.summation_set.points": counts["summation_set.points"],
            "mult.summation_set.nonzero_ratio": _ratio(
                counts["summation_set.nonzero"],
                counts["summation_set.points"]),
            "jones.colored_jones.summands": counts["colored_jones.summands"],
            "jones.colored_jones.terms": counts["colored_jones.terms"],
            "stability.family.read_term_ratio": _ratio(
                counts["family.read_terms"], counts["family.terms"]),
            "mult.lattice_hull.points": counts["lattice_hull.points"],
            "cache.entries": sum(fn.cache_info().currsize
                                 for fn in self.caches.values()),
            "json.encode_s": stats["json.encode"][1],
            # op glue plus the counters above: benchmark-side time
            "trace.unattributed_ratio": _ratio(
                stats["bench.op"][2] + stats["bench.count"][2], traced_wall),
        }
        special.update({key: hit_ratio(path)
                        for key, path in CACHE_RATIOS.items()})
        for layer in LAYERS:
            special[f"layer.{layer}.self_s"] = sum(
                st[2] for span, st in stats.items()
                if span.split(".", 1)[0] == layer)
        out = {}
        for name, _, _ in PER_LAYER:
            if name == "trace.overhead_ratio":
                continue
            if name in special:
                out[name] = special[name]
                continue
            span, _, field = name.rpartition(".")
            st = stats.get(span, (0, 0.0, 0.0, 0))
            out[name] = {"calls": st[0], "self_s": st[2],
                         "errors": st[3]}[field]
        return out

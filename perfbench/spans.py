"""Outside-in tracing of hyperlat's layers, and the per-layer metrics.

`install` runs inside a command's own interpreter: it wraps the public
functions in TARGETS and rebinds every module attribute that holds the
original, so a name imported elsewhere (``densities.discriminant_group``,
``cli.equidistribution_run``) is traced too.  A function that a later
version of hyperlat no longer has is reported as absent, not as an error.
Spans stay in memory and are written out when the command ends.

`layer_metrics` turns the spans of one workload pass into the metrics named
in PER_LAYER.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

PACKAGE = "hyperlat"
TARGETS = (
    ("hyperboloid", "enumerate_points"),
    ("hyperboloid", "mu_infty"),
    ("hyperboloid", "equidistribution_run"),
    ("densities", "singular_series"),
    ("densities", "local_density"),
    ("densities", "count_solutions_split"),
    ("densities", "eisenstein_coefficient"),
    ("densities", "is_representable"),
    ("fqm", "discriminant_group"),
    ("exactla", "smith_normal_form"),
    ("exactla", "lll_reduce_gram"),
    ("weil", "rho_S"),
    ("weil", "verify_relations"),
    ("weil", "dump_matrix"),
    ("qseries", "theta_series"),
    ("cusps", "find_isotropic_planes"),
    ("predict", "main_term"),
    ("predict", "represents_on_coset"),
    ("lattices", "orthogonal_complement"),
    ("cli", "main"),
)

# (function, stat) pairs reported from spans; the derived metrics follow.
SPAN_STATS = (
    ("hyperboloid.enumerate_points", ("calls", "total_s", "p50_ms", "tail_ms", "tail_pct")),
    ("hyperboloid.mu_infty", ("total_s",)),
    ("hyperboloid.equidistribution_run", ("self_s",)),
    ("densities.singular_series", ("calls", "total_s")),
    ("densities.local_density", ("calls", "total_s", "p50_ms", "tail_ms", "tail_pct")),
    ("densities.count_solutions_split", ("calls", "total_s")),
    ("densities.eisenstein_coefficient", ("calls", "total_s")),
    ("densities.is_representable", ("calls", "total_s")),
    ("fqm.discriminant_group", ("calls", "total_s")),
    ("exactla.smith_normal_form", ("calls", "total_s")),
    ("exactla.lll_reduce_gram", ("calls", "total_s")),
    ("weil.rho_S", ("calls", "total_s")),
    ("weil.verify_relations", ("self_s",)),
    ("weil.dump_matrix", ("total_s",)),
    ("qseries.theta_series", ("self_s",)),
    ("cusps.find_isotropic_planes", ("self_s",)),
    ("predict.main_term", ("total_s",)),
    ("predict.represents_on_coset", ("total_s",)),
    ("lattices.orthogonal_complement", ("total_s",)),
    ("cli.main", ("total_s",)),
)

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
              "p50_ms": "ms", "tail_ms": "ms", "tail_pct": "%"}

PER_LAYER = tuple(
    [(f"{fn}.{stat}", STAT_UNITS[stat]) for fn, stats in SPAN_STATS for stat in stats]
    + [
        ("hyperboloid.enumerate_points.points", "count"),
        ("hyperboloid.points_per_s", "1/s"),
        ("densities.exponents_per_density", "ratio"),
        ("densities.hist_cache.entries", "count"),
        ("densities.hist_cache.mb", "MB"),
        ("cli.stdout_bytes", "B"),
        ("process.cpu_s", "s"),
        ("process.trace_overhead_s", "s"),
        ("fail_frac", "fraction"),
    ])

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The span of this function also keeps the exact point count it returned.
COUNTED = "hyperboloid.enumerate_points"


class Recorder:
    """Spans of one command: [name, parent index, start, end, points]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counted = name == COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    span[4] = getattr(result, "count", None)
                return result
            finally:
                stack.pop()
                span[3] = clock()

        return traced


def install(targets=TARGETS) -> Recorder:
    """Wrap every target of the imported package; return the span recorder."""
    rec = Recorder()
    for module_name, fn_name in targets:
        name = f"{module_name}.{fn_name}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            rec.absent.append(name)
            continue
        original = getattr(module, fn_name, None)
        if not callable(original):
            rec.absent.append(name)
            continue
        wrapper = rec.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return rec


def hist_cache_stats() -> dict:
    """Entries and array megabytes held in the local-density histogram cache."""
    module = sys.modules.get(f"{PACKAGE}.densities")
    cache = getattr(module, "_hist_cache", None)
    if not isinstance(cache, dict):
        return {"entries": 0, "mb": 0.0}
    nbytes = sum(getattr(v, "nbytes", 0) for v in cache.values())
    return {"entries": len(cache), "mb": nbytes / 2 ** 20}


def _tail(durations_ms):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(durations_ms)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(durations_ms, n=1000, method="inclusive")
            return cut[round(pct * 10) - 1], pct
    return 0.0, 0.0


def _empty() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_ms": [], "points": 0}


def span_stats(spans) -> dict:
    """Per function: calls, total, self, durations and points of one command.

    total counts only spans with no enclosing span of the same function, so
    recursion is not counted twice; self subtracts direct traced children.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, parent, start, end, points) in enumerate(spans):
        st = out.setdefault(name, _empty())
        dur = end - start
        st["calls"] += 1
        st["self_s"] += dur - child_time[i]
        st["durations_ms"].append(dur * 1e3)
        st["points"] += points or 0
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            st["total_s"] += dur
    return out


def merge_stats(per_command) -> dict:
    """Sum the span statistics of the commands of one workload pass."""
    out: dict = {}
    for stats in per_command:
        for name, st in stats.items():
            acc = out.setdefault(name, _empty())
            for key in ("calls", "total_s", "self_s", "points"):
                acc[key] += st[key]
            acc["durations_ms"].extend(st["durations_ms"])
    return out


def layer_metrics(stats: dict, hist_caches, stdout_bytes: int) -> dict:
    """Per-layer values of one traced pass, without the process metrics."""
    values = {}
    empty = _empty()
    for fn, wanted in SPAN_STATS:
        st = stats.get(fn, empty)
        durations = st["durations_ms"]
        tail_ms, tail_pct = _tail(durations)
        derived = {"calls": st["calls"], "total_s": st["total_s"],
                   "self_s": st["self_s"],
                   "p50_ms": statistics.median(durations) if durations else 0.0,
                   "tail_ms": tail_ms, "tail_pct": tail_pct}
        for stat in wanted:
            values[f"{fn}.{stat}"] = derived[stat]
    enum = stats.get(COUNTED, empty)
    values["hyperboloid.enumerate_points.points"] = enum["points"]
    values["hyperboloid.points_per_s"] = (
        enum["points"] / enum["total_s"] if enum["total_s"] else 0.0)
    densities = stats.get("densities.local_density", empty)["calls"]
    splits = stats.get("densities.count_solutions_split", empty)["calls"]
    values["densities.exponents_per_density"] = splits / densities if densities else 0.0
    values["densities.hist_cache.entries"] = max((h["entries"] for h in hist_caches), default=0)
    values["densities.hist_cache.mb"] = max((h["mb"] for h in hist_caches), default=0.0)
    values["cli.stdout_bytes"] = stdout_bytes
    return values

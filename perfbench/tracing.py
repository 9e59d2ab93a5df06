"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of the library modules,
in every module namespace that binds it, with a wrapper that records a
span: name, start, end, parent span and pass id. ``capacity`` rebinds
names from ``outer`` and ``polytope``, ``inner`` from ``pmf`` and
``polytope``, and ``cli`` rebinds the entry points; all of them are
wrapped where they are looked up. ``uninstall`` puts the originals back.

Spans stay in memory while a pass runs; ``layer_metrics`` turns one
pass's spans into the per-layer metrics listed in ``LAYER_METRICS``.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("channel", "pmf", "inner", "polytope", "outer", "capacity")
NAMESPACES = ("cli",) + MODULES

# name, unit, better, the end-to-end metric it should move, workload(s)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "wall_s", "all, small"),
    ("cli.bytes_written", "bytes", "lower", "wall_s", "all"),
    ("channel.self_s", "s", "lower", "wall_s", "all"),
    ("channel.load_s", "s", "lower", "capacity_s/classify_s", "search-fixtures"),
    ("channel.classify_s", "s", "lower", "capacity_s/classify_s", "search-fixtures"),
    ("pmf.self_s", "s", "lower", "inner_s", "large-alphabet, inner-fixtures"),
    ("pmf.cmi_calls", "count", "lower", "inner_s", "large-alphabet, inner-fixtures"),
    ("pmf.cmi_s", "s", "lower", "inner_s", "large-alphabet, inner-fixtures"),
    ("pmf.joint_from_factors_s", "s", "lower", "inner_s", "large-alphabet, inner-fixtures"),
    ("pmf.joint_cells", "count", "lower", "inner_s", "large-alphabet, inner-fixtures"),
    ("inner.self_s", "s", "lower", "inner_s", "inner-fixtures"),
    ("inner.factorizations", "count", "lower", "inner_s", "inner-fixtures"),
    ("inner.admissible_ratio", "ratio", "higher", "inner_s", "inner-fixtures"),
    ("inner.sample_factorizations_s", "s", "lower", "inner_s", "inner-fixtures"),
    ("inner.region_for_distribution_self_s", "s", "lower", "inner_s", "inner-fixtures"),
    ("inner.union_vertices", "count", "higher", "inner_s", "inner-fixtures"),
    ("polytope.self_s", "s", "lower", "inner_s", "inner-fixtures"),
    ("polytope.project_to_plane_calls", "count", "lower", "inner_s", "inner-fixtures"),
    ("polytope.project_to_plane_s", "s", "lower", "inner_s", "inner-fixtures"),
    ("polytope.projected_rows", "count", "lower", "inner_s", "inner-fixtures"),
    ("polytope.polygon_extract_calls", "count", "lower", "inner_s/capacity_s", "inner-fixtures, search-fixtures"),
    ("polytope.polygon_extract_s", "s", "lower", "inner_s/capacity_s", "inner-fixtures, search-fixtures"),
    ("polytope.polygon_extract_rows_in", "count", "lower", "inner_s/capacity_s", "inner-fixtures, search-fixtures"),
    ("polytope.hull_union_s", "s", "lower", "inner_s/capacity_s", "inner-fixtures, search-fixtures"),
    ("outer.self_s", "s", "lower", "outer_s/capacity_s", "search-fixtures, large-alphabet"),
    ("outer.marginal_entropies_calls", "count", "lower", "outer_s/capacity_s", "search-fixtures, large-alphabet"),
    ("outer.marginal_entropies_s", "s", "lower", "outer_s/capacity_s", "search-fixtures, large-alphabet"),
    ("outer.marginal_entropies_bytes", "bytes", "lower", "outer_s/capacity_s", "search-fixtures, large-alphabet"),
    ("outer.marginal_entropies_bytes_per_call", "bytes", "lower", "outer_s/capacity_s", "search-fixtures, large-alphabet"),
    ("outer.ascent_calls", "count", "lower", "outer_s", "search-fixtures"),
    ("outer.ascent_self_s", "s", "lower", "outer_s", "search-fixtures"),
    ("outer.ascent_sweeps", "count", "lower", "outer_s", "search-fixtures"),
    ("outer.ascent_improved_ratio", "ratio", "higher", "outer_s", "search-fixtures"),
    ("capacity.self_s", "s", "lower", "capacity_s/classify_s", "search-fixtures"),
    ("capacity.falsify_s", "s", "lower", "classify_s/capacity_s", "search-fixtures"),
    ("capacity.falsify_rows", "count", "lower", "classify_s/capacity_s", "search-fixtures"),
    ("capacity.bounds_s", "s", "lower", "capacity_s", "search-fixtures"),
    ("capacity.regions_close_s", "s", "lower", "capacity_s", "search-fixtures"),
    ("trace.spans", "count", "lower", "none: tracing cost", "all"),
    ("trace.overhead_s", "s", "lower", "none: tracing cost", "all"),
)

# computed sizes attached to a span: (positional args, kwargs, result) -> number
_MEASURES = {
    "outer.marginal_entropies": lambda a, k, r: a[0].nbytes,
    "polytope.project_to_plane": lambda a, k, r: r.ineq_coefs.shape[0] + r.eq_coefs.shape[0],
    "polytope.polygon_extract": lambda a, k, r: a[0].ineq_coefs.shape[0] + a[0].eq_coefs.shape[0],
    "pmf.joint_from_factors": lambda a, k, r: r.probs.size,
    "inner.sample_factorizations": lambda a, k, r: len(r),
    "inner.inner_region": lambda a, k, r: len(r[0].vertices),
    "capacity.violation_gaps": lambda a, k, r: a[0].shape[0] if a[0].ndim == 7 else 1,
}

_ASCENT = "outer.ascent_refine"

# span fields
NAME, START, END, PARENT, PASS, EXTRA = range(6)


class Tracer:
    """Records spans of wrapped library calls; one instance per run."""

    def __init__(self):
        self.spans: list = []
        self.pass_id = -1
        self._stack: list = []
        self._saved: list = []

    def call(self, name: str, fn, args, kwargs, caller: str = ""):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.pass_id, None]
        self.spans.append(span)
        self._stack.append(index)
        ascent = None
        if name == _ASCENT:
            args, kwargs, ascent = self._count_evaluations(args, kwargs, caller)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if ascent is not None:
            span[EXTRA] = (ascent[0], result[0] > ascent[1])
        elif name in _MEASURES:
            span[EXTRA] = _MEASURES[name](args, kwargs, result)
        return result

    def _count_evaluations(self, args, kwargs, caller):
        """Wrap ascent_refine's evaluate argument to count sweeps."""
        state = [0, None]  # evaluations, first value
        evaluate = kwargs["evaluate"] if "evaluate" in kwargs else args[1]

        def counted(rows):
            values = self.call(f"{caller}.ascent_evaluate", evaluate, (rows,), {})
            if state[0] == 0:
                state[1] = float(values[0])
            state[0] += 1
            return values

        if "evaluate" in kwargs:
            kwargs = dict(kwargs, evaluate=counted)
        else:
            args = (args[0], counted) + tuple(args[2:])
        return args, kwargs, state

    def _wrapper(self, name: str, fn, caller: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, caller)
        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"cifc_udc.{m}") for m in NAMESPACES}
        originals = {}
        for short in MODULES:
            mod = modules[short]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[fn] = f"{short}.{attr}"
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrapper(originals[value], value, short))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass, from its spans.

    ``*_s`` without ``self`` is the inclusive time of the outermost calls
    of that function; ``*.self_s`` sums the self time of a module's spans
    (an ``ascent_evaluate`` span belongs to the module whose closure it
    times). Ratios whose base is zero, and layers the pass never entered,
    read 0.
    """
    n = len(spans)
    dur, covered = _durations(spans)
    by_name = defaultdict(list)
    module_self = defaultdict(float)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        module_self[s[NAME].split(".")[0]] += dur[i] - covered[i]

    def has_ancestor(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def inclusive(*names):
        return sum(
            (dur[i] for name in names for i in by_name[name]
             if not has_ancestor(i, names)),
            0.0,
        )

    def self_time(name):
        return sum((dur[i] - covered[i] for i in by_name[name]), 0.0)

    def calls(name):
        return len(by_name[name])

    def extra(name, where=None):
        # a call that raised carries no size
        return sum(
            spans[i][EXTRA] or 0 for i in by_name[name]
            if where is None or has_ancestor(i, where)
        )

    def ratio(num, den):
        return num / den if den else 0.0

    ascents = [spans[i][EXTRA] for i in by_name[_ASCENT] if spans[i][EXTRA]]
    entropy_calls = calls("outer.marginal_entropies")
    entropy_bytes = extra("outer.marginal_entropies")
    factorizations = extra("inner.sample_factorizations")
    out = {f"{m}.self_s": module_self[m] for m in NAMESPACES}
    out.update({
        "channel.load_s": inclusive("channel.load_channel"),
        "channel.classify_s": inclusive("channel.classify"),
        "pmf.cmi_calls": calls("pmf.conditional_mutual_information"),
        "pmf.cmi_s": inclusive("pmf.conditional_mutual_information"),
        "pmf.joint_from_factors_s": inclusive("pmf.joint_from_factors"),
        "pmf.joint_cells": extra("pmf.joint_from_factors"),
        "inner.factorizations": factorizations,
        "inner.admissible_ratio": ratio(calls("inner.region_for_distribution"), factorizations),
        "inner.sample_factorizations_s": inclusive("inner.sample_factorizations"),
        "inner.region_for_distribution_self_s": self_time("inner.region_for_distribution"),
        "inner.union_vertices": extra("inner.inner_region"),
        "polytope.project_to_plane_calls": calls("polytope.project_to_plane"),
        "polytope.project_to_plane_s": inclusive("polytope.project_to_plane"),
        "polytope.projected_rows": extra("polytope.project_to_plane"),
        "polytope.polygon_extract_calls": calls("polytope.polygon_extract"),
        "polytope.polygon_extract_s": inclusive("polytope.polygon_extract"),
        "polytope.polygon_extract_rows_in": extra("polytope.polygon_extract"),
        "polytope.hull_union_s": inclusive("polytope.hull_union"),
        "outer.marginal_entropies_calls": entropy_calls,
        "outer.marginal_entropies_s": inclusive("outer.marginal_entropies"),
        "outer.marginal_entropies_bytes": entropy_bytes,
        "outer.marginal_entropies_bytes_per_call": ratio(entropy_bytes, entropy_calls),
        "outer.ascent_calls": len(ascents),
        "outer.ascent_self_s": self_time(_ASCENT),
        "outer.ascent_sweeps": sum(a[0] for a in ascents),
        "outer.ascent_improved_ratio": ratio(sum(a[1] for a in ascents), len(ascents)),
        "capacity.falsify_s": inclusive("capacity.hi_regime_falsify"),
        "capacity.falsify_rows": extra("capacity.violation_gaps", {"capacity.hi_regime_falsify"}),
        "capacity.bounds_s": inclusive(
            "capacity.degraded_z_bounds", "capacity.semidet_hi_bounds",
            "capacity.violation_gaps",
        ),
        "capacity.regions_close_s": inclusive("polytope.regions_close"),
        "trace.spans": n,
    })
    return out


def _durations(spans: list):
    """Each span's duration and the part of it its children cover."""
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    return dur, covered


def function_self_times(spans: list) -> dict:
    """Self time per span name, for the report's ranking."""
    dur, covered = _durations(spans)
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME]] += dur[i] - covered[i]
    return dict(out)

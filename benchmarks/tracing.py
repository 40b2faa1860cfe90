"""Span tracer for the traced run, with spans recorded from outside the package.

``traced_package`` replaces each public layer function, in every misbounds
module that holds a reference to it, by a wrapper that opens a span around the
call. Calls between modules (cli -> report -> tv_bounds, entropy, ...) are
therefore traced as the package makes them, parented to the span that was open
when they started. Spans are aggregated in memory by name as they close
(calls, busy time, self time and per-layer counts), which keeps memory flat on
runs of 10^5 ops; they are reported when the run ends. Tracing inside the
package is left for a later change.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (misbounds module, the public callables it covers)
LAYERS = {
    "model.validate_joint": ("model", ("validate_joint",)),
    "bayes.bayes_error": ("bayes", ("bayes_error",)),
    "bayes.brute_force_bayes_error": ("bayes", ("brute_force_bayes_error",)),
    "tv_bounds.delta": ("tv_bounds", ("delta",)),
    "tv_bounds.delta_of_profile": ("tv_bounds", ("delta_of_profile",)),
    "tv_bounds.envelopes": ("tv_bounds", ("lower_bound", "upper_bound", "upper_bound_simpl")),
    "tv_bounds.simplex_grid_oracle": ("tv_bounds", ("simplex_grid_oracle",)),
    "entropy.conditional_entropy": ("entropy", ("conditional_entropy",)),
    "entropy.entropy_of_profile": ("entropy", ("entropy_of_profile",)),
    "entropy.lower_fm": ("entropy", ("lower_fm",)),
    "entropy.upper_fm": ("entropy", ("upper_fm",)),
    "families.profile": (
        "families",
        ("binomial_profile", "exponential_profile", "three_class_profile", "comp_lo_profile", "comp_hi_profile"),
    ),
    "report.BoundsReport": ("report", ("BoundsReport.from_model", "BoundsReport.from_profile")),
    "report.rows": ("report", ("fig1_rows", "fig2_rows", "fig3_rows", "compare_lo_rows", "compare_hi_scan")),
    "report.rows_to_csv": ("report", ("rows_to_csv",)),
    "cli.main": ("cli", ("main",)),
}

# span name -> counts taken from a call's arguments and result.
# temp_bytes is the size of the k x k x n float64 pairwise tensor, computed, not measured.
COUNTS = {
    "tv_bounds.delta": lambda args, out: {"temp_bytes": args[0].k ** 2 * args[0].n * 8},
    "tv_bounds.delta_of_profile": lambda args, out: {"temp_bytes": args[0].k ** 2 * 8},
    "bayes.brute_force_bayes_error": lambda args, out: {"rules": args[0].k ** args[0].n},
    "tv_bounds.simplex_grid_oracle": lambda args, out: {
        "profiles": out.checked,
        "violations": len(out.violations),
    },
    "report.rows_to_csv": lambda args, out: {"bytes": len(out.encode())},
}

# Every per-layer metric of the traced run, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = [
    ("model.validate_joint.calls", "count", "higher"),
    ("model.validate_joint.busy_s", "s", "lower"),
    ("bayes.bayes_error.calls", "count", "higher"),
    ("bayes.bayes_error.busy_s", "s", "lower"),
    ("bayes.brute_force_bayes_error.calls", "count", "higher"),
    ("bayes.brute_force_bayes_error.busy_s", "s", "lower"),
    ("bayes.brute_force_bayes_error.rules", "count", "higher"),
    ("tv_bounds.delta.calls", "count", "higher"),
    ("tv_bounds.delta.busy_s", "s", "lower"),
    ("tv_bounds.delta.temp_bytes", "bytes_computed", "lower"),
    ("tv_bounds.delta_of_profile.calls", "count", "higher"),
    ("tv_bounds.delta_of_profile.busy_s", "s", "lower"),
    ("tv_bounds.delta_of_profile.temp_bytes", "bytes_computed", "lower"),
    ("tv_bounds.envelopes.calls", "count", "higher"),
    ("tv_bounds.envelopes.busy_s", "s", "lower"),
    ("tv_bounds.simplex_grid_oracle.calls", "count", "higher"),
    ("tv_bounds.simplex_grid_oracle.busy_s", "s", "lower"),
    ("tv_bounds.simplex_grid_oracle.profiles", "count", "higher"),
    ("tv_bounds.simplex_grid_oracle.violations", "count", "lower"),
    ("entropy.conditional_entropy.calls", "count", "higher"),
    ("entropy.conditional_entropy.busy_s", "s", "lower"),
    ("entropy.entropy_of_profile.calls", "count", "higher"),
    ("entropy.entropy_of_profile.busy_s", "s", "lower"),
    ("entropy.lower_fm.calls", "count", "higher"),
    ("entropy.lower_fm.busy_s", "s", "lower"),
    ("entropy.upper_fm.calls", "count", "higher"),
    ("entropy.upper_fm.busy_s", "s", "lower"),
    ("families.profile.calls", "count", "higher"),
    ("families.profile.busy_s", "s", "lower"),
    ("report.BoundsReport.calls", "count", "higher"),
    ("report.BoundsReport.self_s", "s", "lower"),
    ("report.rows.calls", "count", "higher"),
    ("report.rows.self_s", "s", "lower"),
    ("report.rows_to_csv.calls", "count", "higher"),
    ("report.rows_to_csv.busy_s", "s", "lower"),
    ("report.rows_to_csv.bytes", "bytes", "higher"),
    ("cli.main.calls", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("report.bound_factor2_violations", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


class Tracer:
    """Aggregates spans by name: calls, busy time, self time and counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_time = []  # one entry per open span: time its children took

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span parented to the span that is open."""
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            took = perf_counter() - start
            children = self._child_time.pop()
            self.calls[name] += 1
            self.busy[name] += took
            self.self_time[name] += took - children
            if self._child_time:
                self._child_time[-1] += took
        if count is not None:
            for key, value in count(args, out).items():
                self.counts[f"{name}.{key}"] += value
        return out

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def metric(self, name: str):
        """Value of a `<span>.<field>` metric; fields other than calls/busy_s/self_s are counts."""
        span, field = name.rsplit(".", 1)
        if field == "calls":
            return self.calls[span]
        if field == "busy_s":
            return self.busy[span]
        if field == "self_s":
            return self.self_time[span]
        return self.counts[name]

    def top_self(self, exclude=("op",)) -> str | None:
        """The span name with the largest self time."""
        names = [n for n in self.self_time if n not in exclude]
        return max(names, key=self.self_time.__getitem__) if names else None


@contextmanager
def traced_package(tracer: Tracer):
    """Route every LAYERS callable through ``tracer`` for the duration of the block."""
    layer_modules = {name: importlib.import_module(f"misbounds.{name}") for name, _ in LAYERS.values()}
    modules = [m for name, m in list(sys.modules.items()) if name == "misbounds" or name.startswith("misbounds.")]
    undo = []
    try:
        for span, (module_name, attrs) in LAYERS.items():
            module = layer_modules[module_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    undo.append((cls, method, raw))
                    setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
                    continue
                original = getattr(module, attr)
                wrapper = tracer.wrap(span, original)
                holders = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
                for holder, key in holders:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

"""Spans and counters around cavsim layer functions, installed from outside.

Each layer function is replaced, for the traced passes only, at the name its
caller looks up (``entanglement.partial_trace`` rather than
``hilbert.partial_trace``, because ``entanglement`` imported the name), so the
program under ``src/`` is not modified.  Spans are kept in memory and reduced to
per-layer metrics when the run ends: ``calls``, ``busy_s`` (span time) and
``self_s`` (span time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (object path under cavsim, attribute the caller looks up, metric prefix,
#  metrics reported for the span)
LAYERS = (
    ("evolution", "branch_step", "evolution.branch_step", ("calls", "self_s")),
    ("evolution", "branch_densify", "evolution.branch_densify", ("calls", "self_s")),
    ("evolution", "stage_step", "evolution.stage_step", ("calls", "self_s")),
    ("evolution", "dissipative_map", "evolution.dissipative_map", ("calls", "self_s")),
    ("evolution.Trajectory", "records", "evolution.Trajectory.records", ("calls", "busy_s")),
    (
        "entanglement",
        "pairwise_concurrences",
        "entanglement.pairwise_concurrences",
        ("calls", "self_s"),
    ),
    (
        "entanglement",
        "effective_two_qubit",
        "entanglement.effective_two_qubit",
        ("calls", "self_s"),
    ),
    (
        "entanglement",
        "wootters_concurrence",
        "entanglement.wootters_concurrence",
        ("calls", "self_s"),
    ),
    ("entanglement", "partial_trace", "hilbert.partial_trace", ("calls", "self_s")),
    ("lindblad", "run_oracle", "lindblad.run_oracle", ("busy_s",)),
    ("validation", "trace_distance", "hilbert.trace_distance", ("calls", "self_s")),
    ("analytic", "rho_stage1", "analytic.rho_stage1", ("calls", "self_s")),
    ("cli", "write_records", "cli.write_records", ("calls", "busy_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# Counters read from private integrator hooks.  ``_advance`` returns
# (rho, max drift, accepted steps); every step attempt makes three ``_rk4``
# calls (one full step, two half steps).  If a hook disappears its metrics are
# left out rather than failing the run.
ADVANCE_HOOK = ("lindblad", "_advance")
RK4_HOOK = ("lindblad", "_rk4")
RK4_CALLS_PER_ATTEMPT = 3

EXTRA_UNITS = {
    "evolution.dissipative_map.mb_computed": "MB",
    "lindblad.accepted_steps": "count",
    "lindblad.step_attempts": "count",
    "lindblad.accept_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {
        f"{prefix}.{stat}": UNITS[stat] for _, _, prefix, stats in LAYERS for stat in stats
    }
    units.update(EXTRA_UNITS)
    return units


def _resolve(path: str):
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"cavsim.{module}")
    return getattr(obj, attr) if attr else obj


def _dissipative_mb(args) -> float:
    """Computed traffic of one dissipative map: read and write D^2 complex128."""
    dim = args[0].dim
    return 2 * 16 * dim * dim / 1e6


class Tracer:
    """Installs spans around the layer functions and reduces them to metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.hooks: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, fn, name, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _counter(self, fn, on_return):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(args, result)
            return result

        return counted

    def _patch(self, path, attr, make):
        obj = _resolve(path)
        fn = getattr(obj, attr, None)
        if fn is None:
            return False
        self._saved.append((obj, attr, fn))
        setattr(obj, attr, make(fn))
        return True

    def install(self) -> None:
        counts = self.counts

        def count_traffic(args, _result):
            counts["evolution.dissipative_map.mb_computed"] += _dissipative_mb(args)

        for path, attr, name, _ in LAYERS:
            cb = count_traffic if name == "evolution.dissipative_map" else None
            self._patch(path, attr, lambda fn, name=name, cb=cb: self._span(fn, name, cb))

        def on_advance(_args, result):
            if isinstance(result, tuple) and len(result) == 3:
                counts["lindblad.accepted_steps"] += result[2]
            else:
                self.hooks.discard("advance")

        def on_rk4(_args, _result):
            counts["rk4_calls"] += 1

        if self._patch(*ADVANCE_HOOK, lambda fn: self._counter(fn, on_advance)):
            self.hooks.add("advance")
        if self._patch(*RK4_HOOK, lambda fn: self._counter(fn, on_rk4)):
            self.hooks.add("rk4")

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of every layer metric over ``passes`` traced passes."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        child = [0.0] * len(self.spans)
        # children are appended after their parent, so walking backwards
        # completes each span's child time before the span itself is reduced
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            own[name] += dur - child[idx]
            if parent >= 0:
                child[parent] += dur
        by_stat = {"calls": calls, "busy_s": busy, "self_s": own}
        out = {
            f"{prefix}.{stat}": by_stat[stat][prefix] / passes
            for _, _, prefix, stats in LAYERS
            for stat in stats
        }
        out["evolution.dissipative_map.mb_computed"] = (
            self.counts["evolution.dissipative_map.mb_computed"] / passes
        )
        accepted = self.counts["lindblad.accepted_steps"] / passes
        attempts = self.counts["rk4_calls"] / RK4_CALLS_PER_ATTEMPT / passes
        if "advance" in self.hooks:
            out["lindblad.accepted_steps"] = accepted
        if "rk4" in self.hooks:
            out["lindblad.step_attempts"] = attempts
        if {"advance", "rk4"} <= self.hooks:
            # 0 when the workload makes no integrator step
            out["lindblad.accept_ratio"] = accepted / attempts if attempts else 0.0
        return out

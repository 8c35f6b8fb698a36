"""Per-layer tracing for the absorbctl benchmark, applied from outside the
program.

``traced(tracer)`` wraps the public functions and methods at each module
boundary for the duration of a ``with`` block and restores them afterwards.
Names are patched where they are looked up, not where they are defined:
``simulator`` imports ``integrate_span``, ``observer_correction`` and
``hold_control`` by name, ``controller`` imports ``euler_predict``, ``cli``
imports the example constructor and the checks, and ``observer_correction`` reaches
``damping_term`` through its module global.  History methods are patched on
their classes, and the planar callables are wrapped on the objects that
``build_planar_example`` returns.

Spans nest; a span's self time is its duration minus the durations of the
spans it directly encloses.  Spans are aggregated in memory per name (calls,
inclusive and self time, calls per enclosing span) rather than stored one by
one, because a default ``simulate`` run opens well over a million of them.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# report names of the six sampled checks that ``absorbctl verify`` runs
CHECK_NAMES = ("absorbing_dissipation", "local_controller", "observer_contraction",
               "observer_growth_bound", "corrected_contraction", "corrected_dissipation")
_CLI_CHECKS = ("check_absorbing_dissipation", "check_local_controller",
               "check_observer_contraction", "check_growth_bound",
               "check_corrected_contraction", "check_corrected_dissipation")
_PLANT_CALLABLES = ("f", "h", "jac_h")
_ASSUMPTION_CALLABLES = ("lyapunov", "grad_lyapunov")


class Tracer:
    """Span and event aggregates for one traced command."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls_under = defaultdict(int)   # (span, enclosing span) -> calls
        self.events = defaultdict(int)        # substeps, rows, segments
        self.durations = defaultdict(list)    # per-call durations of kept spans
        self.checks = {}                      # report name -> (seconds, tested, skipped)
        self._stack = []

    def wrap(self, name, fn, before=None, after=None, keep=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before`` sees the call's arguments, ``after`` the result and the
        span's duration; ``keep`` stores every duration of this span.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.calls_under[name, parent] += 1
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[1]
                if keep:
                    self.durations[name].append(dt)
            if after is not None:
                after(result, dt)
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def self_seconds(self, prefix: str) -> float:
        return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)

    def mean_us(self, name: str) -> float:
        return 1e6 * self.inclusive[name] / self.calls[name] if self.calls[name] else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics of the traced command as ``name -> (value, unit)``.

        A layer the command never entered reads 0.
        """
        calls = self.calls
        holds = sorted(self.durations["controller.hold"])
        substeps = self.events["substeps"]
        predictions = calls["predictor.euler_predict"]
        out = {
            "observer.correction_calls": (calls["observer.correction"], "count"),
            "observer.correction_us": (self.mean_us("observer.correction"), "us"),
            "observer.damping_frac": (_ratio(calls["observer.damping"],
                                             calls["observer.correction"]), "ratio"),
            "observer.self_s": (self.self_seconds("observer."), "s"),
        }
        for attr in _PLANT_CALLABLES + _ASSUMPTION_CALLABLES:
            out[f"planar.{attr}_calls"] = (calls[f"planar.{attr}"], "count")
        out.update({
            "planar.self_s": (self.self_seconds("planar."), "s"),
            "rk4.substeps": (substeps, "count"),
            "rk4.us_per_substep": (_ratio(1e6 * self.inclusive["rk4.integrate_span"],
                                          substeps), "us"),
            "rk4.span_self_s": (self.self_seconds("rk4."), "s"),
            "predictor.calls": (predictions, "count"),
            "predictor.us_per_call": (self.mean_us("predictor.euler_predict"), "us"),
            "predictor.f_evals_per_call": (_ratio(
                self.calls_under["planar.f", "predictor.euler_predict"], predictions),
                "count"),
            "predictor.self_s": (self.self_seconds("predictor."), "s"),
            "controller.holds": (len(holds), "count"),
            "controller.hold_us_p50": (1e6 * statistics.median(holds) if holds else 0.0,
                                       "us"),
            "controller.hold_us_p99": (1e6 * _nearest_rank(holds, 0.99), "us"),
            "model.state_appends": (calls["model.state_append"], "count"),
            "model.sup_norm_calls": (calls["model.sup_norm"], "count"),
            "model.sup_norm_us": (self.mean_us("model.sup_norm"), "us"),
            "model.sup_abs_calls": (calls["model.sup_abs"], "count"),
            "model.sup_abs_us": (self.mean_us("model.sup_abs"), "us"),
            "model.segments_scanned": (self.events["segments"], "count"),
            "model.write_csv_s": (self.inclusive["model.write_csv"], "s"),
            "model.self_s": (self.self_seconds("model."), "s"),
            "simulator.rows": (self.events["rows"], "count"),
            "simulator.self_s": (self.self_seconds("simulator."), "s"),
            "simulator.summary_s": (self.inclusive["simulator.run_summary"], "s"),
            "verification.sublevel_box_s": (self.inclusive["verification.sublevel_box"],
                                             "s"),
        })
        for check in CHECK_NAMES:
            seconds, tested, skipped = self.checks.get(check, (0.0, 0, 0))
            drawn = tested + skipped
            out[f"verification.{check}.wall_s"] = (seconds, "s")
            out[f"verification.{check}.tested"] = (tested, "count")
            out[f"verification.{check}.skipped"] = (skipped, "count")
            out[f"verification.{check}.accept_ratio"] = (_ratio(tested, drawn), "ratio")
            out[f"verification.{check}.us_per_candidate"] = (_ratio(1e6 * seconds, drawn),
                                                             "us")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _nearest_rank(ordered: list, q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every layer boundary in ``tracer`` spans until the block exits."""
    from absorbctl import cli, controller, model, observer, simulator, verification

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, **hooks):
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], **hooks))

    def count_substeps(_rhs, t0, t1, _y0, dt_max, on_node=None):
        if t1 > t0:
            tracer.events["substeps"] += max(1, math.ceil((t1 - t0) / dt_max))

    def count_rows(traj, _dt):
        tracer.events["rows"] += traj.t.size

    def record_check(report, dt):
        tracer.checks[report.name] = (dt, report.points_tested, report.skipped)

    build_planar_example = cli.build_planar_example

    def build_traced_planar(*args, **kwargs):
        plant, assm, fn = build_planar_example(*args, **kwargs)
        # swapped after construction so the constructor's validation calls
        # stay uncounted; the objects are fresh for every command
        for owner, attrs in ((plant, _PLANT_CALLABLES), (assm, _ASSUMPTION_CALLABLES)):
            for attr in attrs:
                object.__setattr__(owner, attr,
                                   tracer.wrap(f"planar.{attr}", getattr(owner, attr)))
        return plant, assm, fn

    iter_segments = model.InputHistory.iter_segments

    def count_segments(hist, t0, t1):
        for piece in iter_segments(hist, t0, t1):
            tracer.events["segments"] += 1
            yield piece

    try:
        patch(cli, "build_planar_example", build_traced_planar)
        span(cli, "simulate_closed_loop", "simulator.simulate_closed_loop",
             after=count_rows)
        span(cli, "run_summary", "simulator.run_summary")
        for attr in _CLI_CHECKS:
            span(cli, attr, "verification.check", after=record_check)
        span(verification, "sublevel_box", "verification.sublevel_box")
        span(verification, "observer_correction", "observer.correction")
        span(simulator, "observer_correction", "observer.correction")
        span(observer, "damping_term", "observer.damping")
        span(simulator, "integrate_span", "rk4.integrate_span", before=count_substeps)
        span(simulator, "hold_control", "controller.hold", keep=True)
        span(controller, "euler_predict", "predictor.euler_predict")
        span(model.StateHistory, "append", "model.state_append")
        span(model.StateHistory, "sup_norm", "model.sup_norm")
        span(model.InputHistory, "sup_abs", "model.sup_abs")
        span(model.Trajectory, "write_csv", "model.write_csv")
        patch(model.InputHistory, "iter_segments", count_segments)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

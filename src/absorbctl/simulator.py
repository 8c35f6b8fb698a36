"""Closed-loop simulation of the sampled, delayed plant with its observer,
inter-sample output predictor, and held predictor-based control.

The run is event driven: between events the coupled states integrate with
fixed-step RK4, and the event set is built so that no span straddles a
discontinuity.  Events are measurement times (reset of the inter-sample
state), hold times (a new input segment), recording instants, and the
delayed images of every input switching time (pure integration-alignment
nodes).  Coincident events are grouped and applied in a fixed order:
measurement reset, then hold update, then recording.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .controller import hold_control
from .errors import ConfigurationError, InsufficientDataError, NonFiniteError
from .kernels import loop_kernels
from .model import (MAX_STEPS, AssumptionData, InputHistory, PlantModel, SamplingPartition,
                    SimConfig, StateHistory, Trajectory, check_count)
from .observer import observer_correction
from .rk4 import integrate_span

__all__ = [
    "InitialData",
    "TuneResult",
    "generate_partition",
    "simulate_closed_loop",
    "fit_decay_rate",
    "run_summary",
    "sweep",
    "pilot_tune",
]

_EVENT_ATOL = 1e-12
_NORM_FLOOR = 1e-300
_NORM_BLOCK = 512  # rows whose composite norms one vectorized pass fills
DECAY_RATIO = 1e-3  # terminal-to-initial composite norm ratio a run must reach

# bits of a group's kinds, in action order (reset, hold, record); breaks only align spans
_SAMPLE, _HOLD, _RECORD, _BREAK = 1, 2, 4, 8


@dataclass(frozen=True)
class InitialData:
    """Initial data for a closed-loop run.

    ``x0`` is either a single state (constant history on ``[-r, 0]``) or a
    pair ``(times, states)`` of sequences sampling that interval with
    ``times[0] = -r`` and ``times[-1] = 0``.  ``u0_segments`` are
    ``(t_start, value)`` pairs covering ``[-r-tau, 0)``; values must lie in
    the input box.  The inter-sample output state takes no initial value:
    the schedule begins with a measurement at time 0, whose reset sets it.
    """

    x0: object
    z0: np.ndarray
    u0_segments: Sequence[tuple[float, Sequence[float]]] = ()

    def __post_init__(self):
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=float).reshape(-1))
        if isinstance(self.x0, tuple) and len(self.x0) == 2 and np.ndim(self.x0[0]) == 1:
            times = np.asarray(self.x0[0], dtype=float).reshape(-1)
            states = np.atleast_2d(np.asarray(self.x0[1], dtype=float))
            if times.size != states.shape[0]:
                raise ConfigurationError("x0 table times and states disagree in length")
            object.__setattr__(self, "x0", (times, states))
        else:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        object.__setattr__(self, "u0_segments", tuple(
            (float(t), np.asarray(v, dtype=float).reshape(-1)) for t, v in self.u0_segments
        ))

    def histories(self, plant: PlantModel) -> tuple[StateHistory, InputHistory]:
        """The plant history on ``[-r, 0]`` and the applied-input record on
        ``[-r-tau, 0)``, empty when delay-free: the one place a run's initial
        data is checked, and the one builder of its records.

        Raises ConfigurationError unless every value and time is finite,
        ``x0`` and ``z0`` have the plant's dimension and every segment value
        its input dimension, an ``x0`` table covers exactly ``[-r, 0]``, the
        first segment starts at ``-(r + tau)`` and every one before 0 with a
        value in the input box, and ``r = tau = 0`` comes with no segments.
        """
        r, window, box = plant.r, plant.delay_window, plant.input_box
        if isinstance(self.x0, tuple):
            times, states = self.x0
        else:  # a constant history is the table of x0 at -r and 0
            times = [0.0] if r == 0.0 else [-r, 0.0]
            states = np.array([self.x0] * len(times))
        if states.shape[-1] != plant.n or self.z0.size != plant.n:
            raise ConfigurationError(f"x0 and z0 need {plant.n} components, got "
                                     f"{states.shape[-1]} and {self.z0.size}")
        if any(v.size != plant.m for _t, v in self.u0_segments):
            raise ConfigurationError(
                f"u0_segments values must have the input dimension {plant.m}")
        values = [times, states, self.z0, [t for t, _v in self.u0_segments],
                  *(v for _t, v in self.u0_segments)]
        if not all(np.isfinite(v).all() for v in values):
            raise ConfigurationError("initial data must be finite")
        if abs(times[0] + r) > _EVENT_ATOL or abs(times[-1]) > _EVENT_ATOL:
            raise ConfigurationError("x0 table must cover exactly [-r, 0]")
        xhist = StateHistory()  # the end times snap onto -r and 0
        xhist.append([-r, *times[1:-1], 0.0] if len(times) > 1 else [0.0], states)

        uhist = InputHistory(0.0 - window)  # 0.0, not -0.0, when delay-free
        if window == 0.0:
            if self.u0_segments:
                raise ConfigurationError("u0_segments must be empty when r = tau = 0")
            return xhist, uhist
        for i, (t, v) in enumerate(self.u0_segments or [(-window, np.zeros(plant.m))]):
            if i == 0:
                if abs(t + window) > _EVENT_ATOL:
                    raise ConfigurationError("first u0 segment must start at -(r + tau)")
                t = -window
            if t >= 0.0:
                raise ConfigurationError("u0 segments must start before time 0")
            if np.any(v < box[:, 0]) or np.any(v > box[:, 1]):
                raise ConfigurationError("u0 segment value outside the input box")
            uhist.append(t, v)
        uhist.advance(0.0)
        return xhist, uhist


def generate_partition(T_s: float, horizon: float, seed: int,
                       min_frac: float = 0.5) -> SamplingPartition:
    """Seeded measurement schedule: gaps uniform on [min_frac*T_s, T_s],
    first time 0, last time >= horizon."""
    if not (0.0 < T_s < math.inf and 0.0 < horizon < math.inf):
        raise ConfigurationError("T_s and horizon must be positive and finite")
    if horizon / T_s > MAX_STEPS:
        raise ConfigurationError(f"horizon/T_s must be at most {MAX_STEPS}")
    if not (0.0 < min_frac <= 1.0):
        raise ConfigurationError("min_frac must lie in (0, 1]")
    check_count("seed", seed, 0)
    if min_frac == 1.0:
        # exact uniform grid; accumulation would drift past the point count
        n_gaps = math.ceil(horizon / T_s)
        times = np.arange(n_gaps + 1, dtype=float) * T_s
        while times[-1] < horizon:
            times = np.append(times, times[-1] + T_s)
        return SamplingPartition(times, T_s)
    # chunks sized from the mean gap, summed on from the last time: consecutive
    # draws continue one stream (the per-gap loop's bits); memory follows the samples
    rng = np.random.default_rng(seed)
    mean_gap = 0.5 * (1.0 + min_frac) * T_s
    chunks = [[0.0]]
    while (t_last := chunks[-1][-1]) < horizon:
        gaps = rng.uniform(min_frac * T_s, T_s, size=math.ceil((horizon - t_last) / mean_gap) + 16)
        chunks.append(np.add.accumulate(np.concatenate(([t_last], gaps)))[1:])
    times = np.concatenate(chunks)
    return SamplingPartition(times[:np.searchsorted(times, horizon) + 1], T_s)


def _grid(step: float, horizon: float) -> list[float]:
    """The times ``j * step``, j = 0, 1, ..., up to ``horizon`` (within _EVENT_ATOL)."""
    times = []
    while (t := len(times) * step) <= horizon + _EVENT_ATOL:
        times.append(t)
    return times


def _event_groups(partition: SamplingPartition, config: SimConfig,
                  plant: PlantModel, init_starts: Sequence[float]) -> tuple[array, bytearray]:
    """Flat ``(times, kinds)``: each group's first time and the or of its events' kind bits."""
    horizon = config.horizon
    hold_times = _grid(config.T_H, horizon)
    record_times = _grid(config.record_dt, horizon)
    if abs(record_times[-1] - horizon) > _EVENT_ATOL:
        record_times.append(horizon)
    # delayed images of every input switch: where u(t - tau) and
    # u(t - r - tau) jump inside the plant and observer equations; at a zero
    # delay the image is the hold time itself, already an event
    switches = np.array([*init_starts, *hold_times])
    images = np.concatenate([switches + plant.tau, switches + plant.delay_window])
    parts = {_SAMPLE: partition.times[partition.times <= horizon + _EVENT_ATOL],
             _HOLD: hold_times, _RECORD: record_times,
             _BREAK: images[(images > _EVENT_ATOL) & (images <= horizon + _EVENT_ATOL)]}
    event_times = np.concatenate(list(parts.values()))
    event_kinds = np.repeat(np.array(list(parts), np.uint8), [len(p) for p in parts.values()])
    order = np.lexsort((event_kinds, event_times))  # by time, then kind
    times, kinds = array("d"), bytearray()
    # a memoryview and bytes hand out one float and int at a time: no list per event
    for t, kind in zip(memoryview(event_times[order]), event_kinds[order].tobytes()):
        if times and t - times[-1] <= _EVENT_ATOL:
            kinds[-1] |= kind
        else:
            times.append(t)
            kinds.append(kind)
    return times, kinds


def _fill_norms(rows: array, width: int, first: int, xhist: StateHistory,
                uhist: InputHistory, plant: PlantModel) -> None:
    """Write ``|x|_[t-r, t] + |z(t)| + |u|_[t-r-tau, t)``, added in that order, into the
    norm slot of each row of ``rows`` (``width`` floats a row) from row ``first`` on;
    NonFiniteError names the first of these rows whose norm is not finite."""
    block = np.frombuffer(rows).reshape(-1, width)[first:]  # released on return
    t, z = block[:, 0], block[:, 1 + plant.n:1 + 2 * plant.n]
    block[:, -1] = norm = (xhist.sup_norm(t - plant.r, t) + np.sqrt(np.vecdot(z, z))
                           + uhist.sup_abs(t - plant.delay_window, t))
    if not np.isfinite(norm).all():
        raise NonFiniteError(f"composite norm not finite at t={t[~np.isfinite(norm)][0].item()!r}")


def simulate_closed_loop(plant: PlantModel, assm: AssumptionData,
                         partition: SamplingPartition, config: SimConfig,
                         init: InitialData) -> Trajectory:
    """Run the full loop over ``[0, horizon]`` and record a trajectory.

    Rows are written at every measurement, hold, and recording instant
    (once per instant when they coincide, after all actions at it); their
    composite norms are filled ``_NORM_BLOCK`` rows at a time and at the end.
    A state that is not finite at the end of a span raises ``NonFiniteError``,
    as do an ``OverflowError`` from a callable on a span or at a hold and a
    row whose composite norm is not finite; the rows written before any
    error are filled first, so the earliest such row is the one named.
    """
    assm.check_dimensions(plant)
    xhist, uhist = init.histories(plant)
    if partition.times[-1] < config.horizon - _EVENT_ATOL:
        raise ConfigurationError("partition must cover the simulation horizon")
    n = plant.n
    groups = _event_groups(partition, config, plant, uhist.starts)
    rk4_span = loop_kernels(n, plant.k_out).rk4_span

    # w is set by the reset at the measurement every partition begins with at t = 0
    Y = [*xhist.value(0.0), *init.z0.tolist(), *[0.0] * plant.k_out]
    # flat float64 buffers: rows (t, x, z, w, u, Vx, Vz, norm), the CSV's order; resets (t, y)
    rows, resets = array("d"), array("d")

    t_cur = 0.0
    width = len(Y) + plant.m + 4
    filled = 0  # rows whose norm slot is written
    # a runaway state gives inf or nan, caught after each span, or Python's
    # OverflowError on a span or at a hold: both end in NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for t_g, kinds in zip(*groups):
                if t_g > t_cur:
                    uhist.advance(t_g)
                    # span constants queried at the midpoint: the event set keeps
                    # every switch of u(. - tau) and u(. - r - tau) out of the open span
                    t_mid = t_cur + 0.5 * (t_g - t_cur)
                    u_plant = uhist.value(t_mid - plant.tau)
                    u_obs = uhist.value(t_mid - plant.delay_window)
                    # outside the absorbing set the span calls observer_correction
                    span = rk4_span(plant, assm, observer_correction, u_plant, u_obs)
                    Y, times, nodes = integrate_span(span, t_cur, t_g, Y, config.dt_max)
                    if not all(map(math.isfinite, Y)):
                        raise NonFiniteError(f"simulated state not finite at t={t_g!r}: {Y}")
                    xhist.append(times, nodes)
                    t_cur = t_g
                if kinds & _SAMPLE:
                    Y[2 * n:] = plant.h(xhist.value(t_g - plant.r))
                    resets.extend([t_g, *Y[2 * n:]])
                if kinds & _HOLD:
                    uhist.append(t_g, hold_control(Y[n:2 * n], uhist, config.N, plant, assm))
                if kinds != _BREAK:  # a group of break nodes only writes no row
                    rows.extend([t_g, *Y, *uhist.values[-1], math.nan, math.nan, math.nan])
                    # V(x) and V(z) once the row is in: should either raise, a
                    # norm of this row that is not finite is still the error
                    rows[-3] = assm.lyapunov(Y[:n])
                    rows[-2] = assm.lyapunov(Y[n:2 * n])
                    if len(rows) == (filled + _NORM_BLOCK) * width:
                        filled += _NORM_BLOCK  # before the pass: one that fails is not redone
                        _fill_norms(rows, width, filled - _NORM_BLOCK, xhist, uhist, plant)
                        # no later row or reset reads x before the block's last row - r
                        xhist.prune_before(t_g - plant.r)
        except OverflowError as exc:
            raise NonFiniteError(f"simulated state not finite at t={t_g!r}: "
                                 f"a callable overflowed ({exc})") from None
        finally:
            # however the loop ends, the rows written so far are filled: a row
            # whose norm is not finite names the error, whatever ended the run later
            _fill_norms(rows, width, filled, xhist, uhist, plant)

    # the columns are zero-copy views of the buffers, which can grow no more
    table = np.frombuffer(rows).reshape(-1, width)
    return Trajectory(
        *np.split(table, np.cumsum([1, n, n, plant.k_out, plant.m, 1, 1]), axis=1),
        reset_records=np.frombuffer(resets, [("t", float), ("y", float, (plant.k_out,))]),
        input_segments=[(s, np.array(v)) for s, v in zip(uhist.starts, uhist.values)],
    )


def fit_decay_rate(traj: Trajectory, t_start: float, t_end: float) -> tuple[float, float]:
    """Least-squares exponential rate of the recorded norm on a window.

    Returns ``(sigma_hat, r2)`` where ``sigma_hat`` is minus the slope of
    the log-norm fit.  Rows at the underflow floor are dropped; fewer than
    three usable rows raise ``InsufficientDataError``.
    """
    mask = (traj.t >= t_start) & (traj.t <= t_end) & (traj.norm > _NORM_FLOOR)
    t = traj.t[mask]
    if t.size < 3:
        raise InsufficientDataError(
            f"decay fit needs at least 3 rows with positive norm, found {t.size}"
        )
    logn = np.log(traj.norm[mask])
    slope, intercept = np.polyfit(t, logn, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logn - fitted) ** 2))
    ss_tot = float(np.sum((logn - np.mean(logn)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), r2


def run_summary(traj: Trajectory, config: SimConfig) -> dict:
    """JSON-ready digest of one closed-loop run; the decay rate is fitted on
    the second half of the horizon, and the initial and terminal composite
    norms are the first and last recorded rows."""
    sigma_hat, r2 = fit_decay_rate(traj, 0.5 * config.horizon, config.horizon)
    return {
        "sigma_hat": sigma_hat,
        "r2": r2,
        "terminal_norm": float(traj.norm[-1]),
        "initial_norm": float(traj.norm[0]),
        "max_Vx": float(np.max(traj.lyap_x)),
        "max_Vz": float(np.max(traj.lyap_z)),
        "partition_seed": config.seed,
        "config": asdict(config),
    }


def sweep(plant: PlantModel, assm: AssumptionData, init: InitialData,
          runs: Iterable[tuple[float, SimConfig]],
          min_frac: float) -> Iterator[tuple[Trajectory, dict, float, bool]]:
    """Run the loop once per ``(T_s, config)`` pair, in order, on the schedule
    ``generate_partition(T_s, config.horizon, config.seed, min_frac)``.

    Lazily yields ``(traj, summary, ratio, passed)``: the trajectory, its
    ``run_summary``, the terminal-to-initial composite norm ratio, and
    whether the run meets the decay bar, a positive fitted rate and that
    ratio below ``DECAY_RATIO``.
    """
    for T_s, config in runs:
        partition = generate_partition(T_s, config.horizon, config.seed, min_frac)
        traj = simulate_closed_loop(plant, assm, partition, config, init)
        summary = run_summary(traj, config)
        ratio = summary["terminal_norm"] / summary["initial_norm"]
        yield traj, summary, ratio, summary["sigma_hat"] > 0.0 and ratio < DECAY_RATIO


@dataclass
class TuneResult:
    """Outcome of a grid search for workable loop parameters: the first
    triple meeting the decay bar, or a per-attempt failure record."""

    passed: bool
    triple: tuple[float, float, int] | None
    attempts: list[dict]


def pilot_tune(plant: PlantModel, assm: AssumptionData, init: InitialData,
               search_grid: Sequence[tuple[float, float, int]],
               base_config: SimConfig, min_frac: float = 0.5) -> TuneResult:
    """Try ``(T_s, T_H, N)`` triples on runs at ``base_config``'s seed until
    one meets the decay bar of ``sweep``.

    Candidates are ordered cheapest first: fewest predictor steps, then
    largest sampling and hold periods.  Failure to find one is reported,
    not raised; an empty grid, or an ``N`` that is not an integer of at
    least 1, is a configuration error.
    """
    grid = sorted({(float(ts), float(th), check_count("N", n, 1))
                   for ts, th, n in search_grid}, key=lambda g: (g[2], -g[0], -g[1]))
    if not grid:
        raise ConfigurationError("tuning grid must be nonempty")
    runs = ((T_s, replace(base_config, T_H=T_H, N=N)) for T_s, T_H, N in grid)
    attempts = []
    for (T_s, T_H, N), (_traj, summary, ratio, ok) in zip(
            grid, sweep(plant, assm, init, runs, min_frac)):
        attempts.append({"T_s": T_s, "T_H": T_H, "N": N,
                         "sigma_hat": summary["sigma_hat"],
                         "terminal_ratio": ratio, "passed": ok})
        if ok:
            return TuneResult(passed=True, triple=(T_s, T_H, N), attempts=attempts)
    return TuneResult(passed=False, triple=None, attempts=attempts)

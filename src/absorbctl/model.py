"""Shared value types: plant description, certificate data, signal histories,
sampling schedules, and closed-loop run records.

Conventions used throughout the package:

* every pointwise call of a user callable, in the closed loop and in the
  checks alike, passes states, inputs and outputs as lists of floats;
* an input record is piecewise constant and right-open: the value at a
  segment start belongs to that segment;
* a state record is a table of time-stamped samples interpolated linearly.
"""

from __future__ import annotations

import bisect
import math
import numbers
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, CoverageError, NonFiniteError

__all__ = [
    "PlantModel",
    "AssumptionData",
    "InputHistory",
    "StateHistory",
    "SamplingPartition",
    "SimConfig",
    "Trajectory",
    "clamp_input",
]

_ORIGIN_TOL = 1e-12
_FD_TOL = 1e-6
_FD_STEP = 1e-6  # central-difference step of the derivative checks
_CSV_BLOCK = 512  # rows Trajectory.write_csv stacks at once: no copy of the whole table
MAX_STEPS = 10**7  # the most substeps, record times, sampling gaps or Euler steps over one horizon


def clamp_input(u_raw, input_box: np.ndarray) -> np.ndarray:
    """Project an input, or each row of a ``(B, m)`` stack of inputs, onto the
    admissible box, componentwise.

    ``input_box`` is a validated ``(m, 2)`` box, as ``PlantModel.input_box``.
    Each component becomes ``min(hi_j, max(lo_j, u_j))``.  Idempotent, and
    the identity whenever ``u_raw`` already lies in the box.
    """
    u = np.asarray(u_raw, dtype=float)
    if u.shape[-1:] != input_box.shape[:1]:
        raise ConfigurationError(
            f"input has shape {u.shape}, box has {input_box.shape[0]} rows"
        )
    return np.minimum(input_box[:, 1], np.maximum(input_box[:, 0], u))


def at_rows(fn: Callable, *stacks) -> np.ndarray:
    """``fn`` called at each row of the equal-length stacks in turn, given the row of
    each as a list of floats (a list is taken as those rows); results stacked as float64."""
    rows = (s if isinstance(s, list) else np.asarray(s, dtype=float).tolist() for s in stacks)
    return np.array(list(map(fn, *rows)), dtype=float)


def _fd_jacobian(fn: Callable[[list], object], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector or scalar map (one row for a
    scalar) at ``x``, evaluated on lists of floats; used only for validation."""
    cols = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = _FD_STEP
        cols.append((np.asarray(fn((x + step).tolist()), float)
                     - np.asarray(fn((x - step).tolist()), float)) / (2.0 * _FD_STEP))
    return np.column_stack(cols)


def _check_derivative(name: str, exact: np.ndarray, fd: np.ndarray) -> None:
    if not np.max(np.abs(exact - fd)) <= _FD_TOL * (1.0 + np.max(np.abs(exact))):
        raise ConfigurationError(f"{name} disagrees with finite differences")


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; ConfigurationError unless it is an integer (a numpy
    one too, not a bool) of at least ``least``: a step count, point count or seed."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigurationError(f"{name} must be an integer of at least {least}")
    return int(value)


def _time(t) -> float:
    """A record's time ``t`` as a float; ConfigurationError unless it is finite."""
    if not math.isfinite(t := float(t)):
        raise ConfigurationError(f"record times must be finite, got {t}")
    return t


def _frozen(value) -> np.ndarray:
    """A read-only C-order float64 copy of ``value``: no caller's array aliases it."""
    arr = np.array(value, dtype=float, order="C")
    arr.flags.writeable = False
    return arr


def _check(name: str, value, shape: tuple | None):
    """Return ``value`` if ``np.asarray`` makes it float64 values of ``shape``
    (any 1-d shape for None): a real scalar for ``()``, else a list, tuple
    or float64 ndarray of reals.  Raise ConfigurationError otherwise."""
    expected = {(): "a real scalar", None: "a 1-d sequence of reals"}.get(
        shape, f"reals of shape {shape}")
    try:
        cells = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise ConfigurationError(f"{name} must return {expected}, got a ragged "
                                 f"{type(value).__name__}") from None
    # float64 only: a float32 result would keep float32 through the loop's
    # float arithmetic, and an unsigned one would wrap round in subtraction
    ok = cells.dtype == np.float64 and (cells.ndim == 1 if shape is None
                                        else cells.shape == shape)
    if not ok:
        raise ConfigurationError(f"{name} must return {expected}, got {cells.dtype} "
                                 f"{type(value).__name__} of shape {cells.shape}")
    return value


def _probe(name: str, fn: Callable, shape: tuple | None, *args: list):
    """``fn(*args)`` at probe states given as lists of floats, checked by
    ``_check``.  Raises ConfigurationError naming ``fn``, also when the
    call raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        raise ConfigurationError(f"{name} must accept list arguments: {exc!r}") from None
    return _check(name, value, shape)


def _validation_probes(dim: int) -> list[np.ndarray]:
    rng = np.random.default_rng(12345)
    return [np.zeros(dim), *(rng.uniform(-0.5, 0.5, size=dim) for _ in range(3))]


@dataclass(frozen=True)
class PlantModel:
    """Plant ``xdot = f(x, u(t - tau))`` with sampled, delayed output ``h(x(t - r))``.

    Parameters
    ----------
    n, m, k_out : dimensions of state, input and output.
    f : vector field, ``f(x, u) -> (n,)``; the origin with zero input is an
        equilibrium.
    h : output map ``h(x) -> (k_out,)`` with ``h(0) = 0``.
    jac_h : Jacobian of ``h``, ``(k_out, n)``; checked against finite
        differences at construction.
    input_box : admissible input set, an ``(m, 2)`` array of finite
        ``(lo, hi)`` rows containing 0; stored as a read-only C-order copy.
    r, tau : measurement and input delays, both nonnegative.

    ``f``, ``h`` and ``jac_h`` take lists of floats and return reals of
    the shapes above: a list, tuple or float64 ndarray.  Construction
    calls them at a few probe states, raising ``ConfigurationError``;
    afterwards their results are used as returned.
    """

    n: int
    m: int
    k_out: int
    f: Callable[[list, list], Sequence[float]]
    h: Callable[[list], Sequence[float]]
    jac_h: Callable[[list], Sequence[Sequence[float]]]
    input_box: np.ndarray
    r: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k_out < 1:
            raise ConfigurationError("dimensions must be positive")
        box = _frozen(np.reshape(self.input_box, (self.m, 2)))
        if not (np.all(box[:, 0] <= 0.0) and np.all(box[:, 1] >= 0.0)):
            raise ConfigurationError("input_box must contain the zero input")
        if not np.isfinite(box).all():  # the checks sample the whole box
            raise ConfigurationError("input_box must be finite")
        object.__setattr__(self, "input_box", box)
        if not (0.0 <= self.r < math.inf and 0.0 <= self.tau < math.inf):
            raise ConfigurationError("delays must be nonnegative and finite")
        zero_u = [0.0] * self.m
        for i, pt in enumerate(_validation_probes(self.n)):  # probe 0 is the origin
            fx = _probe("f", self.f, (self.n,), pt.tolist(), zero_u)
            hx = _probe("h", self.h, (self.k_out,), pt.tolist())
            jac = _probe("jac_h", self.jac_h, (self.k_out, self.n), pt.tolist())
            if i == 0 and not np.max(np.abs(fx)) <= _ORIGIN_TOL:
                raise ConfigurationError("f(0, 0) must vanish (origin equilibrium)")
            if i == 0 and not np.max(np.abs(hx)) <= _ORIGIN_TOL:
                raise ConfigurationError("h(0) must vanish")
            _check_derivative("jac_h", jac, _fd_jacobian(self.h, pt))

    @property
    def delay_window(self) -> float:
        """Total prediction window r + tau."""
        return self.r + self.tau


@dataclass(frozen=True)
class AssumptionData:
    """Certificate data attached to a plant: Lyapunov pair for the absorbing
    set, local Lyapunov function and controller, observer gain and metric,
    blending levels, and the rates they certify.

    ``absorbing_level`` is the Lyapunov level whose sublevel set traps the
    plant state; ``blend_lo``/``blend_hi`` bracket the ramp of the blending
    function; ``contraction_frac`` is the fraction of the observer
    contraction rate retained once damping is active.  ``observer_gain``
    and ``error_metric`` are stored as read-only C-order copies, and
    ``gain_rows`` holds the gain's rows as tuples of floats.

    The callables take a state as a list of n floats.  ``lyapunov``,
    ``local_lyapunov`` and ``dissipation`` return a real scalar; the
    gradients n reals and ``local_controller`` one per input, as a list,
    tuple or float64 ndarray.  ``lyapunov`` and ``grad_lyapunov`` also
    take an ``(n, B)`` float64 batch of states, one per column, and return
    reals of shapes ``(B,)`` and ``(n, B)`` agreeing with the per-point
    values to 1e-12 relative.
    As for ``PlantModel``, construction checks this at probe states and
    later calls trust it.
    """

    lyapunov: Callable[[list | np.ndarray], float | np.ndarray]
    grad_lyapunov: Callable[[list | np.ndarray], Sequence[float] | np.ndarray]
    dissipation: Callable[[list], float]
    local_lyapunov: Callable[[list], float]
    grad_local_lyapunov: Callable[[list], Sequence[float]]
    local_controller: Callable[[list], Sequence[float]]
    observer_gain: np.ndarray
    error_metric: np.ndarray
    absorbing_level: float
    blend_lo: float
    blend_hi: float
    contraction_frac: float
    contraction_rate: float
    local_decay: float
    coercivity: float

    def __post_init__(self):
        gain = _frozen(np.atleast_2d(self.observer_gain))
        metric = _frozen(np.atleast_2d(self.error_metric))
        object.__setattr__(self, "observer_gain", gain)
        object.__setattr__(self, "error_metric", metric)
        object.__setattr__(self, "gain_rows", tuple(map(tuple, gain.tolist())))
        if not (np.isfinite(gain).all() and np.isfinite(metric).all()):
            raise ConfigurationError("observer_gain and error_metric must be finite")
        n = metric.shape[0]
        if metric.shape != (n, n) or not np.allclose(metric, metric.T, atol=1e-12):
            raise ConfigurationError("error_metric must be square and symmetric")
        try:
            np.linalg.cholesky(metric)
        except np.linalg.LinAlgError:
            raise ConfigurationError("error_metric must be positive definite") from None
        if gain.shape[0] != n:
            raise ConfigurationError("observer_gain must have one row per state")
        if not (-math.inf < self.absorbing_level <= self.blend_lo < self.blend_hi < math.inf):
            raise ConfigurationError(
                "levels must be finite and satisfy absorbing_level <= blend_lo < blend_hi"
            )
        if not (0.0 < self.contraction_frac < 1.0):
            raise ConfigurationError("contraction_frac must lie in (0, 1)")
        if not all(0.0 < v < math.inf
                   for v in (self.contraction_rate, self.local_decay, self.coercivity)):
            raise ConfigurationError("rates must be positive and finite")
        probes = _validation_probes(n)
        for pt in probes:
            for name in ("lyapunov", "local_lyapunov", "dissipation"):
                _probe(name, getattr(self, name), (), pt.tolist())
            _probe("local_controller", self.local_controller, None, pt.tolist())
            for name, fn in (("grad_lyapunov", self.lyapunov),
                             ("grad_local_lyapunov", self.local_lyapunov)):
                grad = _probe(name, getattr(self, name), (n,), pt.tolist())
                _check_derivative(name, grad, _fd_jacobian(fn, pt)[0])
        batch = np.column_stack(probes)  # the sampled checks pass (n, B) column batches
        for name in ("lyapunov", "grad_lyapunov"):
            fn = getattr(self, name)
            pointwise = np.stack([fn(pt.tolist()) for pt in probes], axis=-1)
            try:
                value = fn(batch)
            except Exception as exc:
                raise ConfigurationError(f"{name} must accept an (n, B) batch: {exc}") from None
            _check(f"{name} on an (n, B) batch", value, pointwise.shape)
            if not np.allclose(value, pointwise, rtol=1e-12, atol=0.0):
                raise ConfigurationError(f"{name} on an (n, B) batch differs from its points")

    def check_dimensions(self, plant: PlantModel) -> None:
        """Raise ConfigurationError unless the gain (so the metric) fits ``plant``."""
        if self.observer_gain.shape != (plant.n, plant.k_out):
            raise ConfigurationError(f"observer_gain has shape {self.observer_gain.shape}, "
                                     f"the plant needs ({plant.n}, {plant.k_out})")


class InputHistory:
    """Right-open piecewise-constant input record covering ``[t_min, t_now)``.

    Segments are ``(t_start, value)`` pairs with strictly increasing starts;
    the first start equals ``t_min``.  The value at a query time is the value
    of the segment whose start is the largest one not exceeding it.  Appends
    may not rewrite the covered past.  A new record is empty; it grows only
    by ``append`` (segments) and ``advance`` (coverage), which refuse a time
    that is not finite, as the constructor does.  Values are lists of floats.
    """

    def __init__(self, t_min: float):
        self.t_min = self.t_now = _time(t_min)
        self.starts: list[float] = []
        self.values: list[list[float]] = []

    def advance(self, t: float) -> None:
        """Extend the covered interval to ``[t_min, t)``; monotone."""
        t = _time(t)
        if t <= self.t_now:
            return
        if not self.starts:
            raise CoverageError("cannot advance an empty input record")
        self.t_now = t

    def append(self, t_start: float, value) -> None:
        """Add a new constant segment starting at ``t_start`` (>= t_now)
        whose value has the dimension of the earlier ones."""
        t_start = _time(t_start)
        value = np.asarray(value, dtype=float).reshape(-1)
        if not self.starts and t_start != self.t_min:
            raise ConfigurationError("first segment must start at t_min")
        if self.starts and t_start <= self.starts[-1]:
            raise ConfigurationError("segment starts must be strictly increasing")
        if t_start < self.t_now:
            raise ConfigurationError("cannot rewrite already-covered input history")
        if self.values and value.size != len(self.values[0]):
            raise ConfigurationError("all segment values must share a dimension")
        self.starts.append(t_start)
        self.values.append(value.tolist())
        self.t_now = t_start

    def value(self, t: float) -> list[float]:
        """Input applied at time ``t`` as a new list; requires ``t_min <= t < t_now``."""
        t = float(t)
        if not (self.t_min <= t < self.t_now):
            raise CoverageError(
                f"input query at t={t!r} outside coverage [{self.t_min!r}, {self.t_now!r})"
            )
        return list(self.values[bisect.bisect_right(self.starts, t) - 1])

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """``(t0, t1)`` as floats; CoverageError unless ``t_min <= t0 <= t1 <= t_now``."""
        t0 = float(t0)
        t1 = float(t1)
        if t0 > t1:
            raise CoverageError("reversed interval")
        if not (self.t_min <= t0 and t1 <= self.t_now):
            raise CoverageError(
                f"interval [{t0!r}, {t1!r}] outside coverage [{self.t_min!r}, {self.t_now!r})"
            )
        return t0, t1

    def iter_segments(self, t0: float, t1: float) -> list[tuple[list, float]]:
        """The ``(value, length)`` pieces partitioning ``[t0, t1)`` exactly, in
        time order: the part of each segment inside it; none on an empty interval."""
        t0, t1 = self.window(t0, t1)
        if t0 == t1:
            return []
        lo = bisect.bisect_right(self.starts, t0) - 1
        hi = bisect.bisect_left(self.starts, t1)
        edges = [t0, *self.starts[lo + 1:hi], t1]
        return [(v, b - a) for v, a, b in zip(self.values[lo:hi], edges, edges[1:])]

    def sup_abs(self, t0, t1) -> np.ndarray:
        """Largest Euclidean input norm applied on each window ``[t0[i], t1[i])`` of
        the equal-length float arrays ``t0``, ``t1``, 0.0 on an empty one, from one
        ``vecdot`` over the segments from the one applied at the earliest ``t0``.
        CoverageError unless every window lies in ``[t_min, t_now]``, as for ``window``."""
        t0, t1 = _windows(t0, t1, self.t_min, self.t_now, "input")
        first = bisect.bisect_right(self.starts, t0.min(initial=self.t_now)) - 1
        starts, values = np.array(self.starts[first:]), np.array(self.values[first:], ndmin=2)
        lo = np.searchsorted(starts, t0, "right") - 1  # the segment applied at t0
        hi = np.where(t0 < t1, np.searchsorted(starts, t1), lo)
        return _window_max(np.sqrt(np.vecdot(values, values)), lo, hi)


class StateHistory:
    """Time-stamped state samples, interpolated linearly, grown only by ``append``:
    flat float64 buffers of sample times and of states, sample ``i`` holding
    ``states[i*dim:(i+1)*dim]``.  No norm is stored; ``sup_norm`` computes
    those a read needs."""

    def __init__(self):
        self.times, self.states = array("d"), array("d")
        self.dim = 0  # entries of a state, set by the first append

    def append(self, times: Sequence[float], states) -> None:
        """Add the rows ``states[i]``, copied, at finite, strictly increasing
        ``times[i]`` after the stored ones."""
        times = list(map(float, times))
        if not all(map(math.isfinite, times)):
            list(map(_time, times))  # raises, naming the first time that is not finite
        seq = self.times[-1:].tolist() + times
        if not all(map(float.__lt__, seq, seq[1:])):
            raise ConfigurationError("sample times must be strictly increasing")
        try:
            rows = list(states)
            dims = set(map(len, rows))
            flat = array("d", list(chain.from_iterable(rows)))
        except TypeError:  # a row that is not a sequence of reals
            rows, dims = [], set()
        if self.times:
            dims.add(self.dim)
        if not rows or len(rows) != len(times) or len(dims) != 1:
            raise ConfigurationError("states must be one row per time, of one dimension")
        self.times.extend(times)
        self.states.extend(flat)
        self.dim = dims.pop()

    def value(self, t: float) -> list[float]:
        """Linearly interpolated state at ``t`` as a new list; exact at sample times."""
        t, times = float(t), self.times
        if not times:
            raise CoverageError("empty state record")
        if not times[0] <= t <= times[-1]:  # a NaN t fails it too
            raise CoverageError(
                f"state query at t={t!r} outside [{times[0]!r}, {times[-1]!r}]"
            )
        hi, n = bisect.bisect_left(times, t), self.dim
        if times[hi] == t:
            return self.states[hi * n:hi * n + n].tolist()
        theta = (t - times[hi - 1]) / (times[hi] - times[hi - 1])
        return [a + theta * (b - a)
                for a, b in zip(self.states[hi * n - n:hi * n], self.states[hi * n:hi * n + n])]

    def sup_norm(self, t0, t1) -> np.ndarray:
        """Largest state norm over each window ``[t0[i], t1[i]]`` of the equal-length
        float arrays ``t0``, ``t1``: the larger of the norms at its two ends
        (interpolated as ``value`` does, off the samples) and of the samples inside
        it.  One ``vecdot`` gives every sample's norm, ``math.sqrt(x.dot(x))``'s bits.
        CoverageError unless every window lies in the record."""
        if not self.times:
            raise CoverageError("empty state record")
        t0, t1 = _windows(t0, t1, self.times[0], self.times[-1], "state")
        times, states = np.array(self.times), np.array(self.states).reshape(-1, self.dim)
        norms = np.sqrt(np.vecdot(states, states))
        peak = _window_max(norms, np.searchsorted(times, t0, "right"), np.searchsorted(times, t1))
        for t in (t0, t1):  # the norm at each end: a sample's, else that of a + theta*(b - a)
            hi = np.searchsorted(times, t)
            off = times[hi] != t
            k = hi[off]
            theta = ((t[off] - times[k - 1]) / (times[k] - times[k - 1]))[:, None]
            between = states[k - 1] + theta * (states[k] - states[k - 1])
            end = norms[hi]
            end[off] = np.sqrt(np.vecdot(between, between))
            peak = np.maximum(peak, end)
        return peak

    def prune_before(self, t: float) -> None:
        """Drop samples no longer needed to interpolate at times >= ``t``:
        every sample before the last one at or before ``t``.  ``t`` must be finite."""
        k = max(0, bisect.bisect_right(self.times, _time(t)) - 1)
        del self.times[:k], self.states[:k * self.dim]


def _windows(t0, t1, lo: float, hi: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``t0``, ``t1`` as float64 arrays; CoverageError unless ``lo <= t0 <= t1 <= hi``
    everywhere, naming the first window that is reversed or not covered."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if not (inside := (lo <= t0) & (t0 <= t1) & (t1 <= hi)).all():  # a NaN end fails it too
        i = inside.argmin()
        raise CoverageError(f"{what} window [{t0[i].item()!r}, {t1[i].item()!r}] "
                            f"is not inside [{lo!r}, {hi!r}]")
    return t0, t1


def _window_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``max(values[lo[i]:hi[i]])`` for each ``i`` by one ``np.maximum.reduceat``;
    0.0, below every norm, where that slice is empty."""
    padded = np.append(values, 0.0)  # so that an end at values.size is one of its indices
    ends = np.clip(np.column_stack([lo, hi]).ravel(), 0, values.size)
    return np.where(hi > lo, np.maximum.reduceat(padded, ends)[::2], 0.0)


_GAP_SLACK = 1.0 + 1e-12  # float accumulation can push a gap one ulp past T_s


@dataclass(frozen=True)
class SamplingPartition:
    """Strictly increasing measurement times starting at 0 with gaps in (0, T_s];
    ``times`` is stored as a read-only C-order copy."""

    times: np.ndarray
    T_s: float

    def __post_init__(self):
        times = _frozen(np.reshape(self.times, -1))
        object.__setattr__(self, "times", times)
        if not 0.0 < self.T_s < math.inf:
            raise ConfigurationError("T_s must be positive and finite")
        if times.size == 0 or times[0] != 0.0:
            raise ConfigurationError("partition must start at time 0")
        gaps = np.diff(times)
        # written so that a NaN gap fails it too
        if not np.all((gaps > 0.0) & (gaps <= self.T_s * _GAP_SLACK)):
            raise ConfigurationError("partition gaps must lie in (0, T_s]")


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop run settings: hold period, predictor steps, horizon,
    integrator cap, partition seed, and row-recording cadence."""

    T_H: float
    N: int
    horizon: float
    dt_max: float
    seed: int = 0
    record_dt: float = 0.05

    def __post_init__(self):
        for name in ("T_H", "horizon", "record_dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        check_count("N", self.N, 1)
        if not (0.0 < self.dt_max <= self.T_H):
            raise ConfigurationError("dt_max must lie in (0, T_H]")
        for name in ("dt_max", "record_dt"):  # dt_max <= T_H bounds the holds too
            if self.horizon / getattr(self, name) > MAX_STEPS:
                raise ConfigurationError(f"horizon/{name} must be at most {MAX_STEPS}")
        if self.N * (self.horizon / self.T_H + 1.0) > MAX_STEPS:  # N Euler steps per hold
            raise ConfigurationError(f"N * (horizon/T_H + 1) must be at most {MAX_STEPS}")
        check_count("seed", self.seed, 0)


@dataclass
class Trajectory:
    """Row-per-event record of a closed-loop run; the simulator's columns are
    views of one flat row buffer, in the CSV's column order.

    ``reset_records`` holds one ``(t, y)`` pair per measurement time ``t``
    (the simulator's: a structured array over one flat buffer), the sampled
    output ``y = h(x(t - r))`` that resets ``w`` at ``t``.
    ``input_segments`` is the full applied input record.  Construction
    converts each column, an array or a sequence, to float64 once; a value
    that is not finite outside ``t`` raises ``NonFiniteError`` at its first row.
    """

    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    u_applied: np.ndarray
    lyap_x: np.ndarray
    lyap_z: np.ndarray
    norm: np.ndarray
    reset_records: Sequence = field(default_factory=list)
    input_segments: list = field(default_factory=list)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).reshape(-1)
        if not np.isfinite(self.t).all() or np.any(np.diff(self.t) < 0.0):
            raise ConfigurationError("trajectory times must be finite and nondecreasing")
        rows = self.t.size
        for name in ("x", "z", "w", "u_applied", "lyap_x", "lyap_z", "norm"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.reshape(-1) if name in ("lyap_x", "lyap_z", "norm") else np.atleast_2d(arr)
            if arr.shape[0] != rows:
                raise ConfigurationError(f"column {name} has wrong row count")
            if not np.isfinite(arr).all():
                row = np.argwhere(~np.isfinite(arr))[0, 0]
                raise NonFiniteError(f"trajectory column {name} not finite at t={self.t[row]}")
            setattr(self, name, arr)

    def write_csv(self, path) -> None:
        """Dump rows with full double precision (17 significant digits), a block at a time."""
        blocks = {"x": self.x, "z": self.z, "w": self.w, "u": self.u_applied}
        header = ["t", *(f"{name}{i + 1}" for name, block in blocks.items()
                         for i in range(block.shape[1])), "Vx", "Vz", "norm"]
        columns = [self.t, *blocks.values(), self.lyap_x, self.lyap_z, self.norm]
        line = ",".join(["%.17g"] * len(header)) + "\r\n"  # csv.writer's line end
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for i in range(0, self.t.size, _CSV_BLOCK):
                table = np.column_stack([column[i:i + _CSV_BLOCK] for column in columns])
                fh.writelines(line % tuple(row) for row in table.tolist())

"""Sampled certificate checks with reproducible reports.

Every check draws a seeded low-discrepancy sample over axis-aligned boxes
bounding the relevant sublevel sets, rejects points that fail the side
conditions of the inequality being tested, and reports the worst margin
found.  Margins are written so that negative means the inequality holds
with room to spare; a check passes when the worst margin does not exceed
``TOLERANCE``.  Identical seeds give identical reports.

A check runs on the usable cores: its admitted points are cut into
contiguous shares in draw order, and each share, here or in a forked child,
draws the sample from the first point and evaluates the margins at its own
points only.  Each process holds one batch at a time.  The callables, which
run on the same batches in several processes and again where a share reruns,
must be pure; then a report carries the same bits, and a failing callable
raises the same exception, as one process.  One process runs alone where
``os.fork`` is missing, on one usable core, while another thread is alive,
or when a share would hold fewer than ``_MIN_SHARE`` points.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NonFiniteError
from .halton import Halton
from .model import AssumptionData, PlantModel, check_count, clamp_input
from .observer import observer_correction, output_injection

__all__ = [
    "SampleSpec",
    "CheckReport",
    "sublevel_box",
    "absorbing_dissipation_margin",
    "local_controller_margin",
    "observer_contraction_margin",
    "growth_bound_margin",
    "corrected_contraction_margin",
    "corrected_dissipation_margin",
    "check_absorbing_dissipation",
    "check_local_controller",
    "check_observer_contraction",
    "check_growth_bound",
    "check_corrected_contraction",
    "check_corrected_dissipation",
]

_BATCH = 4096
# fewest points a forked share scans: about twice the ~450 margins' time that
# forking, exiting and reaping one child took on a 2-core host
_MIN_SHARE = 1000
TOLERANCE = 1e-9  # largest worst margin a passing check may report
UPPER_LEVEL = 100.0  # Lyapunov level capping regions unbounded above
_MAX_DRAW_FACTOR = 50  # a check gives up after this many candidates per point
_MAX_RADIUS = 1e9  # a sublevel set reaching this far counts as unbounded
_OUTPUT_GRID = 5  # lattice points per axis when bounding the sampled outputs
_OUTPUT_PAD = 1.0  # added to each half-width of the sampled-output box


@dataclass(frozen=True)
class SampleSpec:
    """How a sampled check draws its points.

    ``n_points`` (at least 1) admissible points are evaluated; drawing stops
    early only when ``_MAX_DRAW_FACTOR * n_points`` candidates have been
    rejected, and a check that admits none reports itself ``vacuous``.
    """

    n_points: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_count("n_points", self.n_points, 1)
        check_count("seed", self.seed, 0)


@dataclass
class CheckReport:
    """Outcome of one sampled check; ``passed`` iff the worst margin (if
    any point was admissible) does not exceed ``TOLERANCE``; ``vacuous``
    marks a pass with no admissible point tested."""

    name: str
    points_tested: int
    skipped: int
    worst_margin: float | None
    worst_point: tuple | None
    seed: int

    @property
    def passed(self) -> bool:
        return self.worst_margin is None or self.worst_margin <= TOLERANCE

    @property
    def vacuous(self) -> bool:
        return self.points_tested == 0

    def to_dict(self) -> dict:
        worst_point = None
        if self.worst_point is not None:
            worst_point = [np.asarray(p, float).tolist() for p in self.worst_point]
        return {
            "name": self.name,
            "points_tested": self.points_tested,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "worst_point": worst_point,
            "pass": self.passed,
            "vacuous": self.vacuous,
            "tolerance": TOLERANCE,
            "seed": self.seed,
        }


def sublevel_box(level_fn: Callable[[list], float], level: float,
                 dim: int) -> np.ndarray:
    """Axis-aligned box bounding a sublevel set's extent along each axis.

    Found by doubling out from the origin and bisecting the crossing on
    every half-axis; ``level_fn`` takes each point as a list of floats.
    For level functions whose sublevel sets bulge between the axes the box
    may under-cover; for radially monotone ones it is tight.  A level that
    is not finite raises ``ConfigurationError``, a value that is not finite
    ``NonFiniteError``.
    """
    if not math.isfinite(level):  # a NaN level would admit only the origin
        raise ConfigurationError(f"sublevel_box: level must be finite, got {level}")

    def level_at(point: list) -> float:
        value = float(level_fn(point))
        if not math.isfinite(value):
            raise NonFiniteError(f"sublevel_box: level function is {value} at point {point}")
        return value

    if level_at([0.0] * dim) > level:
        raise ConfigurationError("origin must belong to the sublevel set")
    box = np.empty((dim, 2))
    for i in range(dim):
        for sign, col in ((-1.0, 0), (1.0, 1)):
            axis = np.zeros(dim)
            axis[i] = sign
            hi = 1.0
            while level_at((hi * axis).tolist()) <= level:
                hi *= 2.0
                if hi > _MAX_RADIUS:
                    raise ConfigurationError(
                        "sublevel set appears unbounded along a coordinate axis"
                    )
            lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if level_at((mid * axis).tolist()) <= level:
                    lo = mid
                else:
                    hi = mid
            box[i, col] = sign * lo
    return box


def _output_box(plant: PlantModel, state_box: np.ndarray) -> np.ndarray:
    """Box for sampled outputs: twice the output amplitude over a lattice
    spanning the state box, plus padding."""
    axes = [np.linspace(lo, hi, _OUTPUT_GRID) for lo, hi in state_box]
    amp = np.zeros(plant.k_out)
    for pt in itertools.product(*axes):
        amp = np.maximum(amp, np.abs(plant.h([float(v) for v in pt])))
    half = 2.0 * amp + _OUTPUT_PAD
    return np.column_stack([-half, half])


# --- margins: negative means the certified inequality holds at the point ---
# points arrive as lists of floats and callables may return lists, so products, sums and
# differences are np.dot, np.add and np.subtract, and L (h(z) - y) is ``output_injection``

def absorbing_dissipation_margin(plant: PlantModel, assm: AssumptionData, x, u) -> float:
    """Drift of the Lyapunov function plus the required dissipation."""
    return float(np.dot(assm.grad_lyapunov(x), plant.f(x, u)) + assm.dissipation(x))


def local_controller_margin(plant: PlantModel, assm: AssumptionData, x) -> float:
    """Worse of the local decay margin (under the clamped local controller)
    and the coercivity margin of the local Lyapunov function."""
    u = clamp_input(assm.local_controller(x), plant.input_box).tolist()
    xsq = np.dot(x, x)
    decay = np.dot(assm.grad_local_lyapunov(x), plant.f(x, u)) + 2.0 * assm.local_decay * xsq
    coercive = assm.coercivity * xsq - assm.local_lyapunov(x)
    return float(max(decay, coercive))


def _metric_gap(plant: PlantModel, assm: AssumptionData, z, x, u, drift):
    """The error ``d = z - x`` and ``d . M (drift - f(x, u))``, the metric rate
    of the error under the observer drift ``drift`` at ``z``."""
    d = np.subtract(z, x)
    return d, d.dot(assm.error_metric.dot(np.subtract(drift, plant.f(x, u))))


def observer_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Metric contraction of the plain output-injection error dynamics."""
    drift = np.add(plant.f(z, u), output_injection(z, plant.h(x), plant, assm))
    d, gap = _metric_gap(plant, assm, z, x, u, drift)
    return float(gap + assm.contraction_rate * d.dot(d))


def growth_bound_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Conditional growth bound for the blending band; only meaningful where
    the Lyapunov gradient at z opposes the metric error direction."""
    grad = np.asarray(assm.grad_lyapunov(z))
    drift = np.add(plant.f(z, u), output_injection(z, plant.h(x), plant, assm))
    d, numer = _metric_gap(plant, assm, z, x, u, drift)
    denom = grad.dot(assm.error_metric.dot(d))
    ratio_term = (1.0 - assm.contraction_frac) * grad.dot(grad) * numer / denom
    return float(grad.dot(drift) + assm.dissipation(z) - ratio_term)


def corrected_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Metric contraction, at ``contraction_frac`` of the certified rate, of
    the corrected observer against the true state, whose output it samples."""
    fz = plant.f(z, u)
    corr = observer_correction(z, output_injection(z, plant.h(x), plant, assm),
                               assm.lyapunov(z), fz, assm)
    d, gap = _metric_gap(plant, assm, z, x, u, np.add(fz, corr))
    return float(gap + assm.contraction_frac * assm.contraction_rate * d.dot(d))


def corrected_dissipation_margin(plant: PlantModel, assm: AssumptionData, z, w, u) -> float:
    """Lyapunov drift of the corrected observer given an arbitrary measured
    output ``w``: the injection ``L (h(z) - w)``, damped outside the absorbing set."""
    fz = plant.f(z, u)
    corr = observer_correction(z, output_injection(z, w, plant, assm), assm.lyapunov(z), fz, assm)
    return float(np.dot(assm.grad_lyapunov(z), np.add(fz, corr)) + assm.dissipation(z))


# --- sampled check driver ---

def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(name: str, boxes: Sequence[np.ndarray], accept, margin_fn, sample: SampleSpec,
           first: int, stop: int) -> tuple[int, int, float, tuple | None]:
    """Draw the sample to its ``stop``-th admitted point; return the draw's counts and
    the worst margin over the admitted points ``first`` to ``stop - 1`` with its first
    point in draw order (``-inf`` and ``None`` if there are none).  ``accept`` masks
    Halton batches given as one ``(d_i, B)`` column block per box; ``margin_fn`` takes
    one row per box as a list.  ``first = 0, stop = n_points`` is the whole check."""
    dims = [box.shape[0] for box in boxes]
    lo = np.concatenate([box[:, 0] for box in boxes])
    hi = np.concatenate([box[:, 1] for box in boxes])
    halton = Halton(int(sum(dims)), sample.seed)
    splits = np.cumsum(dims)[:-1]

    tested = skipped = draws = 0
    worst, worst_pt = -math.inf, None
    max_draws = max(_MAX_DRAW_FACTOR * sample.n_points, 100_000)
    while tested < stop and draws < max_draws:
        batch = halton.random(min(_BATCH, max_draws - draws))
        draws += batch.shape[0]
        parts = np.split(lo + batch * (hi - lo), splits, axis=1)
        admitted = np.flatnonzero(accept(*(p.T for p in parts)))[:stop - tested]
        end = admitted[-1] + 1 if tested + admitted.size == stop else len(batch)
        skipped += int(end) - admitted.size
        scanned = admitted[max(first - tested, 0):]
        tested += admitted.size
        for point in zip(*(p[scanned].tolist() for p in parts)):
            value = float(margin_fn(*point))
            if not math.isfinite(value):
                raise NonFiniteError(f"{name}: margin {value} at point {list(point)}")
            if value > worst:
                worst, worst_pt = value, point
    return tested, skipped, worst, worst_pt


def _run_sampled_check(name: str, boxes: Sequence[np.ndarray], accept, margin_fn,
                       sample: SampleSpec) -> CheckReport:
    """The check, run as contiguous shares of its admitted points, each a ``_share``: the
    first here, each later one in a forked child (user callables need not pickle), which
    replies its tuple.  Shares merge in order with a strict ``>``, so the first maximum
    wins; the counts are the last share's, whose draw is the whole check's.  A share whose
    child raised or died runs again here, in share order, raising what one process does."""
    shares = 1
    if hasattr(os, "fork") and threading.active_count() == 1:  # forking threads is unsafe
        shares = max(1, min(_usable_cores(), sample.n_points // _MIN_SHARE))
    bounds = [sample.n_points * i // shares for i in range(shares + 1)]

    def run(i):
        return _share(name, boxes, accept, margin_fn, sample, bounds[i], bounds[i + 1])

    pids, pipes = {}, {}  # share -> its child, share -> read end of the child's pipe
    try:
        for i in range(1, shares):
            pipes[i], write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # the child: its whole life is this block
                    code = 1
                    try:
                        devnull = os.open(os.devnull, os.O_WRONLY)
                        os.dup2(devnull, 1)
                        os.dup2(devnull, 2)
                        with open(write_fd, "wb") as reply:
                            reply.write(pickle.dumps(run(i)))
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write_fd)
            pids[i] = pid
        found = [run(0)]
        for i in range(1, shares):
            with open(pipes.pop(i), "rb") as pipe:  # to EOF before reaping: no size limit
                reply = pipe.read()
            status = os.waitpid(pids[i], 0)[1]
            del pids[i]  # only once reaped
            found.append(pickle.loads(reply) if status == 0 else run(i))
    finally:  # on any error: no child outlives the check
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in pipes.values():
            os.close(fd)
    _, _, worst, worst_pt = found[0]
    for _, _, value, point in found[1:]:
        if value > worst:
            worst, worst_pt = value, point
    return CheckReport(name=name, points_tested=found[-1][0], skipped=found[-1][1],
                       worst_margin=None if worst_pt is None else worst,
                       worst_point=worst_pt, seed=sample.seed)


def check_absorbing_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Dissipation outside the absorbing set, sampled up to the sampler's
    upper Lyapunov level and over the whole input box."""
    assm.check_dimensions(plant)
    x_box = sublevel_box(assm.lyapunov, UPPER_LEVEL, plant.n)
    return _run_sampled_check(
        "absorbing_dissipation",
        [x_box, plant.input_box],
        lambda x, u: assm.lyapunov(x) >= assm.absorbing_level,
        lambda x, u: absorbing_dissipation_margin(plant, assm, x, u),
        sample)


def check_local_controller(plant: PlantModel, assm: AssumptionData,
                           sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Local decay and coercivity inside the absorbing set."""
    assm.check_dimensions(plant)
    x_box = sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n)
    return _run_sampled_check(
        "local_controller",
        [x_box],
        lambda x: assm.lyapunov(x) <= assm.absorbing_level,
        lambda x: local_controller_margin(plant, assm, x),
        sample)


def _observer_region(plant: PlantModel, assm: AssumptionData):
    """Boxes ``[z_box, x_box, input_box]`` and side condition of the checks on
    an observer state in the upper blending sublevel set and a plant state
    in the absorbing set."""
    assm.check_dimensions(plant)
    boxes = [sublevel_box(assm.lyapunov, assm.blend_hi, plant.n),
             sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n),
             plant.input_box]

    def inside(z, x, u):
        return (assm.lyapunov(z) <= assm.blend_hi) & (assm.lyapunov(x) <= assm.absorbing_level)

    return boxes, inside


def check_observer_contraction(plant: PlantModel, assm: AssumptionData,
                               sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Output-injection contraction over observer set x plant set x inputs."""
    return _run_sampled_check(
        "observer_contraction",
        *_observer_region(plant, assm),
        lambda z, x, u: observer_contraction_margin(plant, assm, z, x, u),
        sample)


def check_growth_bound(plant: PlantModel, assm: AssumptionData,
                       sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Conditional growth bound on the blending band.

    Drawn over the two contraction checks' region; beyond their side
    condition, points with ``V(z) <= blend_lo`` or where the Lyapunov
    gradient at z does not oppose the metric error direction are skipped
    and counted.  If no admissible point exists the bound holds vacuously:
    the report passes with zero points tested and is marked ``vacuous``.
    """
    boxes, inside = _observer_region(plant, assm)

    def accept(z, x, u):
        descent = (np.asarray(assm.grad_lyapunov(z)) * (assm.error_metric @ (z - x))).sum(axis=0)
        return inside(z, x, u) & (assm.blend_lo < assm.lyapunov(z)) & (descent < 0.0)

    return _run_sampled_check(
        "observer_growth_bound",
        boxes,
        accept,
        lambda z, x, u: growth_bound_margin(plant, assm, z, x, u),
        sample)


def check_corrected_contraction(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Corrected-gain contraction over observer set x plant set x inputs."""
    return _run_sampled_check(
        "corrected_contraction",
        *_observer_region(plant, assm),
        lambda z, x, u: corrected_contraction_margin(plant, assm, z, x, u),
        sample)


def check_corrected_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Corrected-observer dissipation, damped as in the loop, above the upper
    blending level, with the measured output free to roam an inflated output box."""
    assm.check_dimensions(plant)
    z_box = sublevel_box(assm.lyapunov, UPPER_LEVEL, plant.n)
    w_box = _output_box(plant, z_box)
    return _run_sampled_check(
        "corrected_dissipation",
        [z_box, w_box, plant.input_box],
        lambda z, w, u: ((assm.blend_hi <= assm.lyapunov(z))
                         & (assm.lyapunov(z) <= UPPER_LEVEL)),
        lambda z, w, u: corrected_dissipation_margin(plant, assm, z, w, u),
        sample)


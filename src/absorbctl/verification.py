"""Sampled certificate checks with reproducible reports.

Every check draws a seeded low-discrepancy sample over axis-aligned boxes
bounding the relevant sublevel sets, rejects points that fail the side
conditions of the inequality being tested, and reports the worst margin
found.  Margins are written so that negative means the inequality holds
with room to spare; a check passes when the worst margin does not exceed
``TOLERANCE``.  Identical seeds give identical reports.

Each Halton batch's admitted points are scored in one margin call, on
``(B, d)`` stacks: the user's callables are called callable by callable over
the batch, at each point with lists of floats, and the products are taken
over rows by ``np.vecdot``/``np.matvec``, whose BLAS calls are those of
``ndarray.dot`` at one point, so the bits are too.  Where a callable raises,
the batch is scored again one point at a time in draw order, so the error is
that of a scan point by point, for callables that are pure.

``_run_checks`` runs a list of checks as ``verify`` does: the list is cut
into contiguous blocks, one per usable core, and a forked child per later
block runs its checks ahead, sending back the report of each scan.  Every
check is still called here in list order, so it raises what one process
raises and a wrapper here sees its call; a later block's scan takes its
child's report, or is made here once that child has failed.  One process
runs alone where ``os.fork`` is missing, on one usable core or while another
thread is alive.  A ``check_*`` called by itself runs here.
"""

from __future__ import annotations

import contextlib
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
from .model import AssumptionData, PlantModel, at_rows, check_count, clamp_input
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
TOLERANCE = 1e-9  # largest worst margin a passing check may report
UPPER_LEVEL = 100.0  # Lyapunov level capping regions unbounded above
_MAX_DRAW_FACTOR = 50  # a check gives up after this many candidates per point
_MAX_RADIUS = 1e9  # a sublevel set reaching this far counts as unbounded
_OUTPUT_GRID = 5  # lattice points per axis when bounding the sampled outputs
_OUTPUT_PAD = 1.0  # added to each half-width of the sampled-output box
_sink = _source = None  # _run_checks' report pipe: written in a child, read while waiting


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
# each takes (B, d) stacks, one point per row, and gives (B,) margins; L (h(z) - y) is the
# loop's ``output_injection``, called at each row as the user's callables are (``at_rows``)

def _injection(plant: PlantModel, assm: AssumptionData, z, y) -> np.ndarray:
    return at_rows(lambda zi, yi: output_injection(zi, yi, plant, assm), z, y)


def absorbing_dissipation_margin(plant: PlantModel, assm: AssumptionData, x, u) -> np.ndarray:
    """Drift of the Lyapunov function plus the required dissipation."""
    return (np.vecdot(at_rows(assm.grad_lyapunov, x), at_rows(plant.f, x, u))
            + at_rows(assm.dissipation, x))


def local_controller_margin(plant: PlantModel, assm: AssumptionData, x) -> np.ndarray:
    """Worse of the local decay margin (under the clamped local controller)
    and the coercivity margin of the local Lyapunov function; NaN where either is."""
    u = clamp_input(at_rows(assm.local_controller, x), plant.input_box)
    xsq = np.vecdot(x, x)
    decay = (np.vecdot(at_rows(assm.grad_local_lyapunov, x), at_rows(plant.f, x, u))
             + 2.0 * assm.local_decay * xsq)
    coercive = assm.coercivity * xsq - at_rows(assm.local_lyapunov, x)
    return np.maximum(coercive, decay)  # decay on a tie, as max(decay, coercive) was


def _metric_gap(plant: PlantModel, assm: AssumptionData, z, x, u, drift):
    """The errors ``d = z - x`` and ``d . M (drift - f(x, u))``, the metric rate
    of the error under the observer drift ``drift`` at ``z``."""
    d = np.subtract(z, x)
    return d, np.vecdot(d, np.matvec(assm.error_metric, np.subtract(drift, at_rows(plant.f, x, u))))


def observer_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> np.ndarray:
    """Metric contraction of the plain output-injection error dynamics."""
    drift = np.add(at_rows(plant.f, z, u), _injection(plant, assm, z, at_rows(plant.h, x)))
    d, gap = _metric_gap(plant, assm, z, x, u, drift)
    return gap + assm.contraction_rate * np.vecdot(d, d)


def growth_bound_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> np.ndarray:
    """Conditional growth bound for the blending band; only meaningful where
    the Lyapunov gradient at z opposes the metric error direction."""
    grad = at_rows(assm.grad_lyapunov, z)
    drift = np.add(at_rows(plant.f, z, u), _injection(plant, assm, z, at_rows(plant.h, x)))
    d, numer = _metric_gap(plant, assm, z, x, u, drift)
    denom = np.vecdot(grad, np.matvec(assm.error_metric, d))
    ratio_term = (1.0 - assm.contraction_frac) * np.vecdot(grad, grad) * numer / denom
    return np.vecdot(grad, drift) + at_rows(assm.dissipation, z) - ratio_term


def corrected_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> np.ndarray:
    """Metric contraction, at ``contraction_frac`` of the certified rate, of
    the corrected observer against the true state, whose output it samples."""
    fz = at_rows(plant.f, z, u)
    corr = observer_correction(z, _injection(plant, assm, z, at_rows(plant.h, x)),
                               at_rows(assm.lyapunov, z), fz, assm)
    d, gap = _metric_gap(plant, assm, z, x, u, np.add(fz, corr))
    return gap + assm.contraction_frac * assm.contraction_rate * np.vecdot(d, d)


def corrected_dissipation_margin(plant: PlantModel, assm: AssumptionData, z, w, u) -> np.ndarray:
    """Lyapunov drift of the corrected observer given an arbitrary measured
    output ``w``: the injection ``L (h(z) - w)``, damped outside the absorbing set."""
    fz = at_rows(plant.f, z, u)
    corr = observer_correction(z, _injection(plant, assm, z, w), at_rows(assm.lyapunov, z), fz,
                               assm)
    return (np.vecdot(at_rows(assm.grad_lyapunov, z), np.add(fz, corr))
            + at_rows(assm.dissipation, z))


# --- sampled check driver ---

def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _margins(name: str, margin_fn, stacks: list[np.ndarray]) -> np.ndarray:
    """``margin_fn`` over the stacks of admitted points, refusing a non-finite margin with
    ``NonFiniteError`` at its first point in draw order.  Where a callable raises, the points
    are scored again one at a time in draw order, so the error raised is the one that a scan
    point by point meets first."""
    try:
        values = np.asarray(margin_fn(*stacks), dtype=float)
    except Exception:  # raised again by the first point that raises it, or a NaN before that
        if len(stacks[0]) == 1:
            raise
        return np.concatenate([_margins(name, margin_fn, [s[i:i + 1] for s in stacks])
                               for i in range(len(stacks[0]))])
    if not (finite := np.isfinite(values)).all():
        i = finite.argmin()
        raise NonFiniteError(f"{name}: margin {values[i]} at point "
                             f"{[s[i].tolist() for s in stacks]}")
    return values


def _run_sampled_check(name: str, boxes: Sequence[np.ndarray], accept, margin_fn,
                       sample: SampleSpec) -> CheckReport:
    """Draw the sample to its ``n_points``-th admitted point and report the draw's counts
    and the worst margin over the admitted points with its first point in draw order.
    ``accept`` masks Halton batches given as one ``(d_i, B)`` column block per box;
    ``margin_fn`` scores a batch's admitted points given as one ``(B, d_i)`` stack per box."""
    if _source is not None:  # a child has made this scan, unless it failed first
        with contextlib.suppress(EOFError, pickle.UnpicklingError):
            return pickle.load(_source)
    dims = [box.shape[0] for box in boxes]
    lo = np.concatenate([box[:, 0] for box in boxes])
    hi = np.concatenate([box[:, 1] for box in boxes])
    halton = Halton(int(sum(dims)), sample.seed)
    splits = np.cumsum(dims)[:-1]

    tested = skipped = draws = 0
    worst, worst_pt = -math.inf, None
    max_draws = max(_MAX_DRAW_FACTOR * sample.n_points, 100_000)
    while tested < sample.n_points and draws < max_draws:
        batch = halton.random(min(_BATCH, max_draws - draws))
        draws += batch.shape[0]
        parts = np.split(lo + batch * (hi - lo), splits, axis=1)
        admitted = np.flatnonzero(accept(*(p.T for p in parts)))[:sample.n_points - tested]
        end = admitted[-1] + 1 if tested + admitted.size == sample.n_points else len(batch)
        skipped += int(end) - admitted.size
        tested += admitted.size
        if admitted.size:
            stacks = [p[admitted] for p in parts]
            values = _margins(name, margin_fn, stacks)
            if values[i := values.argmax()] > worst:
                worst, worst_pt = float(values[i]), tuple(s[i].tolist() for s in stacks)
    report = CheckReport(name=name, points_tested=tested, skipped=skipped,
                         worst_margin=None if worst_pt is None else worst,
                         worst_point=worst_pt, seed=sample.seed)
    if _sink is not None:
        pickle.dump(report, _sink)
        _sink.flush()
    return report


def _run_checks(checks: Sequence[Callable], plant: PlantModel, assm: AssumptionData,
                sample: SampleSpec) -> list[CheckReport]:
    """``[check(plant, assm, sample) for check in checks]``, the scans of each contiguous
    block of checks after the first, one block per usable core, made ahead in a forked
    child (user callables need not pickle).  A later block's scans take its child's reports
    in order, so a check must make the same scans in each process."""
    global _sink, _source
    blocks = 1
    if hasattr(os, "fork") and threading.active_count() == 1:  # forking threads is unsafe
        blocks = max(1, min(_usable_cores(), len(checks)))
    bounds = [len(checks) * i // blocks for i in range(blocks + 1)]
    pids, sources = [], [None] * bounds[1]  # per check: the pipe of its block's child
    try:
        for i in range(1, blocks):
            read_fd, write_fd = os.pipe()
            sources += [open(read_fd, "rb")] * (bounds[i + 1] - bounds[i])
            try:
                pid = os.fork()
                if pid == 0:  # the child: its whole life is this block
                    try:
                        devnull = os.open(os.devnull, os.O_WRONLY)
                        os.dup2(devnull, 1)
                        os.dup2(devnull, 2)
                        _sink = open(write_fd, "wb")
                        for check in checks[bounds[i]:bounds[i + 1]]:
                            check(plant, assm, sample)
                    finally:
                        os._exit(0)
            finally:
                os.close(write_fd)
            pids.append(pid)
        reports = []
        for check, source in zip(checks, sources):
            _source = source
            reports.append(check(plant, assm, sample))
        return reports
    finally:  # no child outlives the call
        _source = None
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for source in set(sources) - {None}:
            source.close()


def check_absorbing_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec) -> CheckReport:
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
                           sample: SampleSpec) -> CheckReport:
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
                               sample: SampleSpec) -> CheckReport:
    """Output-injection contraction over observer set x plant set x inputs."""
    return _run_sampled_check(
        "observer_contraction",
        *_observer_region(plant, assm),
        lambda z, x, u: observer_contraction_margin(plant, assm, z, x, u),
        sample)


def check_growth_bound(plant: PlantModel, assm: AssumptionData,
                       sample: SampleSpec) -> CheckReport:
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
                                sample: SampleSpec) -> CheckReport:
    """Corrected-gain contraction over observer set x plant set x inputs."""
    return _run_sampled_check(
        "corrected_contraction",
        *_observer_region(plant, assm),
        lambda z, x, u: corrected_contraction_margin(plant, assm, z, x, u),
        sample)


def check_corrected_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec) -> CheckReport:
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


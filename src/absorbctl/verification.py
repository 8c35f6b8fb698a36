"""Sampled certificate checks with reproducible reports, plus the predictor
convergence study.

Every check draws a seeded low-discrepancy sample over axis-aligned boxes
bounding the relevant sublevel sets, rejects points that fail the side
conditions of the inequality being tested, and reports the worst margin
found.  Margins are written so that negative means the inequality holds
with room to spare; a check passes when the worst margin does not exceed
``TOLERANCE``.  Identical seeds give identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, InsufficientSampleError, NonFiniteError
from .model import AssumptionData, InputHistory, PlantModel, clamp_input
from .observer import observer_correction
from .predictor import euler_predict
from .rk4 import flow_on_history

__all__ = [
    "SampleSpec",
    "CheckReport",
    "sublevel_box",
    "check_zeta_bound",
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
    "predictor_convergence_study",
]

_BATCH = 4096
TOLERANCE = 1e-9  # largest worst margin a passing check may report
UPPER_LEVEL = 100.0  # Lyapunov level capping regions unbounded above
_MAX_DRAW_FACTOR = 50  # a check gives up after this many candidates per point
_MAX_RADIUS = 1e9  # a sublevel set reaching this far counts as unbounded
_OUTPUT_GRID = 5  # lattice points per axis when bounding the sampled outputs
_OUTPUT_PAD = 1.0  # added to each half-width of the sampled-output box
_REF_SUBSTEP = 1e-4  # longest RK4 step of the predictor study's reference flow


@dataclass(frozen=True)
class SampleSpec:
    """How a sampled check draws its points.

    ``n_points`` admissible points are evaluated (drawing stops early only
    when ``_MAX_DRAW_FACTOR * n_points`` candidates have been rejected).
    ``min_points`` > 0 turns an all-skipped run into an error instead of a
    vacuous pass.
    """

    n_points: int = 10_000
    seed: int = 0
    min_points: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass
class CheckReport:
    """Outcome of one sampled check; ``passed`` iff the worst margin (if
    any point was admissible) does not exceed the tolerance; ``vacuous``
    marks a pass with no admissible point tested."""

    name: str
    points_tested: int
    skipped: int
    worst_margin: float | None
    worst_point: tuple | None
    passed: bool
    tolerance: float
    seed: int

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
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


def check_zeta_bound(zeta: float) -> bool:
    """Gate on the planar example's gain parameter."""
    if zeta <= 0.0:
        raise ConfigurationError("zeta must be positive")
    return 25001.0 * zeta ** 2 + 2.0 * zeta <= 4.0


def sublevel_box(level_fn: Callable[[np.ndarray], float], level: float,
                 dim: int) -> np.ndarray:
    """Axis-aligned box bounding a sublevel set's extent along each axis.

    Found by doubling out from the origin and bisecting the crossing on
    every half-axis.  For level functions whose sublevel sets bulge between
    the axes the box may under-cover; for radially monotone ones it is
    tight.
    """
    if float(level_fn(np.zeros(dim))) > level:
        raise ConfigurationError("origin must belong to the sublevel set")
    box = np.empty((dim, 2))
    for i in range(dim):
        for sign, col in ((-1.0, 0), (1.0, 1)):
            axis = np.zeros(dim)
            axis[i] = sign
            hi = 1.0
            while float(level_fn(hi * axis)) <= level:
                hi *= 2.0
                if hi > _MAX_RADIUS:
                    raise ConfigurationError(
                        "sublevel set appears unbounded along a coordinate axis"
                    )
            lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(level_fn(mid * axis)) <= level:
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
        amp = np.maximum(amp, np.abs(plant.h(np.array(pt))))
    half = 2.0 * amp + _OUTPUT_PAD
    return np.column_stack([-half, half])


# --- margins: negative means the certified inequality holds at the point ---
# the callables may return lists, so products and sums of their results are
# taken with np.dot, np.add and np.subtract

def absorbing_dissipation_margin(plant: PlantModel, assm: AssumptionData, x, u) -> float:
    """Drift of the Lyapunov function plus the required dissipation."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    return float(np.dot(assm.grad_lyapunov(x), plant.f(x, u)) + assm.dissipation(x))


def local_controller_margin(plant: PlantModel, assm: AssumptionData, x) -> float:
    """Worse of the local decay margin (under the clamped local controller)
    and the coercivity margin of the local Lyapunov function."""
    x = np.asarray(x, dtype=float)
    u = clamp_input(assm.local_controller(x), plant.input_box)
    xsq = x.dot(x)
    decay = np.dot(assm.grad_local_lyapunov(x), plant.f(x, u)) + 2.0 * assm.local_decay * xsq
    coercive = assm.coercivity * xsq - assm.local_lyapunov(x)
    return float(max(decay, coercive))


def observer_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Metric contraction of the plain output-injection error dynamics."""
    z, x, u = (np.asarray(v, dtype=float) for v in (z, x, u))
    d = z - x
    drift = np.add(plant.f(z, u), assm.observer_gain.dot(np.subtract(plant.h(z), plant.h(x))))
    drift_gap = np.subtract(drift, plant.f(x, u))
    return float(d.dot(assm.error_metric.dot(drift_gap)) + assm.contraction_rate * d.dot(d))


def growth_bound_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Conditional growth bound for the blending band; only meaningful where
    the Lyapunov gradient at z opposes the metric error direction."""
    z, x, u = (np.asarray(v, dtype=float) for v in (z, x, u))
    grad = np.asarray(assm.grad_lyapunov(z))
    drift = np.add(plant.f(z, u), assm.observer_gain.dot(np.subtract(plant.h(z), plant.h(x))))
    d = z - x
    numer = d.dot(assm.error_metric.dot(np.subtract(drift, plant.f(x, u))))
    denom = grad.dot(assm.error_metric.dot(d))
    ratio_term = (1.0 - assm.contraction_frac) * grad.dot(grad) * numer / denom
    return float(grad.dot(drift) + assm.dissipation(z) - ratio_term)


def corrected_contraction_margin(plant: PlantModel, assm: AssumptionData, z, x, u) -> float:
    """Metric contraction, at ``contraction_frac`` of the certified rate, of
    the corrected observer against the true state, whose output it samples."""
    z, x, u = (np.asarray(v, dtype=float) for v in (z, x, u))
    fz = plant.f(z, u)
    corr = observer_correction(z.tolist(), plant.h(x.tolist()), fz, plant, assm)
    d = z - x
    drift_gap = np.subtract(np.add(fz, corr), plant.f(x, u))
    return float(d.dot(assm.error_metric.dot(drift_gap))
                 + assm.contraction_frac * assm.contraction_rate * d.dot(d))


def corrected_dissipation_margin(plant: PlantModel, assm: AssumptionData, z, w, u,
                                 zero_damping: bool = False) -> float:
    """Lyapunov drift of the corrected observer given an arbitrary measured
    output; ``zero_damping`` ablates the damping term."""
    z, w, u = (np.asarray(v, dtype=float) for v in (z, w, u))
    fz = plant.f(z, u)
    if zero_damping:
        corr = assm.observer_gain.dot(np.subtract(plant.h(z), w))
    else:
        corr = observer_correction(z.tolist(), w.tolist(), fz, plant, assm)
    return float(np.dot(assm.grad_lyapunov(z), np.add(fz, corr)) + assm.dissipation(z))


# --- sampled check driver ---

def _run_sampled_check(name: str, boxes: Sequence[np.ndarray], accept, margin_fn,
                       sample: SampleSpec) -> CheckReport:
    """``accept`` masks Halton batches given as one ``(d_i, B)`` column block per
    box; ``margin_fn`` then takes one ``(d_i,)`` row per box, in draw order."""
    from scipy.stats import qmc  # deferred: slow to import, and only the checks use it

    if sample.n_points < 1:
        raise ConfigurationError("sampler must request at least one point")
    dims = [box.shape[0] for box in boxes]
    lo = np.concatenate([box[:, 0] for box in boxes])
    hi = np.concatenate([box[:, 1] for box in boxes])
    halton = qmc.Halton(d=int(sum(dims)), seed=sample.seed)
    splits = np.cumsum(dims)[:-1]

    tested = 0
    skipped = 0
    worst: float | None = None
    worst_pt: tuple | None = None
    max_draws = max(_MAX_DRAW_FACTOR * sample.n_points, 100_000)
    draws = 0
    while tested < sample.n_points and draws < max_draws:
        batch = halton.random(min(_BATCH, max_draws - draws))
        draws += batch.shape[0]
        parts = np.split(lo + batch * (hi - lo), splits, axis=1)
        admitted = np.flatnonzero(accept(*(p.T for p in parts)))[:sample.n_points - tested]
        stop = admitted[-1] + 1 if tested + admitted.size == sample.n_points else len(batch)
        skipped += int(stop) - admitted.size
        tested += admitted.size
        for point in zip(*(p[admitted] for p in parts)):
            value = float(margin_fn(*point))
            if not math.isfinite(value):
                raise NonFiniteError(f"{name}: margin {value} at point "
                                     f"{[p.tolist() for p in point]}")
            if worst is None or value > worst:
                worst, worst_pt = value, tuple(p.copy() for p in point)
    if tested < sample.min_points:
        raise InsufficientSampleError(
            f"{name}: only {tested} admissible points found "
            f"({skipped} skipped), needed {sample.min_points}"
        )
    passed = worst is None or worst <= TOLERANCE
    return CheckReport(name=name, points_tested=tested, skipped=skipped,
                       worst_margin=worst, worst_point=worst_pt, passed=passed,
                       tolerance=TOLERANCE, seed=sample.seed)


def check_absorbing_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Dissipation outside the absorbing set, sampled up to the sampler's
    upper Lyapunov level and over the whole input box."""
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
    x_box = sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n)
    return _run_sampled_check(
        "local_controller",
        [x_box],
        lambda x: assm.lyapunov(x) <= assm.absorbing_level,
        lambda x: local_controller_margin(plant, assm, x),
        sample)


def check_observer_contraction(plant: PlantModel, assm: AssumptionData,
                               sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Output-injection contraction over observer set x plant set x inputs."""
    z_box = sublevel_box(assm.lyapunov, assm.blend_hi, plant.n)
    x_box = sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n)
    return _run_sampled_check(
        "observer_contraction",
        [z_box, x_box, plant.input_box],
        lambda z, x, u: ((assm.lyapunov(z) <= assm.blend_hi)
                         & (assm.lyapunov(x) <= assm.absorbing_level)),
        lambda z, x, u: observer_contraction_margin(plant, assm, z, x, u),
        sample)


def check_growth_bound(plant: PlantModel, assm: AssumptionData,
                       sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Conditional growth bound on the blending band.

    Points failing any side condition are skipped and counted.  If no
    admissible point exists the bound holds vacuously and the report
    passes with zero points tested (set ``min_points`` to demand more).
    """
    z_box = sublevel_box(assm.lyapunov, assm.blend_hi, plant.n)
    x_box = sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n)

    def accept(z, x, u):
        level = assm.lyapunov(z)
        descent = (np.asarray(assm.grad_lyapunov(z)) * (assm.error_metric @ (z - x))).sum(axis=0)
        return ((assm.blend_lo < level) & (level <= assm.blend_hi)
                & (assm.lyapunov(x) <= assm.absorbing_level) & (descent < 0.0))

    return _run_sampled_check(
        "observer_growth_bound",
        [z_box, x_box, plant.input_box],
        accept,
        lambda z, x, u: growth_bound_margin(plant, assm, z, x, u),
        sample)


def check_corrected_contraction(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec()) -> CheckReport:
    """Corrected-gain contraction over observer set x plant set x inputs."""
    z_box = sublevel_box(assm.lyapunov, assm.blend_hi, plant.n)
    x_box = sublevel_box(assm.lyapunov, assm.absorbing_level, plant.n)
    return _run_sampled_check(
        "corrected_contraction",
        [z_box, x_box, plant.input_box],
        lambda z, x, u: ((assm.lyapunov(z) <= assm.blend_hi)
                         & (assm.lyapunov(x) <= assm.absorbing_level)),
        lambda z, x, u: corrected_contraction_margin(plant, assm, z, x, u),
        sample)


def check_corrected_dissipation(plant: PlantModel, assm: AssumptionData,
                                sample: SampleSpec = SampleSpec(),
                                zero_damping: bool = False) -> CheckReport:
    """Corrected-observer dissipation above the upper blending level, with
    the measured output free to roam an inflated output box."""
    z_box = sublevel_box(assm.lyapunov, UPPER_LEVEL, plant.n)
    w_box = _output_box(plant, z_box)
    name = "corrected_dissipation_no_damping" if zero_damping else "corrected_dissipation"
    return _run_sampled_check(
        name,
        [z_box, w_box, plant.input_box],
        lambda z, w, u: ((assm.blend_hi <= assm.lyapunov(z))
                         & (assm.lyapunov(z) <= UPPER_LEVEL)),
        lambda z, w, u: corrected_dissipation_margin(plant, assm, z, w, u,
                                                     zero_damping=zero_damping),
        sample)


def predictor_convergence_study(plant: PlantModel, x0, hist: InputHistory,
                                N_list: Sequence[int]) -> list[tuple[int, float]]:
    """Predictor error against a reference flow for each step count.

    The reference integrates the plant over the delay window ending at
    ``hist.t_now`` with fourth-order steps no longer than ``_REF_SUBSTEP``,
    split exactly at the input record's segment boundaries.  An overflow in
    ``f``, or a reference or prediction that is not finite, raises
    ``NonFiniteError``.
    """
    try:
        reference = flow_on_history(plant, x0, hist, hist.t_now - plant.delay_window,
                                    hist.t_now, _REF_SUBSTEP)
        predictions = [euler_predict(x0, hist, int(N), plant) for N in N_list]
    except OverflowError as exc:
        raise NonFiniteError(f"predictor study: a state overflowed ({exc})") from None
    # an inf from a product, such as 10 * x1 ** 3, raises nothing on floats
    if not all(map(math.isfinite, itertools.chain(reference, *predictions))):
        raise NonFiniteError("predictor study: a state is not finite")
    return [(int(N), float(np.linalg.norm(np.subtract(reference, predicted))))
            for N, predicted in zip(N_list, predictions)]

"""Observer correction with blended damping.

The correction steers the observer with the output innovation; outside the
absorbing sublevel set a damping term is subtracted along the Lyapunov
gradient so that the observer state dissipates no slower than the plant
would.  The damping is blended in smoothly between two Lyapunov levels so
the correction stays continuous across the absorbing boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGradientError
from .model import AssumptionData, PlantModel, matvec

__all__ = [
    "BlendingFn",
    "blend_p",
    "damping_term",
    "observer_correction",
    "output_injection",
]

_GRAD_FLOOR = 1e-12


@dataclass(frozen=True)
class BlendingFn:
    """Piecewise-linear ramp: 0 below ``lo``, 1 above ``hi``, linear between;
    ``build_planar_example`` returns its certificate's levels as one."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError("blending levels must satisfy lo < hi")


def blend_p(level: float, assm: AssumptionData) -> float:
    """The certificate's blending ramp at a Lyapunov level: 0 up to
    ``assm.blend_lo``, 1 from ``assm.blend_hi``, linear between."""
    lo, hi = assm.blend_lo, assm.blend_hi
    if level <= lo:
        return 0.0
    if level >= hi:
        return 1.0
    return (level - lo) / (hi - lo)


def damping_term(z, fz, grad, level, innovation, assm: AssumptionData) -> float:
    """Nonnegative damping coefficient for the observer correction.

    Measures how much the innovation-driven observer would violate the
    dissipation certificate at the observer state ``z``, whose plant-copy
    drift is ``fz = f(z, u)``; clipped at zero when no violation is
    possible.  ``grad``, ``level`` and ``innovation`` are grad V(z), V(z)
    and the output injection L (h(z) - y) for the measured output y, as
    ``observer_correction`` has already computed them (``grad`` an ndarray).
    """
    inner = (grad.dot(fz) + assm.dissipation(z)
             + blend_p(level, assm) * grad.dot(innovation))
    return max(0.0, float(inner))


def output_injection(z, y, plant: PlantModel, assm: AssumptionData) -> list[float]:
    """The output injection ``L (h(z) - y)`` as a list, in ``matvec``'s order."""
    return matvec(assm.gain_rows, [a - b for a, b in zip(plant.h(z), y)])


def observer_correction(z, y, fz, plant: PlantModel, assm: AssumptionData) -> list[float]:
    """Correction added to the observer drift, as a list, for ``z``
    (observer state), ``y`` (measured output) and ``fz`` (the drift
    ``f(z, u)`` of the observer's plant copy, which the caller holds).

    Inside the absorbing sublevel set this is the plain output-injection
    term ``output_injection(z, y, plant, assm)``; outside, the damping
    coefficient over the squared gradient norm (products by ``ndarray.dot``)
    is subtracted along the Lyapunov gradient.  Raises
    ``DegenerateGradientError`` if that direction is undefined.
    """
    innovation = output_injection(z, y, plant, assm)
    level = assm.lyapunov(z)
    if level <= assm.absorbing_level:
        return innovation
    grad = np.asarray(assm.grad_lyapunov(z))
    grad_sq = float(grad.dot(grad))
    if math.sqrt(grad_sq) < _GRAD_FLOOR:
        raise DegenerateGradientError(
            "Lyapunov gradient vanishes outside the absorbing set; "
            "damping direction undefined"
        )
    scale = damping_term(z, fz, grad, level, innovation, assm) / grad_sq
    return [a - scale * g for a, g in zip(innovation, grad.tolist())]

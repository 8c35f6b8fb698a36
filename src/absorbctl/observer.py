"""Observer correction with blended damping.

The correction steers the observer with the output innovation; outside the
absorbing sublevel set a damping term is subtracted along the Lyapunov
gradient so that the observer state dissipates no slower than the plant
would.  The damping is blended in smoothly between the certificate's two
Lyapunov levels so the correction stays continuous across the absorbing boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGradientError, NonFiniteError
from .model import AssumptionData, at_rows

__all__ = [
    "blend_p",
    "damping_term",
    "observer_correction",
]

_GRAD_FLOOR = 1e-12


def blend_p(level, assm: AssumptionData):
    """The certificate's blending ramp at a Lyapunov level, or elementwise at
    an array of them: 0 up to ``assm.blend_lo``, 1 from ``assm.blend_hi``,
    linear between; NaN at a NaN level."""
    lo, hi = assm.blend_lo, assm.blend_hi
    return np.clip((level - lo) / (hi - lo), 0.0, 1.0)


def damping_term(z, fz, grad, level, innovation, assm: AssumptionData) -> np.ndarray:
    """Nonnegative damping coefficient for the observer correction at each
    observer state, a row of the ``(B, n)`` stack ``z`` (or of its rows as lists).

    Measures how much the innovation-driven observer would violate the
    dissipation certificate there, given per row the plant-copy drift
    ``fz = f(z, u)``, grad V(z) as ``grad`` (``(B, n)`` stacks), ``level`` =
    V(z) and the output injection ``innovation``; clipped at zero when no
    violation is possible.  A violation that is not finite raises
    ``NonFiniteError`` naming the first such z, where the clip would make NaN 0.
    """
    inner = (np.vecdot(grad, fz) + at_rows(assm.dissipation, z)
             + blend_p(level, assm) * np.vecdot(grad, innovation))
    if not (finite := np.isfinite(inner)).all():
        i = finite.argmin()
        raise NonFiniteError(f"observer damping is {inner[i]} at z={list(map(float, z[i]))}")
    return np.maximum(inner, 0.0)


def observer_correction(z, innovation, level, fz, assm: AssumptionData) -> np.ndarray:
    """Correction added to the observer drift at each observer state, a row
    of the list ``z`` of rows (lists of floats), as a ``(B, n)`` array, from what
    its caller holds per row: the output injection ``innovation`` = L (h(z) - y),
    ``level`` = V(z) and the plant copy's drift ``fz`` = f(z, u).  Inside the
    absorbing sublevel set a row is the injection itself; outside, also at a NaN
    ``level``, the damping coefficient over the squared gradient norm
    (products by ``np.vecdot``) is subtracted along the Lyapunov gradient,
    which is evaluated at those rows alone.  Raises ``NonFiniteError`` if
    the damping is not finite, ``DegenerateGradientError`` if its direction is undefined.
    """
    corr = np.array(innovation, dtype=float)
    level = np.asarray(level, dtype=float)
    outside = ~(level <= assm.absorbing_level)
    if outside.any():
        z = [row for row, out in zip(z, outside) if out]
        grad = at_rows(assm.grad_lyapunov, z)
        grad_sq = np.vecdot(grad, grad)
        if (np.sqrt(grad_sq) < _GRAD_FLOOR).any():
            raise DegenerateGradientError("Lyapunov gradient vanishes outside the absorbing set; "
                                          "damping direction undefined")
        damping = damping_term(z, np.asarray(fz, dtype=float)[outside], grad, level[outside],
                               corr[outside], assm)
        corr[outside] -= (damping / grad_sq)[:, None] * grad
    return corr

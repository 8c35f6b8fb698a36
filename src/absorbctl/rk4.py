"""Fixed-step classic Runge-Kutta integration, aligned to breakpoints.

All integrators in this package are fixed-step on purpose: resets and input
switches are applied exactly at known times, so spans between breakpoints
are smooth and a fourth-order fixed step converges cleanly under grid
refinement.  Adaptive steppers would trade that determinism away.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import CoverageError
from .model import InputHistory, PlantModel

__all__ = ["rk4_step", "integrate_span", "flow_on_history"]


def rk4_step(rhs: Callable[[float, list[float]], list[float]],
             t: float, y: list[float], dt: float) -> list[float]:
    """One classic fourth-order step of a list of floats, entry by entry in
    the order of ``y + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``; ``rhs`` returns a list."""
    half = 0.5 * dt
    k1 = rhs(t, y)
    k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
    sixth = dt / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def integrate_span(rhs, t0: float, t1: float, y0: list[float], dt_max: float,
                   on_node=None) -> list[float]:
    """Integrate over ``[t0, t1]`` with uniform substeps no longer than
    ``dt_max``; the final substep lands exactly on ``t1``.  ``on_node`` is
    called with ``(t, y)`` after every substep."""
    if t1 < t0:
        raise CoverageError("reversed integration span")
    if t1 == t0:
        return y0
    n_sub = max(1, math.ceil((t1 - t0) / dt_max))
    dt = (t1 - t0) / n_sub
    y = y0
    for i in range(n_sub):
        t_a = t0 + i * dt
        y = rk4_step(rhs, t_a, y, dt)
        t_b = t1 if i == n_sub - 1 else t0 + (i + 1) * dt
        if on_node is not None:
            on_node(t_b, y)
    return y


def flow_on_history(plant: PlantModel, x0, hist: InputHistory, t_start: float,
                    t_end: float, substep: float) -> list[float]:
    """Reference flow (a list) of ``xdot = f(x, u(t))``, ``u`` read from ``hist``.

    Integration spans are split exactly at the input record's segment
    boundaries, so each span sees a constant input and no discontinuity is
    stepped across.
    """
    x = [float(v) for v in x0]
    # the right side ignores t, so each piece is integrated over (0, length)
    for value, length in hist.iter_segments(t_start, t_end):
        x = integrate_span(lambda _t, y, u=value: plant.f(y, u), 0.0, length, x, substep)
    return x

"""Fixed-step classic Runge-Kutta integration, aligned to breakpoints.

All integrators in this package are fixed-step on purpose: resets and input
switches are applied exactly at known times, so spans between breakpoints
are smooth and each span is fourth order.  The delayed loop is not yet: a
reset reads x(t_k - r) off the state record by linear interpolation, so
runs converge at order ~1.5-2.8 under grid refinement.  Adaptive steppers
would trade the determinism away.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .errors import CoverageError
from .model import InputHistory, PlantModel

__all__ = ["rk4_steps", "integrate_span", "flow_on_history"]


def rk4_steps(rhs: Callable[[list[float]], list[float]], y: list[float], dt: float,
              n_sub: int) -> tuple[list[float], list]:
    """``n_sub`` classic RK4 steps of a list of floats from ``y``, each entry by entry in
    the order of ``y + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, and the state after each: a span
    once ``rhs(y) -> list`` is bound.  A span's right side does not depend on time."""
    half, sixth = 0.5 * dt, dt / 6.0
    nodes = []
    for _ in range(n_sub):
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        nodes.append(y)
    return y, nodes


def integrate_span(span, t0: float, t1: float, y0: list[float],
                   dt_max: float) -> tuple[list[float], list[float], list]:
    """Integrate over ``[t0, t1]`` in ``n_sub = max(1, ceil((t1 - t0)/dt_max))``
    substeps of ``dt = (t1 - t0)/n_sub`` by one call ``span(y0, dt, n_sub) ->
    (y, nodes)``, such as ``partial(rk4_steps, rhs)``.  Returns ``(y, times, nodes)``,
    node ``i`` at ``times[i] = t0 + (i + 1) dt``, the last at ``t1`` exactly."""
    if t1 < t0:
        raise CoverageError("reversed integration span")
    if t1 == t0:
        return y0, [], []
    n_sub = max(1, math.ceil((t1 - t0) / dt_max))
    dt = (t1 - t0) / n_sub
    y, nodes = span(y0, dt, n_sub)
    return y, [t0 + i * dt for i in range(1, n_sub)] + [t1], nodes


def flow_on_history(plant: PlantModel, x0, hist: InputHistory, t_start: float,
                    t_end: float, substep: float) -> list[float]:
    """Reference flow (a list) of ``xdot = f(x, u(t))``, ``u`` read from ``hist``.

    Integration spans are split exactly at the input record's segment
    boundaries, so each span sees a constant input, a copy of the record's,
    and no discontinuity is stepped across.
    """
    x = [float(v) for v in x0]
    for value, length in hist.iter_segments(t_start, t_end):
        x = integrate_span(partial(rk4_steps, lambda y, u=[*value]: plant.f(y, u)),
                           0.0, length, x, substep)[0]
    return x

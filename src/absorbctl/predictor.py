"""Explicit Euler state prediction across the total delay window.

The predictor advances the observer state over one delay window using N
explicit Euler steps; within each step the vector field is integrated
exactly over the piecewise-constant input record, never by quadrature, so
the only error is the first-order Euler truncation.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .model import InputHistory, PlantModel

__all__ = ["euler_predict"]


def euler_predict(x0, hist: InputHistory, N: int, plant: PlantModel,
                  t_pred: float | None = None) -> list[float]:
    """Predict the state (a list) one delay window ahead of ``t_pred - (r + tau)``.

    ``hist`` must cover ``[t_pred - (r + tau), t_pred)`` (CoverageError
    otherwise); ``t_pred`` defaults to the record's current time.  The N
    steps and their input pieces are those of ``hist.step_pieces``; a step
    adds ``0.0 + f(x, u_1) * len_1 + ...`` to each entry of x.  With no
    delay the prediction is the initial state itself.
    """
    if N < 1:
        raise ConfigurationError("predictor step count N must be at least 1")
    x = [float(v) for v in x0]
    if plant.delay_window == 0.0:
        return x
    if t_pred is None:
        t_pred = hist.t_now
    f = plant.f
    for pieces in hist.step_pieces(t_pred - plant.delay_window, t_pred, N):
        increment = [0.0] * len(x)
        for value, length in pieces:
            increment = [a + b * length for a, b in zip(increment, f(x, value))]
        x = [a + b for a, b in zip(x, increment)]
    return x

"""Explicit Euler state prediction across the delay window, and its convergence study.

The predictor advances the observer state over one delay window using N
explicit Euler steps; within each step the vector field is integrated
exactly over the piecewise-constant input record, never by quadrature, so
the only error is the first-order Euler truncation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NonFiniteError
from .model import InputHistory, PlantModel
from .rk4 import flow_on_history

__all__ = ["euler_predict", "predictor_convergence_study"]

_REF_SUBSTEP = 1e-4  # longest RK4 step of the predictor study's reference flow


def euler_predict(x0, hist: InputHistory, N: int, plant: PlantModel) -> list[float]:
    """Predict the state (a list) one delay window ahead of ``x0``.

    ``hist`` must cover ``[t_now - (r + tau), t_now)``, ``t_now`` its current
    time (CoverageError otherwise).  The N steps and their input pieces are those of
    ``hist.step_pieces``; a step adds ``0.0 + f(x, u_1) * len_1 + ...`` to
    each entry of x.  With no delay the prediction is ``x0`` itself.
    """
    if N < 1:
        raise ConfigurationError("predictor step count N must be at least 1")
    x = [float(v) for v in x0]
    if plant.delay_window == 0.0:
        return x
    f = plant.f
    for pieces in hist.step_pieces(hist.t_now - plant.delay_window, hist.t_now, N):
        increment = [0.0] * len(x)
        for value, length in pieces:
            increment = [a + b * length for a, b in zip(increment, f(x, value))]
        x = [a + b for a, b in zip(x, increment)]
    return x


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
    if not (np.isfinite(reference).all() and np.isfinite(predictions).all()):
        raise NonFiniteError("predictor study: a state is not finite")
    return [(int(N), float(np.linalg.norm(np.subtract(reference, predicted))))
            for N, predicted in zip(N_list, predictions)]

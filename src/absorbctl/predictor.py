"""Explicit Euler state prediction across the delay window, and its convergence study.

The predictor advances the observer state over one delay window using N
explicit Euler steps; within each step the vector field is integrated
exactly over the piecewise-constant input record, never by quadrature, so
the only error is the first-order Euler truncation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .kernels import loop_kernels
from .model import InputHistory, PlantModel, check_count
from .rk4 import flow_on_history

__all__ = ["euler_predict", "predictor_convergence_study"]

_REF_SUBSTEP = 1e-4  # longest RK4 step of the predictor study's reference flow


def euler_predict(x0, hist: InputHistory, N: int, plant: PlantModel) -> list[float]:
    """Predict the state (a list) one delay window ahead of ``x0``.

    ``hist`` must cover ``[t_now - (r + tau), t_now)``, ``t_now`` its current
    time (CoverageError otherwise).  The window is cut into N equal steps,
    the last ending at ``t_now`` exactly, and each step into the parts of
    the input segments inside it; a step adds ``0.0 + f(x, u_1) * len_1 +
    ...`` to each entry of x, one term per part.  The generated kernel walks
    the record's lists itself.  With no delay the prediction is ``x0`` itself.
    """
    check_count("N", N, 1)
    x = [float(v) for v in x0]
    if plant.delay_window == 0.0:
        return x
    t0, t1 = hist.window(hist.t_now - plant.delay_window, hist.t_now)
    return loop_kernels(plant.n, plant.k_out).euler(plant.f, x, hist.starts, hist.values,
                                                    t0, t1, N)


def predictor_convergence_study(plant: PlantModel, x0, hist: InputHistory,
                                N_list: Sequence[int]) -> list[tuple[int, float]]:
    """Predictor error against a reference flow for each step count.

    The reference integrates the plant over the delay window ending at
    ``hist.t_now`` with fourth-order steps no longer than ``_REF_SUBSTEP``,
    split exactly at the input record's segment boundaries.  A step count
    below 1 or not an integer raises ``ConfigurationError``; an overflow in
    ``f``, or a reference or prediction that is not finite, ``NonFiniteError``.
    """
    counts = [check_count("N", N, 1) for N in N_list]
    try:
        reference = flow_on_history(plant, x0, hist, hist.t_now - plant.delay_window,
                                    hist.t_now, _REF_SUBSTEP)
        predictions = [euler_predict(x0, hist, N, plant) for N in counts]
    except OverflowError as exc:
        raise NonFiniteError(f"predictor study: a state overflowed ({exc})") from None
    # an inf from a product, such as 10 * x1 ** 3, raises nothing on floats
    if not (np.isfinite(reference).all() and np.isfinite(predictions).all()):
        raise NonFiniteError("predictor study: a state is not finite")
    return [(N, float(np.linalg.norm(np.subtract(reference, predicted))))
            for N, predicted in zip(counts, predictions)]

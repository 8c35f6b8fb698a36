"""Delay-free control law applied through the predictor and held between updates."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError
from .model import AssumptionData, InputHistory, PlantModel, clamp_input
from .predictor import euler_predict

__all__ = ["hold_control"]


def hold_control(z_at_hold, hist: InputHistory, N: int, plant: PlantModel,
                 assm: AssumptionData) -> np.ndarray:
    """Input value for the next hold interval.

    Predicts the state one delay window ahead of the observer state
    ``z_at_hold`` (only read) at the hold instant ``hist.t_now``, evaluates
    the local controller there, and projects the result onto the input box.
    ``hist`` is the open input record up to the hold instant.  Without
    delays the prediction is ``z_at_hold`` itself, so this is the clamped
    local controller there.  A prediction or controller value that is not
    finite raises ``NonFiniteError`` before the clamp maps inf into the box.
    """
    predicted = euler_predict(z_at_hold, hist, N, plant)
    raw = assm.local_controller(predicted)
    if not all(map(math.isfinite, [*predicted, *raw])):
        raise NonFiniteError(f"held input not finite at t={hist.t_now!r}: {predicted} -> {raw}")
    return clamp_input(raw, plant.input_box)

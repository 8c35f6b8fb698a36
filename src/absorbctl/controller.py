"""Delay-free control law applied through the predictor and held between updates."""

from __future__ import annotations

import numpy as np

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
    local controller there.
    """
    predicted = euler_predict(z_at_hold, hist, N, plant)
    return clamp_input(assm.local_controller(predicted), plant.input_box)

import dataclasses

import numpy as np
import pytest

from absorbctl import (InputHistory, NonFiniteError, build_planar_example, clamp_input,
                       euler_predict, hold_control)
from history_oracles import input_record


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)


@pytest.fixture(scope="module")
def delay_free():
    return build_planar_example(0.01)


def delay_free_hold(z, plant, assm):
    return hold_control(z, InputHistory(0.0), 16, plant, assm)


def test_hold_control_composes_predict_clamp_law(planar):
    plant, assm, _fn = planar
    hist = input_record([(-0.5, [0.1]), (-0.2, [-0.05])])
    z = np.array([0.4, -0.3])
    predicted = euler_predict(z, hist, 32, plant)
    expected = clamp_input(assm.local_controller(predicted), plant.input_box)
    got = hold_control(z, hist, 32, plant, assm)
    assert (got == expected).all()


def test_hold_control_saturates(delay_free):
    plant, assm, _fn = delay_free
    # the cubic term dominates at x1 = 2: raw value 1.4056 exceeds the box
    raw = assm.local_controller(np.array([2.0, 0.0]))[0]
    assert raw == pytest.approx(-0.75 * 0.01 * 12.96 * 2.0 + 20.0 * 0.01 * 8.0, rel=1e-14)
    got = delay_free_hold([2.0, 0.0], plant, assm)
    assert got[0] == plant.input_box[0, 1]


def test_delay_free_is_plain_law(delay_free):
    plant, assm, _fn = delay_free
    z = np.array([0.3, 0.7])
    got = delay_free_hold(z, plant, assm)
    expected = clamp_input(assm.local_controller(z), plant.input_box)
    assert (got == expected).all()
    # inside the box the clamp is the identity, so this IS the raw law
    assert (got == assm.local_controller(z)).all()


def test_zero_state_zero_input(delay_free):
    plant, assm, _fn = delay_free
    assert (delay_free_hold([0.0, 0.0], plant, assm) == 0.0).all()


@pytest.mark.parametrize("raw", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_value_is_refused_before_the_clamp(delay_free, raw):
    # the clamp maps +-inf onto the box edges, so only the raw value shows it
    plant, assm, _fn = delay_free
    law = dataclasses.replace(assm, local_controller=lambda x: [raw])
    with pytest.raises(NonFiniteError, match=r"^held input not finite at t=0\.0: "):
        delay_free_hold([0.3, 0.7], plant, law)


def test_non_finite_prediction_is_refused(planar):
    plant, assm, _fn = planar
    hist = input_record([(-0.5, [0.1])])
    with pytest.raises(NonFiniteError, match=r"^held input not finite at t=0\.0: "):
        hold_control([float("nan"), 0.0], hist, 8, plant, assm)

"""The planar example in rotated coordinates.

With T the rotation by ANGLE, the copy's plant is f'(x, u) = T f(T'x, u)
with h' = h o T' and jac_h' = jac_h T', its observer gain is T L, and its
local Lyapunov function, that function's gradient and the local controller
are composed with T' (the gradient also turned back by T).  V and W are
rotation invariant and stay as they are, and so does the identity metric.
A run of the copy from T x0 and T z0 is then the planar run turned by T:
the same rows at the same times, the composite norm and the inputs equal,
and the states equal once turned back by T'.  Equal up to rounding only,
as the rotations round; no row may stray by more than 1e-12.
"""

import dataclasses
import math

import numpy as np
import pytest

from test_lifted import CHECKS
from test_verification import _row_by_row

from absorbctl import (InitialData, PlantModel, SampleSpec, build_planar_example,
                       generate_partition, simulate_closed_loop)
from absorbctl import verification as V
from absorbctl.cli import DEFAULTS, _sim_config

ANGLE = 0.6
T = np.array([[math.cos(ANGLE), -math.sin(ANGLE)], [math.sin(ANGLE), math.cos(ANGLE)]])


def rotated(plant, assm):
    """``(plant, assm)`` of the planar example in the coordinates ``T x``."""
    f, h, jac_h = plant.f, plant.h, plant.jac_h
    local, grad_local, control = (assm.local_lyapunov, assm.grad_local_lyapunov,
                                  assm.local_controller)

    def back(x):
        return T.T.dot(x).tolist()

    turned = PlantModel(n=2, m=plant.m, k_out=plant.k_out,
                        f=lambda x, u: T.dot(f(back(x), u)),
                        h=lambda x: h(back(x)),
                        jac_h=lambda x: np.dot(jac_h(back(x)), T.T),
                        input_box=plant.input_box, r=plant.r, tau=plant.tau)
    return turned, dataclasses.replace(
        assm,
        local_lyapunov=lambda x: local(back(x)),
        grad_local_lyapunov=lambda x: T.dot(grad_local(back(x))),
        local_controller=lambda x: control(back(x)),
        observer_gain=T.dot(assm.observer_gain))


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(DEFAULTS["zeta"], b_level=DEFAULTS["b"], c_frac=DEFAULTS["c"],
                                r=DEFAULTS["r"], tau=DEFAULTS["tau"])[:2]


def _run(plant, assm, x0, z0, horizon):
    config = dataclasses.replace(_sim_config(DEFAULTS), horizon=horizon)
    partition = generate_partition(DEFAULTS["T_s"], horizon, config.seed, DEFAULTS["min_frac"])
    return simulate_closed_loop(plant, assm, partition, config, InitialData(x0=x0, z0=z0))


@pytest.mark.parametrize("z0, horizon", [(DEFAULTS["z0"], DEFAULTS["horizon"]), ((3.0, -2.0), 2.0)],
                         ids=["default-40s", "damping-2s"])
def test_rotated_run_is_the_planar_run_turned(planar, z0, horizon):
    # the 2 s run starts at V(z) = 6.5, above blend_hi: the damping branch
    # runs on the rotated gradient and drift
    x0 = DEFAULTS["x0"]
    flat = _run(*planar, x0, z0, horizon)
    turned = _run(*rotated(*planar), T.dot(x0), T.dot(z0), horizon)
    assert turned.t.tobytes() == flat.t.tobytes()
    assert np.max(np.abs(turned.norm - flat.norm) / flat.norm) <= 1e-12
    for name in ("x", "z"):
        assert np.max(np.abs(getattr(turned, name).dot(T) - getattr(flat, name))) <= 1e-12
    for name in ("w", "u_applied"):
        assert np.max(np.abs(getattr(turned, name) - getattr(flat, name))) <= 1e-12
    assert len(turned.reset_records) == len(flat.reset_records)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_rotated_checks_match_the_row_by_row_scan(planar, monkeypatch, check):
    # the rotated gain, metric products and turned callables, stacked and row by row
    plant, assm = rotated(*planar)
    spec = SampleSpec(n_points=2000, seed=0)
    stacked = check(plant, assm, spec).to_dict()
    monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
    assert check(plant, assm, spec).to_dict() == stacked

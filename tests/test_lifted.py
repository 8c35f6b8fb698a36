"""The loop at n = 3: the planar example lifted by a third state.

The lifted plant is the planar one plus x3' = -x3, neither observed nor
controlled.  Its certificate extends V, W and the local V by their x3**2
terms; the observer gain's new row is 0, the metric is I3, and the
coercivity is min(c, 0.5).  With x3(0) = z3(0) = 0 the third state stays
exactly 0, every added term adds an exact 0.0, and so a lifted run must
give the planar run's bits in every recorded column.  This carries the
plant record, the generated kernels and the checks through whole runs at
a second dimension without an oracle of its own.
"""

import dataclasses

import numpy as np
import pytest

from absorbctl import (InitialData, PlantModel, SampleSpec, build_planar_example,
                       check_absorbing_dissipation, check_corrected_contraction,
                       check_corrected_dissipation, check_growth_bound,
                       check_local_controller, check_observer_contraction,
                       generate_partition, simulate_closed_loop)
from absorbctl import verification as V
from absorbctl.cli import DEFAULTS, _sim_config

CHECKS = [check_absorbing_dissipation, check_local_controller, check_observer_contraction,
          check_growth_bound, check_corrected_contraction, check_corrected_dissipation]


def lifted(plant, assm):
    """``(plant, assm)`` of the planar example with the state x3' = -x3 added."""
    f, h, jac_h = plant.f, plant.h, plant.jac_h
    lyap, grad, diss = assm.lyapunov, assm.grad_lyapunov, assm.dissipation
    local, grad_local, control = (assm.local_lyapunov, assm.grad_local_lyapunov,
                                  assm.local_controller)
    plant3 = PlantModel(n=3, m=plant.m, k_out=plant.k_out,
                        f=lambda x, u: [*f(x[:2], u), -x[2]],
                        h=lambda x: h(x[:2]),
                        jac_h=lambda x: [[*row, 0.0] for row in jac_h(x[:2])],
                        input_box=plant.input_box, r=plant.r, tau=plant.tau)
    assm3 = dataclasses.replace(
        assm,
        lyapunov=lambda x: lyap(x[:2]) + 0.5 * x[2] ** 2,
        grad_lyapunov=lambda x: [*grad(x[:2]), x[2]],
        dissipation=lambda x: diss(x[:2]) + 0.125 * x[2] ** 2,
        local_lyapunov=lambda x: local(x[:2]) + 0.5 * x[2] ** 2,
        grad_local_lyapunov=lambda x: [*grad_local(x[:2]), x[2]],
        local_controller=lambda x: control(x[:2]),
        observer_gain=np.vstack([assm.observer_gain, np.zeros((1, plant.k_out))]),
        error_metric=np.eye(3),
        coercivity=min(assm.coercivity, 0.5))
    return plant3, assm3


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(DEFAULTS["zeta"], b_level=DEFAULTS["b"], c_frac=DEFAULTS["c"],
                                r=DEFAULTS["r"], tau=DEFAULTS["tau"])[:2]


def _run(plant, assm, x0, z0, horizon):
    config = dataclasses.replace(_sim_config(DEFAULTS), horizon=horizon)
    partition = generate_partition(DEFAULTS["T_s"], horizon, config.seed, DEFAULTS["min_frac"])
    return simulate_closed_loop(plant, assm, partition, config, InitialData(x0=x0, z0=z0))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("z0, horizon", [(DEFAULTS["z0"], DEFAULTS["horizon"]), ((3.0, -2.0), 2.0)],
                         ids=["default-40s", "damping-2s"])
def test_lifted_run_is_the_planar_run(planar, z0, horizon):
    # the 2 s run starts at V(z) = 6.5, above blend_hi: the damping branch
    # takes its products with ndarray.dot on the 3-vector gradient
    x0 = DEFAULTS["x0"]
    flat = _run(*planar, x0, z0, horizon)
    lift = _run(*lifted(*planar), (*x0, 0.0), (*z0, 0.0), horizon)
    assert _bits(lift.t) == _bits(flat.t)
    for name in ("x", "z"):
        assert _bits(getattr(lift, name)[:, :2]) == _bits(getattr(flat, name))
        assert not getattr(lift, name)[:, 2].any()
    for name in ("w", "u_applied", "lyap_x", "lyap_z", "norm"):
        assert _bits(getattr(lift, name)) == _bits(getattr(flat, name)), name


def test_lifted_third_state_decays_on_its_own(planar):
    # x3(0) = 1: the unobserved state follows exp(-t) and leaves the
    # observer's third state at 0, as the gain row and V's gradient give
    traj = _run(*lifted(*planar), (*DEFAULTS["x0"], 1.0), (*DEFAULTS["z0"], 0.0), 2.0)
    assert traj.x[:, 2] == pytest.approx(np.exp(-traj.t), rel=1e-10)
    assert not traj.z[:, 2].any()


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_lifted_certificate_passes_every_check(planar, monkeypatch, check):
    # and the stacked scan reports what the row-by-row one does, at n = 3
    from test_verification import _row_by_row

    plant, assm = lifted(*planar)
    spec = SampleSpec(n_points=2000, seed=0)
    report = check(plant, assm, spec)
    assert report.passed
    monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
    assert check(plant, assm, spec).to_dict() == report.to_dict()

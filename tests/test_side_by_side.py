"""The loop at m = 2 and k_out = 2: the planar example and a scalar plant side by side.

The joint plant is the planar one plus x3' = -x3 + u2, observed as y2 = x3
and held at u2 = -x3 through the predictor.  Its certificate extends V, W and
the local V by their x3**2 terms; the observer gain's new row is (0, -1), the
new input-box row is [-0.5, 0.5], the metric is I3, and the coercivity is
min(c, 0.5).  With x3(0) = z3(0) = 0 the third state, its observer copy and
u2 stay exactly 0, every added term adds an exact 0.0, and so the joint run
must give the planar run's bits in every planar column, the norm included.
This carries a second input and a second output through whole runs and
through ``_run_checks`` without an oracle of their own.
"""

import dataclasses

import numpy as np
import pytest
from test_lifted import CHECKS, _bits, _run

from absorbctl import PlantModel, build_planar_example
from absorbctl import verification as V
from absorbctl.cli import DEFAULTS


def side_by_side(plant, assm):
    """``(plant, assm)`` of the planar example with the plant x3' = -x3 + u2 added."""
    f, h, jac_h = plant.f, plant.h, plant.jac_h
    lyap, grad, diss = assm.lyapunov, assm.grad_lyapunov, assm.dissipation
    local, grad_local, control = (assm.local_lyapunov, assm.grad_local_lyapunov,
                                  assm.local_controller)
    joint = PlantModel(n=3, m=2, k_out=2,
                       f=lambda x, u: [*f(x[:2], u[:1]), -x[2] + u[1]],
                       h=lambda x: [*h(x[:2]), x[2]],
                       jac_h=lambda x: [[*row, 0.0] for row in jac_h(x[:2])] + [[0.0, 0.0, 1.0]],
                       input_box=np.vstack([plant.input_box, [[-0.5, 0.5]]]),
                       r=plant.r, tau=plant.tau)
    gain = np.zeros((3, 2))
    gain[:2, :1] = assm.observer_gain
    gain[2] = (0.0, -1.0)
    joint_assm = dataclasses.replace(
        assm,
        lyapunov=lambda x: lyap(x[:2]) + 0.5 * x[2] ** 2,
        grad_lyapunov=lambda x: [*grad(x[:2]), x[2]],
        dissipation=lambda x: diss(x[:2]) + 0.125 * x[2] ** 2,
        local_lyapunov=lambda x: local(x[:2]) + 0.5 * x[2] ** 2,
        grad_local_lyapunov=lambda x: [*grad_local(x[:2]), x[2]],
        local_controller=lambda x: [*control(x[:2]), -x[2]],
        observer_gain=gain,
        error_metric=np.eye(3),
        coercivity=min(assm.coercivity, 0.5))
    return joint, joint_assm


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(DEFAULTS["zeta"], b_level=DEFAULTS["b"], c_frac=DEFAULTS["c"],
                                r=DEFAULTS["r"], tau=DEFAULTS["tau"])[:2]


def test_joint_run_is_the_planar_run(planar):
    x0, z0 = DEFAULTS["x0"], DEFAULTS["z0"]
    flat = _run(*planar, x0, z0, 2.0)
    joint = _run(*side_by_side(*planar), (*x0, 0.0), (*z0, 0.0), 2.0)
    assert _bits(joint.t) == _bits(flat.t)
    for name, planar_columns in (("x", 2), ("z", 2), ("w", 1), ("u_applied", 1)):
        column = getattr(joint, name)
        assert _bits(column[:, :planar_columns]) == _bits(getattr(flat, name)), name
        assert not column[:, planar_columns:].any(), name
    for name in ("lyap_x", "lyap_z", "norm"):
        assert _bits(getattr(joint, name)) == _bits(getattr(flat, name)), name


@pytest.mark.parametrize("k", [1, 2])
def test_joint_certificate_gives_the_one_process_reports(planar, monkeypatch, k):
    plant, assm = side_by_side(*planar)
    sample = V.SampleSpec(n_points=2000, seed=0)
    one_by_one = [check(plant, assm, sample) for check in CHECKS]
    monkeypatch.setattr(V, "_usable_cores", lambda: k)
    reports = V._run_checks(CHECKS, plant, assm, sample)
    assert [rep.to_dict() for rep in reports] == [rep.to_dict() for rep in one_by_one]
    assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_joint_checks_match_the_row_by_row_scan(planar, monkeypatch, check):
    # two inputs and two outputs through the stacked margins, and row by row
    from test_verification import _row_by_row

    plant, assm = side_by_side(*planar)
    spec = V.SampleSpec(n_points=2000, seed=0)
    stacked = check(plant, assm, spec).to_dict()
    monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
    assert check(plant, assm, spec).to_dict() == stacked

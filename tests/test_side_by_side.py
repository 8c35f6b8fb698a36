"""The loop at m = 2 and k_out = 2: the planar example and a scalar plant side by side,
and at n = 1: the scalar plant alone.

The joint plant is the planar one plus x3' = -x3 + u2, observed as y2 = x3
and held at u2 = -x3 through the predictor.  Its certificate extends V, W and
the local V by their x3**2 terms; the observer gain's new row is (0, -1), the
new input-box row is [-0.5, 0.5], the metric is I3, and the coercivity is
min(c, 0.5).  With x3(0) = z3(0) = 0 the third state, its observer copy and
u2 stay exactly 0, every added term adds an exact 0.0, and so the joint run
must give the planar run's bits in every planar column, the norm included.
This carries a second input and a second output through whole runs and
through ``_run_checks`` without an oracle of their own.

With x3(0) != 0 the two blocks stay decoupled while the joint V(z) stays at
or below the absorbing level (the damping would couple them through V(z)):
the planar columns still equal the planar run, and the third block (x3, z3,
w2, u2) equals a run of x' = -x + u alone, y = x, under the certificate that
``side_by_side`` gives that block.
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


def scalar(plant, assm):
    """``(plant, assm)`` of x' = -x + u alone, y = x, with the delays of ``plant`` and
    the terms, gain (-1), input box [-0.5, 0.5] and rates that ``side_by_side`` adds."""
    alone = PlantModel(n=1, m=1, k_out=1, f=lambda x, u: [-x[0] + u[0]], h=lambda x: [x[0]],
                       jac_h=lambda x: [[1.0]], input_box=np.array([[-0.5, 0.5]]),
                       r=plant.r, tau=plant.tau)
    alone_assm = dataclasses.replace(
        assm,
        lyapunov=lambda x: 0.5 * x[0] ** 2,
        grad_lyapunov=lambda x: [x[0]],
        dissipation=lambda x: 0.125 * x[0] ** 2,
        local_lyapunov=lambda x: 0.5 * x[0] ** 2,
        grad_local_lyapunov=lambda x: [x[0]],
        local_controller=lambda x: [-x[0]],
        observer_gain=np.array([[-1.0]]),
        error_metric=np.eye(1),
        coercivity=min(assm.coercivity, 0.5))
    return alone, alone_assm


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


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_joint_checks_match_the_row_by_row_scan(planar, monkeypatch, check):
    # two inputs and two outputs through the stacked margins, and row by row
    from test_verification import _row_by_row

    plant, assm = side_by_side(*planar)
    spec = V.SampleSpec(n_points=2000, seed=0)
    stacked = check(plant, assm, spec).to_dict()
    monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
    assert check(plant, assm, spec).to_dict() == stacked


@pytest.mark.parametrize("x3", [1.0, 0.5])
def test_joint_run_is_the_planar_and_the_scalar_run(planar, x3):
    x0, z0 = DEFAULTS["x0"], DEFAULTS["z0"]
    flat = _run(*planar, x0, z0, 2.0)
    alone = _run(*scalar(*planar), (x3,), (0.0,), 2.0)
    joint = _run(*side_by_side(*planar), (*x0, x3), (*z0, 0.0), 2.0)
    assert _bits(joint.t) == _bits(flat.t) == _bits(alone.t)
    assert np.max(joint.lyap_z) <= planar[1].absorbing_level  # no damping couples the blocks
    assert alone.u_applied.any()  # the scalar block is driven, not left at rest
    for name, planar_columns in (("x", 2), ("z", 2), ("w", 1), ("u_applied", 1)):
        column = getattr(joint, name)
        assert _bits(column[:, :planar_columns]) == _bits(getattr(flat, name)), name
        assert _bits(column[:, planar_columns:]) == _bits(getattr(alone, name)), name
    # each part of the composite norm is a Euclidean norm of the two blocks' parts
    assert (np.maximum(flat.norm, alone.norm) <= joint.norm).all()
    assert (joint.norm <= flat.norm + alone.norm).all()


@pytest.mark.parametrize("k", [1, 2])
def test_scalar_certificate_passes_every_check(planar, monkeypatch, k):
    plant, assm = scalar(*planar)
    sample = V.SampleSpec(n_points=2000, seed=0)
    one_by_one = [check(plant, assm, sample) for check in CHECKS]
    monkeypatch.setattr(V, "_usable_cores", lambda: k)
    reports = V._run_checks(CHECKS, plant, assm, sample)
    assert [rep.to_dict() for rep in reports] == [rep.to_dict() for rep in one_by_one]
    assert all(rep.passed for rep in reports)

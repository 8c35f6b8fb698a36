"""Every pointwise call of a user callable passes lists of floats, in the
closed loop and in the checks alike; an ndarray reaches a callable only as
the ``(n, B)`` batch that ``lyapunov`` and ``grad_lyapunov`` get in the
sampled checks' side conditions."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from absorbctl import (InitialData, SampleSpec, SimConfig, build_planar_example,
                       check_absorbing_dissipation, check_corrected_contraction,
                       check_corrected_dissipation, check_growth_bound, check_local_controller,
                       check_observer_contraction, generate_partition,
                       predictor_convergence_study, simulate_closed_loop, sublevel_box)

PLANT_CALLABLES = ("f", "h", "jac_h")
CERTIFICATE_CALLABLES = ("lyapunov", "grad_lyapunov", "dissipation", "local_lyapunov",
                         "grad_local_lyapunov", "local_controller")
BATCHED = ("lyapunov", "grad_lyapunov")


def _kind(name, args):
    if all(type(a) is list and all(type(v) is float for v in a) for a in args):
        return "lists"
    # an (n, B) float64 batch, n = 2 for the planar example
    if (name in BATCHED and len(args) == 1 and type(args[0]) is np.ndarray
            and args[0].dtype == np.float64 and args[0].ndim == 2 and args[0].shape[0] == 2):
        return "batch"
    return f"other: {[type(a).__name__ for a in args]}"


def _recording(calls, name, fn):
    def wrapped(*args):
        calls.append((name, _kind(name, args)))
        return fn(*args)
    return wrapped


def _refusing_non_lists(name, fn):
    def wrapped(*args):
        kind = _kind(name, args)
        if kind.startswith("other"):
            raise TypeError(f"{name} called with {kind}")
        return fn(*args)
    return wrapped


def _wrapped_planar(wrap):
    """The planar plant and certificate (r = tau = 0.25) with ``wrap`` around
    each of the nine callables, installed by ``dataclasses.replace``."""
    plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
    plant = dataclasses.replace(plant, **{name: wrap(name, getattr(plant, name))
                                          for name in PLANT_CALLABLES})
    assm = dataclasses.replace(assm, **{name: wrap(name, getattr(assm, name))
                                        for name in CERTIFICATE_CALLABLES})
    return plant, assm


def _spied(calls):
    """The wrapped planar pair, with the construction calls forgotten."""
    plant, assm = _wrapped_planar(partial(_recording, calls))
    calls.clear()
    return plant, assm


def _simulate(plant, assm):
    # z0 starts above the absorbing level, so the damping branch runs too
    config = SimConfig(T_H=0.05, N=16, horizon=2.0, dt_max=1e-3, seed=0)
    simulate_closed_loop(plant, assm, generate_partition(T_s=0.01, horizon=2.0, seed=0),
                         config, InitialData(x0=[1.0, -1.0], z0=[1.5, 0.0]))


def _predictor_study(plant, assm):
    init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0],
                       u0_segments=[(-0.5, [0.1]), (-0.2, [-0.1])])
    xhist, uhist = init.histories(plant)
    predictor_convergence_study(plant, xhist.value(0.0), uhist, [4, 8])


SAMPLE = SampleSpec(n_points=300, seed=3)
WORKLOADS = {
    "simulate": _simulate,
    **{check.name: partial(check, sample=SAMPLE)
       for check in (check_absorbing_dissipation, check_local_controller,
                     check_observer_contraction, check_growth_bound,
                     check_corrected_contraction, check_corrected_dissipation)},
    "sublevel_box": lambda plant, assm: sublevel_box(assm.lyapunov, assm.blend_hi, plant.n),
    "predictor_study": _predictor_study,
}


def test_construction_accepts_callables_refusing_non_lists():
    _wrapped_planar(_refusing_non_lists)
    calls = []
    _wrapped_planar(partial(_recording, calls))
    assert {name for name, _kind in calls} == {*PLANT_CALLABLES, *CERTIFICATE_CALLABLES}
    assert {name for name, kind in calls if kind != "lists"} == set(BATCHED)
    assert {kind for _name, kind in calls} == {"lists", "batch"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pointwise_calls_pass_lists(workload):
    calls = []
    WORKLOADS[workload](*_spied(calls))
    assert calls
    assert sorted({call for call in calls if call[1] not in ("lists", "batch")}) == []


def test_the_workloads_reach_every_callable_pointwise():
    calls = []
    plant, assm = _spied(calls)
    _simulate(plant, assm)
    # the damping branch evaluates grad V and the dissipation at the observer
    # state; only the checks evaluate the local Lyapunov function and its gradient
    assert {name for name, _kind in calls} == {*PLANT_CALLABLES, "lyapunov", "grad_lyapunov",
                                               "dissipation", "local_controller"}
    for workload in WORKLOADS.values():
        workload(plant, assm)
    assert {name for name, kind in calls if kind == "lists"} == {*PLANT_CALLABLES,
                                                                  *CERTIFICATE_CALLABLES}
    assert {name for name, kind in calls if kind == "batch"} == set(BATCHED)

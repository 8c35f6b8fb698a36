"""The closed loop and the sampled checks take the callables' results as
sequences of reals, whatever their kind: a plant and certificate whose
callables return float64 ndarrays for every argument give the same bytes as
the planar example, whose callables return lists."""

import dataclasses

import numpy as np
import pytest

from absorbctl import (InitialData, SampleSpec, SimConfig, build_planar_example,
                       check_absorbing_dissipation, check_corrected_contraction,
                       check_corrected_dissipation, check_growth_bound, check_local_controller,
                       check_observer_contraction, generate_partition, simulate_closed_loop)

CHECKS = [check_absorbing_dissipation, check_local_controller, check_observer_contraction,
          check_growth_bound, check_corrected_contraction, check_corrected_dissipation]


def _returning_arrays(fn):
    return lambda *args: np.array(fn(*args), dtype=float)


def _with_array_results(plant, assm):
    return (dataclasses.replace(plant, **{name: _returning_arrays(getattr(plant, name))
                                          for name in ("f", "h", "jac_h")}),
            dataclasses.replace(assm, **{name: _returning_arrays(getattr(assm, name))
                                         for name in ("grad_lyapunov", "grad_local_lyapunov",
                                                      "local_controller")}))


@pytest.fixture(scope="module")
def lists_and_arrays():
    plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
    arrays = _with_array_results(plant, assm)
    assert type(plant.f([1.5, 0.0], [0.0])) is list
    assert type(arrays[0].f([1.5, 0.0], [0.0])) is np.ndarray
    return (plant, assm), arrays


def test_trajectory_bytes_do_not_depend_on_the_return_kind(lists_and_arrays, tmp_path):
    # z0 starts above the absorbing level, so the damping branch runs too
    config = SimConfig(T_H=0.05, N=16, horizon=2.0, dt_max=1e-3, seed=0)
    partition = generate_partition(T_s=0.01, horizon=2.0, seed=0)
    init = InitialData(x0=[1.0, -1.0], z0=[1.5, 0.0])
    written = []
    for i, (plant, assm) in enumerate(lists_and_arrays):
        path = tmp_path / f"trajectory{i}.csv"
        simulate_closed_loop(plant, assm, partition, config, init).write_csv(path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_check_reports_do_not_depend_on_the_return_kind(lists_and_arrays, check):
    sample = SampleSpec(n_points=300, seed=3)
    lists, arrays = (check(plant, assm, sample).to_dict() for plant, assm in lists_and_arrays)
    assert lists == arrays

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import CoverageError, PlantModel, build_planar_example
from absorbctl.kernels import loop_kernels
from absorbctl.observer import observer_correction
from absorbctl.rk4 import flow_on_history, integrate_span, rk4_step, rk4_steps
from history_oracles import input_record
from loop_oracles import coupled_rhs, coupled_rhs_numpy, rk4_step_numpy


def decay_rhs(_t, y):
    return [-v for v in y]


decay = partial(rk4_steps, decay_rhs)  # the span integrate_span takes


def test_single_step_matches_taylor_polynomial():
    # for ydot = a*y one RK4 step is exactly the degree-4 Taylor polynomial
    a, h, y0 = -1.3, 0.01, 2.0
    got = rk4_step(lambda t, y: [a * y[0]], 0.0, [y0], h)[0]
    ah = a * h
    poly = y0 * (1.0 + ah + ah ** 2 / 2.0 + ah ** 3 / 6.0 + ah ** 4 / 24.0)
    assert got == pytest.approx(poly, rel=1e-15)


def test_fourth_order_convergence():
    errs = []
    for dt in (0.05, 0.025):
        got = integrate_span(decay, 0.0, 1.0, [1.0], dt)[0][0]
        errs.append(abs(got - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


def test_span_nodes_and_endpoint():
    y, times, nodes = integrate_span(decay, 0.0, 1.0, [1.0], 0.3)
    assert len(times) == len(nodes) == 4  # ceil(1/0.3)
    assert times[-1] == 1.0  # lands exactly on the right endpoint
    assert times[:3] == [0.25, 0.5, 0.75] and nodes[-1] is y
    assert nodes == decay([1.0], 0.25, 4)[1]


def test_empty_and_reversed_spans():
    y0 = [1.0]
    y, times, nodes = integrate_span(decay, 2.0, 2.0, y0, 0.1)
    assert y is y0 and times == nodes == []
    with pytest.raises(CoverageError):
        integrate_span(decay, 1.0, 0.0, y0, 0.1)


def test_flow_splits_at_input_breakpoints():
    # xdot = u(t): the flow is the exact integral of the record because a
    # constant right side is integrated exactly and spans never straddle
    # a switch
    plant = PlantModel(n=1, m=1, k_out=1,
                       f=lambda x, u: [u[0]],
                       h=lambda x: [x[0]],
                       jac_h=lambda x: [[1.0]],
                       input_box=np.array([[-2.0, 2.0]]))
    hist = input_record([(0.0, [0.5]), (0.37, [-1.0]), (0.8, [0.25])], 1.0)
    got = flow_on_history(plant, [0.0], hist, 0.0, 1.0, substep=0.3)[0]
    assert got == pytest.approx(0.5 * 0.37 - 1.0 * 0.43 + 0.25 * 0.2, abs=1e-15)


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)[:2]


coordinate = st.floats(-3.0, 3.0, allow_nan=False)


@given(st.lists(coordinate, min_size=5, max_size=5), st.lists(st.floats(-0.7, 0.7),
       min_size=2, max_size=2),
       st.sampled_from([(1e-3, 1), (0.01, 1), (0.05, 1), (1e-3, 7), (0.01, 7)]))
@settings(max_examples=300, deadline=None)
def test_planar_span_matches_numpy_oracle_bytes(planar, y, inputs, steps):
    # the observer state ranges over the absorbing set, the ramp and beyond,
    # so both branches of the correction are taken; the generated span, its
    # list oracle and the NumPy form before that give the same bits, at the
    # end of the span and at every node it lists
    plant, assm = planar
    (dt, n_sub), u_plant, u_obs = steps, [inputs[0]], [inputs[1]]
    span = loop_kernels(2, 1).rk4_span(plant, assm, observer_correction, u_plant, u_obs)
    got, got_nodes = span(y, dt, n_sub)
    listed, listed_nodes = rk4_steps(coupled_rhs(plant, assm, u_plant, u_obs), y, dt, n_sub)
    rhs = coupled_rhs_numpy(plant, assm, np.array(u_plant), np.array(u_obs))
    want = [np.array(y)]
    for _ in range(n_sub):
        want.append(rk4_step_numpy(rhs, 0.0, want[-1], dt))
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(listed).tobytes() == want[-1].tobytes()
    assert (np.array(got_nodes).tobytes() == np.array(listed_nodes)[:, :2].tobytes()
            == np.array(want[1:])[:, :2].tobytes())

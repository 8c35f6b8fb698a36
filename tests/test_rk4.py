import math

import numpy as np
import pytest

from absorbctl import CoverageError, InputHistory, PlantModel
from absorbctl.rk4 import flow_on_history, integrate_span, rk4_step


def test_single_step_matches_taylor_polynomial():
    # for ydot = a*y one RK4 step is exactly the degree-4 Taylor polynomial
    a, h, y0 = -1.3, 0.01, 2.0
    got = rk4_step(lambda t, y: a * y, 0.0, np.array([y0]), h)[0]
    ah = a * h
    poly = y0 * (1.0 + ah + ah ** 2 / 2.0 + ah ** 3 / 6.0 + ah ** 4 / 24.0)
    assert got == pytest.approx(poly, rel=1e-15)


def test_fourth_order_convergence():
    rhs = lambda t, y: -y
    errs = []
    for dt in (0.05, 0.025):
        got = integrate_span(rhs, 0.0, 1.0, np.array([1.0]), dt)[0]
        errs.append(abs(got - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


def test_span_nodes_and_endpoint():
    nodes = []
    integrate_span(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), 0.3,
                   on_node=lambda t, y: nodes.append(t))
    assert len(nodes) == 4  # ceil(1/0.3)
    assert nodes[-1] == 1.0  # lands exactly on the right endpoint


def test_empty_and_reversed_spans():
    y0 = np.array([1.0])
    assert integrate_span(lambda t, y: -y, 2.0, 2.0, y0, 0.1) is y0
    with pytest.raises(CoverageError):
        integrate_span(lambda t, y: -y, 1.0, 0.0, y0, 0.1)


def test_flow_splits_at_input_breakpoints():
    # xdot = u(t): the flow is the exact integral of the record because a
    # constant right side is integrated exactly and spans never straddle
    # a switch
    plant = PlantModel(n=1, m=1, k_out=1,
                       f=lambda x, u: np.array([u[0]]),
                       h=lambda x: np.array([x[0]]),
                       jac_h=lambda x: np.array([[1.0]]),
                       input_box=np.array([[-2.0, 2.0]]))
    hist = InputHistory(0.0, [(0.0, [0.5]), (0.37, [-1.0]), (0.8, [0.25])], t_now=1.0)
    got = flow_on_history(plant, [0.0], hist, 0.0, 1.0, substep=0.3)[0]
    assert got == pytest.approx(0.5 * 0.37 - 1.0 * 0.43 + 0.25 * 0.2, abs=1e-15)

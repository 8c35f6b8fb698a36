"""The generated loop kernels against their list oracles, and their cache.

``absorbctl.kernels`` writes one source per ``(n, k_out)``; the callables
and gains arrive as arguments.  So two plants of the same dimensions must
each get their own results from one shared code object.
"""

import dataclasses
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from absorbctl import PlantModel, build_planar_example, euler_predict
from absorbctl.kernels import loop_kernels
from absorbctl.observer import observer_correction
from absorbctl.rk4 import rk4_steps
from history_oracles import input_record
from loop_oracles import coupled_rhs, euler_predict_list, matvec


def _two_plants_of_one_shape():
    """The planar example, and an oscillator with a curved output under the
    planar certificate with another gain: both n = 2, k_out = 1."""
    plant, assm, _fn = build_planar_example(0.01, r=0.25, tau=0.25)
    other = PlantModel(n=2, m=1, k_out=1,
                       f=lambda x, u: [x[1], -x[0] - 0.5 * x[1] + u[0]],
                       h=lambda x: [x[1] + 0.5 * x[0] ** 2],
                       jac_h=lambda x: [[x[0], 1.0]],
                       input_box=np.array([[-1.0, 1.0]]), r=0.1, tau=0.3)
    return [(plant, assm),
            (other, dataclasses.replace(assm, observer_gain=np.array([[0.3], [-0.7]])))]


# (x, z, w) states: the observer inside the absorbing set, and outside it
STATES = [[0.2, -0.1, 0.3, 0.4, 0.05], [1.5, -2.0, 3.0, -2.0, 0.7]]


def test_plants_of_one_shape_share_code_and_keep_their_own_results():
    hist = input_record([(-0.5, [0.2]), (-0.3, [-0.4]), (-0.05, [0.1])])
    spans, results = [], []
    for plant, assm in _two_plants_of_one_shape():
        span = loop_kernels(2, 1).rk4_span(plant, assm, observer_correction, [0.1], [-0.2])
        rhs = coupled_rhs(plant, assm, [0.1], [-0.2])
        for y in STATES:
            got, _nodes = span(y, 0.01, 1)
            assert np.array(got).tobytes() == np.array(rk4_steps(rhs, y, 0.01, 1)[0]).tobytes()
            results.append(got)
        got = euler_predict([0.4, -0.3], hist, 7, plant)
        assert got == euler_predict_list([0.4, -0.3], hist, 7, plant)
        results.append(got)
        for z, y in ((STATES[0][2:4], [0.3]), (STATES[1][2:4], [-1.1])):
            want = matvec(assm.gain_rows, [a - b for a, b in zip(plant.h(z), y)])
            assert loop_kernels(2, 1).injection(assm.gain_rows, plant.h(z), y) == want
        spans.append(span)
    assert spans[0].__code__ is spans[1].__code__
    assert loop_kernels(2, 1) is loop_kernels(2, 1)
    assert results[:3] != results[3:]  # the arguments, not the code, hold the plant


INSIDE = ["f", "h", "lyapunov", "f", "jac_h"]
# outside the absorbing set observer_correction takes the stage's injection and
# level, and evaluates only the gradient and the dissipation
OUTSIDE = ["f", "h", "lyapunov", "grad_lyapunov", "dissipation", "f", "jac_h"]


@pytest.mark.parametrize("y, stage_calls, stages", [
    (STATES[0], INSIDE, 4),
    ([0.2, -0.1, 1.0, 1.0, 0.05], INSIDE, 1),  # V(z) = 1.0 is the absorbing level
    (STATES[1], OUTSIDE, 4)], ids=["inside", "on-the-level", "outside"])
def test_span_keeps_the_loops_call_order(y, stage_calls, stages):
    plant, assm = _two_plants_of_one_shape()[0]
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for owner, names in ((plant, ("f", "h", "jac_h")),
                         (assm, ("lyapunov", "grad_lyapunov", "dissipation"))):
        for name in names:
            object.__setattr__(owner, name, recorded(name, getattr(owner, name)))
    loop_kernels(2, 1).rk4_span(plant, assm, observer_correction, [0.1], [-0.2])(y, 1e-3, 1)
    assert calls[:stages * len(stage_calls)] == stages * stage_calls


@pytest.mark.parametrize("n, k_out", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_dense_rows_sum_left_to_right_in_any_dimension(n, k_out):
    # every gain, Jacobian and drift entry nonzero, so that a sum of three or
    # more products taken in another order would round differently; a zero
    # innovation gives +0.0 entries only because each sum starts from 0.0
    rng = np.random.default_rng(n * 10 + k_out)
    A, B = rng.normal(size=(n, n)).tolist(), rng.normal(size=(n, 2)).tolist()
    C = rng.normal(size=(k_out, n)).tolist()
    plant = SimpleNamespace(
        n=n, k_out=k_out, delay_window=1.0, jac_h=lambda x: C, h=lambda x: matvec(C, x),
        f=lambda x, u: [a + b for a, b in zip(matvec(A, x), matvec(B, u))])
    # V = 0 keeps every stage inside the absorbing set, so no correction is called
    assm = SimpleNamespace(gain_rows=tuple(map(tuple, rng.normal(size=(n, k_out)).tolist())),
                           lyapunov=lambda z: 0.0, absorbing_level=1.0)
    kernels = loop_kernels(n, k_out)
    hist = input_record([(-1.0, [0.2, -0.1]), (-0.4, [0.5, 0.3])])
    for _ in range(20):
        y, u_plant, u_obs = (rng.normal(size=2 * n + k_out).tolist(),
                             rng.normal(size=2).tolist(), rng.normal(size=2).tolist())
        got = kernels.rk4_span(plant, assm, None, u_plant, u_obs)(y, 0.1, 3)
        want = rk4_steps(coupled_rhs(plant, assm, u_plant, u_obs), y, 0.1, 3)
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        assert (np.array(got[1]).tobytes()
                == np.array([node[:n] for node in want[1]]).tobytes())
        hz, w = y[:k_out], y[2 * n:]
        got = kernels.injection(assm.gain_rows, hz, w)
        want = matvec(assm.gain_rows, [a - b for a, b in zip(hz, w)])
        assert np.array(got).tobytes() == np.array(want).tobytes()
        zero = kernels.injection(assm.gain_rows, hz, hz)
        assert np.array(zero).tobytes() == np.zeros(n).tobytes()
        got = euler_predict(y[:n], hist, 5, plant)
        want = euler_predict_list(y[:n], hist, 5, plant)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_nothing_is_generated_at_import():
    code = ("import absorbctl, absorbctl.cli\nfrom absorbctl.kernels import loop_kernels\n"
            "print(loop_kernels.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"

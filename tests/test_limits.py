"""Limits the closed loop must reach as a delay goes to zero and as the
predictor's step count grows.

These check an observed order of convergence, not bits, so they hold through
a re-baseline of the golden digests and guard the bookkeeping of the delayed
images and the predictor's walk over the input record, which the digests
only say changed, not whether it is wrong.  The delay ladder's reference is
the delay-free run, whose hold is the direct state feedback (acceptance
criterion 08); the step ladder's is a run with far more Euler steps.
"""

import math

import numpy as np

from absorbctl import (InitialData, SimConfig, build_planar_example, generate_partition,
                       predictor_convergence_study, simulate_closed_loop)
from absorbctl.cli import DEFAULTS

HORIZON = 4.0


def run(delay: float, N: int = DEFAULTS["N"]):
    """The default loop, partition seed 0, over ``HORIZON`` with ``r = tau = delay``
    and ``N`` Euler steps per prediction."""
    d = DEFAULTS
    plant, assm, _levels = build_planar_example(d["zeta"], d["b"], d["c"], r=delay, tau=delay)
    config = SimConfig(T_H=d["T_H"], N=N, horizon=HORIZON, dt_max=d["dt_max"], seed=0,
                       record_dt=d["record_dt"])
    partition = generate_partition(d["T_s"], HORIZON, 0, d["min_frac"])
    init = InitialData(x0=d["x0"], z0=d["z0"], u0_segments=d["u0_segments"])
    return simulate_closed_loop(plant, assm, partition, config, init)


def gap(a, b, columns=("x", "z")) -> float:
    """Largest difference of two runs in ``columns`` over the row times they share."""
    _common, i, j = np.intersect1d(a.t, b.t, return_indices=True)
    return float(np.abs(np.hstack([getattr(a, c)[i] - getattr(b, c)[j] for c in columns])).max())


def first_order(gaps: list[float]) -> bool:
    """Whether each halving of the step (delay or 1/N) halves the gap, within 10%."""
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    return min(gaps) > 0.0 and all(0.9 <= order <= 1.1 for order in orders)


def test_the_delayed_loop_tends_to_the_delay_free_one_at_first_order():
    # r = tau = 0.1 * 2**-k: the gaps measured were 0.0402, 0.0203, 0.0103,
    # 5.05e-3, 2.49e-3 and 1.21e-3, so each halving of the delay halves the gap
    free = run(0.0)
    gaps = [gap(run(0.1 * 2.0 ** -k), free) for k in range(6)]
    assert first_order(gaps), gaps


def test_the_loop_tends_to_its_many_step_limit_at_first_order():
    # r = tau = 0.25 (the default 0.5 s window), N = 8 * 2**k against
    # N = 8192: the gaps measured were 1.81e-4, 8.79e-5, 4.33e-5, 2.14e-5,
    # 1.06e-5 and 5.21e-6, Euler's first order in the step window / N
    delay = DEFAULTS["r"]
    fine = run(delay, 8192)
    gaps = [gap(run(delay, 8 * 2 ** k), fine, ("x", "z", "u_applied")) for k in range(6)]
    assert first_order(gaps), gaps


def test_the_predictor_tends_to_the_exact_flow_at_first_order():
    # the three-segment record of the golden predictor study, x0 = (1, -1), r = tau = 0.25:
    # against the exact flow the errors measured were 0.0161, 7.77e-3, 3.82e-3, 1.90e-3
    # and 9.46e-4 for N = 32 ... 512 (at N = 16 the order is still 1.165); a walk that
    # starts one record segment late keeps an error near 0.017 whatever N
    d = DEFAULTS
    plant, _assm, _levels = build_planar_example(d["zeta"], d["b"], d["c"], r=0.25, tau=0.25)
    init = InitialData(x0=(1.0, -1.0), z0=d["z0"],
                       u0_segments=((-0.5, (0.1,)), (-0.31, (-0.2,)), (-0.07, (0.05,))))
    xhist, hist = init.histories(plant)
    study = predictor_convergence_study(plant, xhist.value(0.0), hist,
                                        [32 * 2 ** k for k in range(5)])
    errors = [error for _N, error in study]
    assert first_order(errors), errors

"""Limits the closed loop must reach as a delay goes to zero.

These check an observed order of convergence, not bits, so they hold through
a re-baseline of the golden digests and guard the bookkeeping of the delayed
images, which the digests only say changed, not whether it is wrong.  The
reference is the delay-free run, whose hold is the direct state feedback
(acceptance criterion 08).
"""

import math

import numpy as np

from absorbctl import (InitialData, SimConfig, build_planar_example, generate_partition,
                       simulate_closed_loop)
from absorbctl.cli import DEFAULTS

HORIZON = 4.0


def run_with_delay(delay: float):
    """The default loop, partition seed 0, over ``HORIZON`` with ``r = tau = delay``."""
    d = DEFAULTS
    plant, assm, _levels = build_planar_example(d["zeta"], d["b"], d["c"], r=delay, tau=delay)
    config = SimConfig(T_H=d["T_H"], N=d["N"], horizon=HORIZON, dt_max=d["dt_max"], seed=0,
                       record_dt=d["record_dt"])
    partition = generate_partition(d["T_s"], HORIZON, 0, d["min_frac"])
    init = InitialData(x0=d["x0"], z0=d["z0"], u0_segments=d["u0_segments"])
    return simulate_closed_loop(plant, assm, partition, config, init)


def gap(a, b) -> float:
    """Largest |(x, z)| difference of two runs over the row times they share."""
    _common, i, j = np.intersect1d(a.t, b.t, return_indices=True)
    return float(np.abs(np.hstack([a.x[i] - b.x[j], a.z[i] - b.z[j]])).max())


def test_the_delayed_loop_tends_to_the_delay_free_one_at_first_order():
    # r = tau = 0.1 * 2**-k: the gaps measured were 0.0402, 0.0203, 0.0103,
    # 5.05e-3, 2.49e-3 and 1.21e-3, so each halving of the delay halves the gap
    free = run_with_delay(0.0)
    gaps = [gap(run_with_delay(0.1 * 2.0 ** -k), free) for k in range(6)]
    assert min(gaps) > 0.0, gaps
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(0.9 <= order <= 1.1 for order in orders), (gaps, orders)

"""NumPy reference versions of the closed loop's per-point kernels, and a
helper that lets a test's callables take list states.

The library runs the loop on lists of floats.  The oracles below are the
per-point NumPy forms it replaced, kept as written then: RK4 stages and the
Euler predictor as array expressions, and the coupled right side with the
observer correction taking its products with ``ndarray.dot``, on the
callables' results as float64 arrays.  The
properties in ``test_rk4.py``, ``test_observer.py`` and ``test_predictor.py``
require the list forms to return the same bits on the planar plant.
"""

import numpy as np

from absorbctl import blend_p


def listwise(fn):
    """``fn``, written for float64 ndarrays, made to take lists of floats
    too: each argument is converted to a float64 ndarray."""
    def on_arrays(*args):
        return fn(*(np.asarray(a, dtype=float) for a in args))
    return on_arrays


def rk4_step_numpy(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def observer_correction_numpy(z, y, fz, plant, assm):
    innovation = assm.observer_gain.dot(np.subtract(plant.h(z), y))
    level = assm.lyapunov(z)
    if level <= assm.absorbing_level:
        return innovation
    grad = np.asarray(assm.grad_lyapunov(z))
    grad_sq = grad.dot(grad)
    phi = max(0.0, grad.dot(fz) + assm.dissipation(z)
              + blend_p(level, assm) * grad.dot(innovation))
    return innovation - (phi / grad_sq) * grad


def coupled_rhs_numpy(plant, assm, u_plant, u_obs):
    n = plant.n

    def rhs(_t, y):
        z, w = y[n:2 * n], y[2 * n:]
        fz = np.asarray(plant.f(z, u_obs))
        return np.concatenate((plant.f(y[:n], u_plant),
                               fz + observer_correction_numpy(z, w, fz, plant, assm),
                               np.asarray(plant.jac_h(z)).dot(fz)))

    return rhs


def euler_predict_numpy(x0, hist, N, plant, t_pred=None):
    x = np.asarray(x0, dtype=float)
    if plant.delay_window == 0.0:
        return x
    if t_pred is None:
        t_pred = hist.t_now
    for pieces in hist.step_pieces(t_pred - plant.delay_window, t_pred, N):
        increment = 0.0
        for value, length in pieces:
            increment = increment + np.asarray(plant.f(x, np.asarray(value))) * length
        x = x + increment
    return x

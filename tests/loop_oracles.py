"""Reference versions of the closed loop's per-point kernels and of its
event grouping, a helper that lets a test's callables take list states,
and a check that a run's applied inputs stay in the input box.

The library runs the loop in code generated per plant dimension
(``absorbctl.kernels``).  Two generations of oracles stand behind it, each
kept as written when the library replaced it:

* the list forms: the coupled right side of ``(x, z, w)`` with its sums of
  products from ``matvec``, stepped by ``rk4.rk4_step``, and the Euler
  predictor's loop over the per-step piece lists of
  ``history_oracles.step_pieces``;
* the per-point NumPy forms before them: RK4 stages and the Euler predictor
  as array expressions, and the observer correction taking its products
  with ``ndarray.dot``, on the callables' results as float64 arrays; that
  correction still evaluates ``h(z)`` and ``V(z)`` itself, where the
  library's takes both from its caller.

The properties in ``test_rk4.py``, ``test_observer.py``,
``test_predictor.py`` and ``test_kernels.py`` require the generated code to
return the bits of the list forms, and those the bits of the NumPy forms on
the planar plant.
"""

import numpy as np

from absorbctl import blend_p, observer_correction
from absorbctl.simulator import _EVENT_ATOL, _grid
from history_oracles import step_pieces


def listwise(fn):
    """``fn``, written for float64 ndarrays, made to take lists of floats
    too: each argument is converted to a float64 ndarray."""
    def on_arrays(*args):
        return fn(*(np.asarray(a, dtype=float) for a in args))
    return on_arrays


def inputs_in_box(traj, input_box) -> bool:
    """Whether every applied input of ``traj`` lies in the ``(m, 2)`` box."""
    box = np.asarray(input_box, dtype=float)
    return bool(np.all(traj.u_applied >= box[:, 0]) and np.all(traj.u_applied <= box[:, 1]))


def matvec(rows, v) -> list[float]:
    """The list of ``0.0 + row[0]*v[0] + row[1]*v[1] + ...``, summed left to
    right, for each row; one-term rows give the bits of ``ndarray.dot``."""
    out = []
    for row in rows:
        acc = 0.0
        for a, b in zip(row, v):
            acc += a * b
        out.append(acc)
    return out


def coupled_rhs(plant, assm, u_plant, u_obs):
    """Right side ``(t, y) -> ydot`` of the stacked state ``y = (x, z, w)``,
    lists of floats, on a span with constant plant input ``u_plant`` and
    observer input ``u_obs``: the plant, the observer (plant copy plus
    correction driven by ``w``), and the inter-sample output state ``w``,
    whose drift ``matvec(jac_h(z), f(z, u_obs))`` shares ``f(z, u_obs)``.
    The correction is the injection by ``matvec``, and outside the absorbing
    set the library's ``observer_correction`` of that injection and V(z), on a
    stack of one."""
    n = plant.n
    f, jac_h = plant.f, plant.jac_h

    def rhs(_t, y):
        z, w = y[n:2 * n], y[2 * n:]
        fz = f(z, u_obs)
        corr = matvec(assm.gain_rows, [a - b for a, b in zip(plant.h(z), w)])
        level = assm.lyapunov(z)
        if level > assm.absorbing_level:
            corr = observer_correction([z], [corr], [level], [fz], assm)[0].tolist()
        return [*f(y[:n], u_plant), *[a + b for a, b in zip(fz, corr)],
                *matvec(jac_h(z), fz)]

    return rhs


def euler_predict_list(x0, hist, N, plant):
    """The Euler predictor on lists of floats: per step, the increment
    ``0.0 + f(x, u_1) * len_1 + ...`` entry by entry, then ``x + increment``."""
    x = [float(v) for v in x0]
    if plant.delay_window == 0.0:
        return x
    for pieces in step_pieces(hist, hist.t_now - plant.delay_window, hist.t_now, N):
        increment = [0.0] * len(x)
        for value, length in pieces:
            increment = [a + b * length for a, b in zip(increment, plant.f(x, value))]
        x = [a + b for a, b in zip(x, increment)]
    return x


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
    for pieces in step_pieces(hist, t_pred - plant.delay_window, t_pred, N):
        increment = 0.0
        for value, length in pieces:
            increment = increment + np.asarray(plant.f(x, np.asarray(value))) * length
        x = x + increment
    return x


# the kinds, in within-group action order: reset, hold, record; break nodes only align spans
SAMPLE, HOLD, RECORD, BREAK = 0, 1, 2, 3


def event_groups_sets(partition, config, plant, init_starts):
    """The simulator's event groups as ``(t, kinds)`` pairs, ``kinds`` a set of
    the kinds above: the events sorted by ``(t, kind)``, each joining the
    last group when within _EVENT_ATOL of that group's first time.  The
    simulator's form before its groups became flat times and kind bits."""
    horizon = config.horizon
    events = [(float(t), SAMPLE) for t in partition.times if t <= horizon + _EVENT_ATOL]
    hold_times = _grid(config.T_H, horizon)
    record_times = _grid(config.record_dt, horizon)
    events += [(t, HOLD) for t in hold_times] + [(t, RECORD) for t in record_times]
    if abs(record_times[-1] - horizon) > _EVENT_ATOL:
        events.append((horizon, RECORD))
    for s in [*init_starts, *hold_times]:
        for img in (s + plant.tau, s + plant.delay_window):
            if _EVENT_ATOL < img <= horizon + _EVENT_ATOL:
                events.append((img, BREAK))
    events.sort()
    groups = []
    for t, kind in events:
        if groups and t - groups[-1][0] <= _EVENT_ATOL:
            groups[-1][1].add(kind)
        else:
            groups.append((t, {kind}))
    return groups

import dataclasses
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (
    AssumptionData,
    ConfigurationError,
    CoverageError,
    InitialData,
    InsufficientDataError,
    NonFiniteError,
    PlantModel,
    SamplingPartition,
    SimConfig,
    StateHistory,
    Trajectory,
    build_planar_example,
    fit_decay_rate,
    generate_partition,
    pilot_tune,
    run_summary,
    simulate_closed_loop,
    simulator,
)
from absorbctl.cli import DEFAULTS, _sim_config
from absorbctl.model import MAX_STEPS
from loop_oracles import event_groups_sets, inputs_in_box

EVENT_ATOL = 1e-12


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)[:2]


def _interp_rows(times: np.ndarray, table: np.ndarray, t: float) -> np.ndarray:
    idx = int(np.searchsorted(times, t))
    if idx < times.size and times[idx] == t:
        return table[idx]
    if idx == 0 or idx >= times.size:
        raise CoverageError(f"time {t!r} outside the recorded range")
    theta = (t - times[idx - 1]) / (times[idx] - times[idx - 1])
    return table[idx - 1] + theta * (table[idx] - table[idx - 1])


def composite_norm(traj: Trajectory, t: float, r: float, tau: float) -> float:
    """Recomputation oracle for the recorded norm column: the largest
    recorded plant state over ``[t-r, t]``, plus the observer state at
    ``t``, plus the largest input applied on ``[t-r-tau, t)``, all read from
    the trajectory's rows rather than the integrator's nodes."""
    times = traj.t
    if t - r < times[0] - EVENT_ATOL or t > times[-1] + EVENT_ATOL:
        raise CoverageError("window extends beyond the recorded rows")
    x_sup = max(float(np.linalg.norm(_interp_rows(times, traj.x, t - r))),
                float(np.linalg.norm(_interp_rows(times, traj.x, t))))
    lo = int(np.searchsorted(times, t - r, side="right"))
    hi = int(np.searchsorted(times, t, side="left"))
    for i in range(lo, hi):
        x_sup = max(x_sup, float(np.linalg.norm(traj.x[i])))
    z_val = float(np.linalg.norm(_interp_rows(times, traj.z, t)))
    u_sup = 0.0
    if r + tau > 0.0:
        starts = [s for s, _v in traj.input_segments]
        values = [v for _s, v in traj.input_segments]
        if not starts or starts[0] > t - r - tau + EVENT_ATOL:
            raise CoverageError("input record does not cover the window")
        idx = max(0, int(np.searchsorted(starts, t - r - tau, side="right")) - 1)
        while idx < len(starts) and starts[idx] < t:
            u_sup = max(u_sup, float(np.linalg.norm(values[idx])))
            idx += 1
    return x_sup + z_val + u_sup


def short_config(**kw):
    base = dict(T_H=0.05, N=16, horizon=4.0, dt_max=1e-3, seed=0, record_dt=0.05)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def short_run(planar):
    plant, assm = planar
    config = short_config()
    partition = generate_partition(0.01, config.horizon, seed=0)
    init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
    traj = simulate_closed_loop(plant, assm, partition, config, init)
    return plant, assm, config, init, traj


def _holed(assm, hole):
    """``assm`` with V NaN wherever ``hole(x, V(x))`` holds, at points and on batches."""
    def lyapunov(x):
        value = assm.lyapunov(x)
        return np.where(hole(np.asarray(x), value), np.nan, value)
    return dataclasses.replace(assm, lyapunov=lyapunov)


def _plant(r, tau):
    return build_planar_example(0.01, r=r, tau=tau)[0]


class TestInitialData:
    """``histories(plant)`` checks a run's initial data and builds its two
    records: the plant history on [-r, 0] and the input on [-r-tau, 0)."""

    def test_constant_history(self, planar):
        plant, _ = planar
        xhist, _uhist = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]).histories(plant)
        assert xhist.times.tolist() == [-0.25, 0.0]
        for t in (-0.25, -0.1, 0.0):
            assert xhist.value(t) == [1.0, -1.0]

    def test_tuple_state_is_not_a_table(self, planar):
        plant, assm = planar
        config = short_config(horizon=0.5)
        partition = generate_partition(0.01, config.horizon, seed=0)
        runs = [simulate_closed_loop(plant, assm, partition, config,
                                     InitialData(x0=x0, z0=[0.0, 0.0]))
                for x0 in ((1.0, -1.0), [1.0, -1.0])]
        for name in ("t", "x", "z", "w", "u_applied", "norm"):
            assert (getattr(runs[0], name) == getattr(runs[1], name)).all()

    def test_table_history(self):
        init = InitialData(x0=([-0.5, -0.2, 0.0], [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]]),
                           z0=[0.0, 0.0])
        xhist, _uhist = init.histories(_plant(0.5, 0.25))
        assert xhist.value(-0.2) == [0.5, 0.0]
        assert xhist.value(0.0) == [0.0, 0.0]

    def test_table_last_row_is_x_at_zero(self):
        # end times within 1e-12 of -r and 0 are snapped onto them, so x(0)
        # is an exact sample: the table's last row
        init = InitialData(x0=([-0.5 - 1e-13, -0.2, -1e-13],
                               [[1.0, 0.0], [0.5, 0.0], [0.3, -0.7]]), z0=[0.0, 0.0])
        xhist, _uhist = init.histories(_plant(0.5, 0.25))
        assert xhist.times.tolist() == [-0.5, -0.2, 0.0]
        assert xhist.value(0.0) == [0.3, -0.7]

    def test_table_must_cover_window(self):
        init = InitialData(x0=([-0.3, 0.0], [[1.0, 0.0], [0.0, 0.0]]), z0=[0.0, 0.0])
        with pytest.raises(ConfigurationError, match=r"cover exactly \[-r, 0\]"):
            init.histories(_plant(0.5, 0.25))

    def test_table_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            InitialData(x0=([-0.5, 0.0], [[1.0, 0.0]]), z0=[0.0, 0.0])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(x0=[1.0, float("nan")]), "initial data must be finite"),
        (dict(z0=[0.0, float("inf")]), "initial data must be finite"),
        (dict(u0_segments=[(-0.5, [float("nan")])]), "initial data must be finite"),
        # a NaN time fails none of the comparisons of the table and start tests
        (dict(x0=([-0.25, float("nan"), 0.0], [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])),
         "initial data must be finite"),
        (dict(u0_segments=[(-0.5, [0.1]), (float("nan"), [0.2])]),
         "initial data must be finite"),
        (dict(x0=[1.0, -1.0, 0.0]), "x0 and z0 need 2 components, got 3 and 2"),
        (dict(z0=[0.0]), "x0 and z0 need 2 components, got 2 and 1"),
        (dict(x0=([-0.25, 0.0], [[1.0], [0.0]])), "x0 and z0 need 2 components"),
        (dict(u0_segments=[(-0.5, [0.1, 0.2])]), "input dimension 1"),
    ])
    def test_dimensions_and_finiteness(self, planar, kwargs, message):
        plant, _ = planar
        init = InitialData(**{"x0": [1.0, -1.0], "z0": [0.0, 0.0], **kwargs})
        with pytest.raises(ConfigurationError, match=message):
            init.histories(plant)

    def test_fields_cannot_be_reassigned(self, planar):
        # a reassigned field would skip the conversion __post_init__ makes;
        # replace builds a new, converted instance, whose refusals still hold
        plant, _ = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        for name, value in (("x0", [float("nan"), 0.0]), ("z0", [0.0, 0.0]),
                            ("u0_segments", [(-0.5, [9.0])])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(init, name, value)
        with pytest.raises(ConfigurationError, match="initial data must be finite"):
            dataclasses.replace(init, x0=[float("nan"), 0.0]).histories(plant)
        with pytest.raises(ConfigurationError, match="outside the input box"):
            dataclasses.replace(init, u0_segments=[(-0.5, [9.0])]).histories(plant)

    def test_default_input_history_is_zero(self, planar):
        plant, _ = planar
        _xhist, uhist = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]).histories(plant)
        assert (uhist.t_min, uhist.t_now, uhist.starts) == (-0.5, 0.0, [-0.5])
        assert uhist.value(-0.5)[0] == 0.0
        assert uhist.value(-1e-9)[0] == 0.0

    def test_segments_validated(self, planar):
        plant, _ = planar
        good = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0],
                           u0_segments=[(-0.5, [0.1]), (-0.2, [-0.1])])
        _xhist, uhist = good.histories(plant)
        assert uhist.value(-0.3)[0] == 0.1
        assert uhist.value(-0.1)[0] == -0.1

        for segments, message in (([(-0.4, [0.1])], r"start at -\(r \+ tau\)"),
                                  ([(-0.5, [5.0])], "outside the input box"),
                                  ([(-0.5, [0.1]), (0.0, [0.1])], "start before time 0")):
            bad = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0], u0_segments=segments)
            with pytest.raises(ConfigurationError, match=message):
                bad.histories(plant)

    def test_delay_free_forbids_segments(self):
        plant = _plant(0.0, 0.0)
        xhist, uhist = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]).histories(plant)
        assert xhist.times.tolist() == [0.0] and xhist.value(0.0) == [1.0, -1.0]
        assert (uhist.t_min, uhist.t_now, uhist.starts) == (0.0, 0.0, [])
        assert math.copysign(1.0, uhist.t_min) == 1.0  # 0.0, not -(r + tau) = -0.0
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0], u0_segments=[(-0.5, [0.1])])
        with pytest.raises(ConfigurationError, match="empty when r = tau = 0"):
            init.histories(plant)

    def test_w_starts_at_the_time_0_measurement(self):
        # no initial inter-sample state exists: row 0 holds the reset to the
        # output of the history at -r, for delayed and delay-free plants
        table = ([-0.25, 0.0], [[0.7, 0.2], [1.0, -1.0]])
        for (r, tau), x0 in (((0.25, 0.25), table), ((0.0, 0.0), [1.0, -1.0])):
            plant, assm, _fn = build_planar_example(0.01, r=r, tau=tau)
            init = InitialData(x0=x0, z0=[0.0, 0.0])
            traj = simulate_closed_loop(plant, assm, generate_partition(0.01, 0.1, seed=0),
                                        short_config(horizon=0.1), init)
            want = plant.h(init.histories(plant)[0].value(-r))
            assert traj.t[0] == 0.0 and (traj.w[0] == want).all()
            assert traj.reset_records[0][0] == 0.0 and (traj.reset_records[0][1] == want).all()


class TestPartition:
    def test_uniform_grid(self):
        part = generate_partition(0.01, 40.0, seed=0, min_frac=1.0)
        assert part.times.size == 4001
        assert part.times[0] == 0.0
        assert part.times[-1] == 40.0
        gaps = np.diff(part.times)
        assert np.max(np.abs(gaps - 0.01)) <= 1e-12

    def test_random_gaps_bounded(self):
        part = generate_partition(0.01, 5.0, seed=3)
        gaps = np.diff(part.times)
        assert np.all(gaps >= 0.005 - 1e-15)
        assert np.all(gaps <= 0.01 + 1e-15)
        assert part.times[-1] >= 5.0

    @pytest.mark.parametrize("T_s, horizon, min_frac", [
        (0.01, 40.0, 0.5), (0.1, 1.0, 0.9), (0.003, 7.3, 0.25), (1.0, 0.5, 0.5),
        (0.02, 3.0, 1e-3), (0.01, 0.05, 1e-9)])
    def test_chunked_draws_are_the_scalar_loops_schedule(self, T_s, horizon, min_frac):
        # the schedule drawn gap by gap, each added to the last time; seeds 0,
        # 5 and 11 of (0.003, 7.3, 0.25) run past the first chunk, and min_frac
        # 1e-9 would ask for 5e9 gaps if the worst-case count were drawn
        for seed in range(16):
            rng = np.random.default_rng(seed)
            times = [0.0]
            while times[-1] < horizon:
                times.append(times[-1] + rng.uniform(min_frac * T_s, T_s))
            part = generate_partition(T_s, horizon, seed, min_frac)
            assert part.times.tobytes() == np.array(times).tobytes()

    def test_determinism(self):
        a = generate_partition(0.01, 2.0, seed=5)
        b = generate_partition(0.01, 2.0, seed=5)
        c = generate_partition(0.01, 2.0, seed=6)
        assert (a.times == b.times).all()
        assert a.times.size != c.times.size or not (a.times == c.times).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_partition(0.0, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            generate_partition(0.01, -1.0, seed=0)
        with pytest.raises(ConfigurationError):
            generate_partition(0.01, 1.0, seed=0, min_frac=0.0)
        with pytest.raises(ConfigurationError):
            generate_partition(0.01, 1.0, seed=0, min_frac=1.5)

    @pytest.mark.parametrize("T_s, horizon, min_frac", [
        (1e-300, 2.0, 0.5), (1e-300, 2.0, 1.0), (0.01, 1e300, 0.5), (1e-7, 1.0 + 1e-6, 0.5)])
    def test_more_gaps_than_a_run_may_take_refused(self, T_s, horizon, min_frac):
        # numpy refused the 1e300-sample array with its own ValueError
        with pytest.raises(ConfigurationError, match=f"^horizon/T_s must be at most {MAX_STEPS}$"):
            generate_partition(T_s, horizon, 0, min_frac)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy would raise its own ValueError or TypeError, not a ConfigurationError
        with pytest.raises(ConfigurationError, match="^seed must be an integer of at least 0$"):
            generate_partition(0.01, 1.0, seed)


    @pytest.mark.parametrize("T_s, horizon", [(float("nan"), 1.0), (float("inf"), 1.0),
                                              (0.01, float("nan")), (0.01, float("inf"))])
    def test_non_finite_rejected(self, T_s, horizon):
        # an infinite horizon would draw measurement times forever
        with pytest.raises(ConfigurationError, match="positive and finite"):
            generate_partition(T_s, horizon, seed=0)


class TestClosedLoop:
    def test_equilibrium_stays_exactly_zero(self, planar):
        plant, assm = planar
        config = short_config(horizon=1.0)
        partition = generate_partition(0.01, 1.0, seed=0)
        init = InitialData(x0=[0.0, 0.0], z0=[0.0, 0.0])
        traj = simulate_closed_loop(plant, assm, partition, config, init)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.z == 0.0)
        assert np.all(traj.w == 0.0)
        assert np.all(traj.u_applied == 0.0)
        assert np.all(traj.norm == 0.0)

    def test_non_finite_composite_norm(self):
        # the field cannot overflow, but the norm of x0 = 1e155 squares past
        # the float range: the row at t = 0 is refused, with no numpy warning
        plant = PlantModel(n=1, m=1, k_out=1, f=lambda x, u: [0.0 * x[0] + 0.0 * u[0]],
                           h=lambda x: [x[0]], jac_h=lambda x: [[1.0]],
                           input_box=np.array([[-1.0, 1.0]]), r=0.25, tau=0.25)
        assm = AssumptionData(
            lyapunov=lambda x: 0.5 * x[0] * x[0], grad_lyapunov=lambda x: [1.0 * x[0]],
            dissipation=lambda x: 0.1 * x[0] * x[0], local_lyapunov=lambda x: 0.5 * x[0] * x[0],
            grad_local_lyapunov=lambda x: [1.0 * x[0]], local_controller=lambda x: [-x[0]],
            observer_gain=[[-1.0]], error_metric=[[1.0]], absorbing_level=1.0, blend_lo=2.0,
            blend_hi=3.0, contraction_frac=0.5, contraction_rate=0.1, local_decay=0.05,
            coercivity=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"^composite norm not finite at t=0\.0$"):
                simulate_closed_loop(plant, assm, generate_partition(0.01, 1.0, seed=0),
                                     short_config(horizon=1.0),
                                     InitialData(x0=[1e155], z0=[0.0]))

    @pytest.mark.parametrize("hold_fails", [True, False], ids=["hold-raises", "run-ends"])
    def test_a_pending_non_finite_norm_is_the_error(self, planar, monkeypatch, hold_fails):
        # row norms are filled a block of rows at a time; a row whose norm
        # overflows names the error also when a callable raises later in its
        # block (here the first hold after it), before the block is filled
        plant, assm = planar
        config = short_config(horizon=2.0)
        partition = generate_partition(0.01, config.horizon, seed=0)
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        row_times = simulate_closed_loop(plant, assm, partition, config, init).t
        integrate_span, hold_control, huge = simulator.integrate_span, simulator.hold_control, []

        def span_with_a_huge_node(span, t0, t1, y0, dt_max):
            # the span's last node in the state record only: the loop's state is untouched
            y, times, nodes = integrate_span(span, t0, t1, y0, dt_max)
            if t1 >= 0.333 and not huge:
                nodes[-1] = [1e200, 0.0]
                huge.append(t1)
            return y, times, nodes

        def failing_hold(z, hist, *args):
            if hold_fails and huge and hist.t_now > huge[0]:
                raise RuntimeError("the controller failed")
            return hold_control(z, hist, *args)

        monkeypatch.setattr(simulator, "integrate_span", span_with_a_huge_node)
        monkeypatch.setattr(simulator, "hold_control", failing_hold)
        first_bad = float(row_times[row_times >= 0.333][0])  # its window [t - r, t] holds it
        assert 0.333 < first_bad < 0.343 and len(row_times) < simulator._NORM_BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError,
                               match=f"^composite norm not finite at t={re.escape(repr(first_bad))}$"):
                simulate_closed_loop(plant, assm, partition, config, init)
        assert huge == [first_bad]

    def test_non_finite_held_input(self, planar):
        # refused at the first hold, also on a horizon shorter than tau, where
        # no plant state reads the held input and no state check would see it
        plant, assm = planar
        nan_law = dataclasses.replace(assm, local_controller=lambda x: [float("nan")])
        with pytest.raises(NonFiniteError, match=r"^held input not finite at t=0\.0: "):
            simulate_closed_loop(plant, nan_law, generate_partition(0.01, 0.2, seed=0),
                                 short_config(horizon=0.2),
                                 InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]))

    def test_nan_lyapunov_on_the_observer_path(self, planar):
        # V is NaN on the band 1.2 < V < 1.3, which z crosses on its way in
        # from V(z0) = 1.44: the correction refuses the NaN damping there
        # instead of running undamped and recording one NaN lyap_z row
        plant, assm = planar
        holed = _holed(assm, lambda x, v: (1.2 < v) & (v < 1.3))
        with pytest.raises(NonFiniteError, match=r"^observer damping is nan at z=\[1\.0"):
            simulate_closed_loop(plant, holed, generate_partition(0.01, 2.0, seed=0),
                                 short_config(horizon=2.0),
                                 InitialData(x0=[1.0, -1.0], z0=[1.2, -1.2]))

    def test_nan_lyapunov_at_plant_states(self, planar):
        # V is NaN where x2 < -0.95, as at x0 = (1, -1); z never goes there,
        # so the run completes and its lyap_x column is refused, where the
        # summary's max_Vx would have been NaN
        plant, assm = planar
        holed = _holed(assm, lambda x, v: x[1] < -0.95)
        with pytest.raises(NonFiniteError,
                           match=r"^trajectory column lyap_x not finite at t=0\.0$"):
            simulate_closed_loop(plant, holed, generate_partition(0.01, 2.0, seed=0),
                                 short_config(horizon=2.0),
                                 InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]))

    def test_gain_must_fit_the_plant(self, planar):
        # planar k_out = 1: a second gain column has no output to multiply
        plant, assm = planar
        wide = dataclasses.replace(assm, observer_gain=np.array([[-0.02, 5.0], [-1.0, 7.0]]))
        with pytest.raises(ConfigurationError,
                           match=r"^observer_gain has shape \(2, 2\), the plant needs \(2, 1\)$"):
            simulate_closed_loop(plant, wide, generate_partition(0.01, 0.1, seed=0),
                                 short_config(horizon=0.1),
                                 InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]))

    def test_rows_cover_endpoints(self, short_run):
        *_, config, _init, traj = short_run
        assert traj.t[0] == 0.0
        assert traj.t[-1] == config.horizon

    def test_sublevel_invariants(self, short_run):
        plant, assm, _config, init, traj = short_run
        v0 = float(assm.lyapunov(init.histories(plant)[0].value(0.0)))
        vz0 = float(assm.lyapunov(init.z0))
        assert np.max(traj.lyap_x) <= max(v0, assm.absorbing_level) + 1e-6
        assert np.max(traj.lyap_z) <= max(vz0, assm.blend_hi) + 1e-6

    def test_inputs_in_box(self, short_run):
        plant, *_ , traj = short_run
        assert inputs_in_box(traj, plant.input_box)

    def test_reset_samples_are_delayed_outputs(self, planar):
        # on a uniform schedule with T_s = record_dt and r a multiple of it,
        # each measurement time less r is a row time (or in the constant
        # initial history), so every sample can be checked against h there
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        partition = generate_partition(0.05, 4.0, seed=0, min_frac=1.0)
        traj = simulate_closed_loop(plant, assm, partition, short_config(record_dt=0.05), init)
        assert len(traj.reset_records) == partition.times.size == 81
        for t, y_sample in traj.reset_records:
            if t < plant.r:
                want = plant.h(init.histories(plant)[0].value(0.0))
            else:
                i = int(np.searchsorted(traj.t, t - plant.r - 1e-9))
                assert abs(traj.t[i] - (t - plant.r)) <= 1e-12
                want = plant.h(traj.x[i])
            assert y_sample == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_input_constant_between_holds(self, short_run):
        *_, config, _init, traj = short_run
        # the applied input may only change at hold instants
        for i in range(1, traj.t.size):
            if (traj.u_applied[i] != traj.u_applied[i - 1]).any():
                ratio = traj.t[i] / config.T_H
                assert abs(ratio - round(ratio)) < 1e-9

    def test_norm_column_matches_recomputation(self, short_run):
        plant, _assm, config, _init, traj = short_run
        # interior rows away from the pruning frontier are reproducible
        # from the recorded rows alone
        t_mid = 2.0
        idx = int(np.searchsorted(traj.t, t_mid))
        t_row = float(traj.t[idx])
        recomputed = composite_norm(traj, t_row, plant.r, plant.tau)
        assert recomputed == pytest.approx(traj.norm[idx], rel=1e-6)

    def test_partition_must_cover_horizon(self, planar):
        plant, assm = planar
        config = short_config(horizon=4.0)
        partition = generate_partition(0.01, 2.0, seed=0)
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        with pytest.raises(ConfigurationError):
            simulate_closed_loop(plant, assm, partition, config, init)

    def test_z0_dimension_checked(self, planar):
        plant, assm = planar
        config = short_config(horizon=1.0)
        partition = generate_partition(0.01, 1.0, seed=0)
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            simulate_closed_loop(plant, assm, partition, config, init)

    @pytest.mark.parametrize("field, value, message", [
        ("x0", [float("nan"), 0.0], "finite"),
        ("x0", ([-0.25, 0.0], [[1.0, 0.0], [float("inf"), 0.0]]), "finite"),
        ("z0", [0.0, float("inf")], "finite"),
        ("z0", [0.0, 0.0, 0.0], "x0 and z0 need 2 components, got 2 and 3"),
        ("u0_segments", [(-0.5, [0.1]), (-0.2, [float("nan")])], "finite"),
        ("x0", [1.0, -1.0, 0.0], "x0 and z0 need 2 components, got 3 and 2"),
        ("u0_segments", [(-0.5, [0.1, 0.2])], "must have the input dimension 1"),
    ])
    def test_bad_initial_data_rejected_at_entry(self, planar, field, value, message):
        plant, assm = planar
        init = InitialData(**{"x0": [1.0, -1.0], "z0": [0.0, 0.0], field: value})
        partition = generate_partition(0.01, 1.0, seed=0)
        with pytest.raises(ConfigurationError, match=message):
            simulate_closed_loop(plant, assm, partition, short_config(horizon=1.0), init)

    def test_dt_refinement_converges(self, planar):
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        partition = generate_partition(0.01, 4.0, seed=0)
        coarse = simulate_closed_loop(plant, assm, partition,
                                      short_config(dt_max=1e-3), init)
        fine = simulate_closed_loop(plant, assm, partition,
                                    short_config(dt_max=5e-4), init)
        ref = np.linalg.norm(fine.x[-1])
        assert np.linalg.norm(coarse.x[-1] - fine.x[-1]) <= 1e-6 * max(ref, 1.0)

    def test_each_span_is_one_integration_and_one_record_append(self, planar, monkeypatch):
        # every substep of a span runs inside one integrate_span call, and its
        # nodes enter the state record in one append, not one per substep
        plant, assm = planar
        config = short_config(horizon=2.0)
        partition = generate_partition(0.01, config.horizon, seed=0)
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        group_times, _kinds = simulator._event_groups(partition, config, plant,
                                                      init.histories(plant)[1].starts)
        spans, appends = [], []
        integrate_span, append = simulator.integrate_span, StateHistory.append

        def counted_span(*args):
            spans.append(args[1:3])
            return integrate_span(*args)

        def counted_append(hist, times, states):
            appends.append(len(times))
            return append(hist, times, states)

        monkeypatch.setattr(simulator, "integrate_span", counted_span)
        monkeypatch.setattr(StateHistory, "append", counted_append)
        simulate_closed_loop(plant, assm, partition, config, init)
        assert len(spans) == len(group_times) - 1  # the first event group is at t = 0
        assert all(t0 < t1 for t0, t1 in spans)
        assert len(appends) == len(spans) + 1  # and one for the initial record
        substeps = sum(math.ceil((t1 - t0) / config.dt_max) for t0, t1 in spans)
        assert sum(appends) == 2 + substeps > 2 * len(appends)  # x0 at -r and at 0

    def test_a_plant_that_writes_into_u_leaves_the_input_record_alone(self, monkeypatch):
        # f zeroes its input argument after reading it; the spans and the
        # predictor hand f copies, so the record keeps what each hold returned
        plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
        f, hold_control, held = plant.f, simulator.hold_control, []

        def writing_f(x, u):
            value = f(x, u)
            u[0] = 0.0
            return value

        def recorded_hold(*args):
            held.append(hold_control(*args))
            return held[-1]

        monkeypatch.setattr(simulator, "hold_control", recorded_hold)
        config = short_config(horizon=2.0, N=64)
        traj = simulate_closed_loop(dataclasses.replace(plant, f=writing_f), assm,
                                    generate_partition(0.01, config.horizon, seed=0), config,
                                    InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0]))
        segments = [(s, v) for s, v in traj.input_segments if s >= 0.0]
        assert len(segments) == len(held) == 41
        assert all((v == u).all() for (_s, v), u in zip(segments, held))
        assert np.count_nonzero(held) == 40  # the hold at t = 0 reads z = 0
        hold_of_row = np.searchsorted([s for s, _v in segments], traj.t, "right") - 1
        assert (traj.u_applied == np.array(held)[hold_of_row]).all()

    def test_memory_per_recorded_row(self, tmp_path):
        # the rows, resets and event groups live in flat float64 buffers and
        # the CSV is written a block at a time: 80 bytes of table per row on
        # the default loop, plus its reset and group entries, ~100 bytes in
        # all; as Python lists, sets and pairs a row held ~850
        plant, assm = build_planar_example(DEFAULTS["zeta"], b_level=DEFAULTS["b"],
                                           c_frac=DEFAULTS["c"], r=DEFAULTS["r"],
                                           tau=DEFAULTS["tau"])[:2]
        init = InitialData(x0=DEFAULTS["x0"], z0=DEFAULTS["z0"])
        peaks = []
        for horizon in (10.0, 40.0):
            # one RK4 substep per span and one Euler step per hold: the rows
            # are the default run's, at a fraction of its work under tracemalloc
            config = dataclasses.replace(_sim_config(DEFAULTS), horizon=horizon,
                                         dt_max=0.05, N=1)
            partition = generate_partition(DEFAULTS["T_s"], horizon, config.seed,
                                           DEFAULTS["min_frac"])
            tracemalloc.start()
            try:
                traj = simulate_closed_loop(plant, assm, partition, config, init)
                traj.write_csv(tmp_path / "trajectory.csv")
                peaks.append((traj.t.size, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            del traj
        (rows_short, peak_short), (rows_long, peak_long) = peaks
        assert rows_long - rows_short > 4000
        assert (peak_long - peak_short) / (rows_long - rows_short) <= 400


# offsets, in units of _EVENT_ATOL, of measurement times placed next to other events
_NEAR = [-3.0, -1.5, -1.0, -0.6, 0.0, 0.4, 0.6, 1.0, 1.2, 1.5, 3.0]


@st.composite
def event_cases(draw, r, tau):
    """``(partition, config, plant, init_starts)`` for ``_event_groups``: a
    horizon on or off the record grid, initial input segments covering
    ``[-(r + tau), 0)``, and measurement times drawn at random and next to
    the hold, record and delayed-switch events, within a few _EVENT_ATOL."""
    T_H = draw(st.sampled_from([0.01, 0.03, 0.05, 0.1]))
    record_dt = draw(st.sampled_from([0.02, 0.05, 0.07]))
    horizon = draw(st.one_of(st.floats(0.05, 0.6),
                             st.integers(1, 8).map(lambda k: k * record_dt)))
    window = r + tau
    init_starts = [] if window == 0.0 else [-window, *sorted(draw(st.sets(
        st.floats(-window, 0.0, exclude_min=True, exclude_max=True), max_size=3)))]
    holds = simulator._grid(T_H, horizon)
    anchors = [*holds, *simulator._grid(record_dt, horizon), horizon,
               *(s + d for s in [*init_starts, *holds] for d in (tau, window))]
    near = draw(st.lists(st.tuples(st.sampled_from(anchors), st.sampled_from(_NEAR)),
                         max_size=12))
    times = {0.0, *draw(st.lists(st.floats(0.0, horizon), max_size=20)),
             *(a + k * EVENT_ATOL for a, k in near), horizon + draw(st.floats(0.0, 0.01))}
    times = np.array(sorted(t for t in times if t >= 0.0))
    partition = SamplingPartition(times, float(np.diff(times).max()))
    config = SimConfig(T_H=T_H, N=1, horizon=horizon, dt_max=T_H, record_dt=record_dt)
    return partition, config, SimpleNamespace(tau=tau, delay_window=window), init_starts


class TestEventGroups:
    @pytest.mark.parametrize("r, tau", [(0.0, 0.0), (0.0, 0.07), (0.05, 0.1), (0.13, 0.0)],
                             ids=["delay-free", "input-delay-only", "both", "output-delay-only"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flat_groups_are_the_set_groups(self, r, tau, data):
        case = data.draw(event_cases(r, tau))
        times, kinds = simulator._event_groups(*case)
        want = event_groups_sets(*case)
        assert [t.hex() for t in times] == [t.hex() for t, _kinds in want]
        assert [{k for k in range(4) if mask >> k & 1} for mask in kinds] == [
            k for _t, k in want]


def _norm_trajectory(times, norms):
    rows = len(times)
    zeros = np.zeros((rows, 2))
    return Trajectory(t=np.asarray(times), x=zeros, z=zeros,
                      w=np.zeros((rows, 1)), u_applied=np.zeros((rows, 1)),
                      lyap_x=np.zeros(rows), lyap_z=np.zeros(rows),
                      norm=np.asarray(norms))


class TestCompositeNorm:
    def _traj(self):
        times = [0.0, 0.5, 1.0, 1.5, 2.0]
        x = np.array([[1.0, 0.0], [1.5, 0.0], [1.0, 0.0], [2.0, 0.0], [0.25, 0.0]])
        z = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0]])
        rows = len(times)
        return Trajectory(t=times, x=x, z=z, w=np.zeros((rows, 1)),
                          u_applied=np.zeros((rows, 1)), lyap_x=np.zeros(rows),
                          lyap_z=np.zeros(rows), norm=np.zeros(rows),
                          input_segments=[(-1.0, np.array([0.5])),
                                          (1.2, np.array([0.1]))])

    def test_hand_value(self):
        traj = self._traj()
        # x peaks at 2 inside [1, 2], z contributes 1, input sup is 0.5
        assert composite_norm(traj, 2.0, r=1.0, tau=0.0) == 3.5

    def test_instantaneous_when_delay_free(self):
        traj = self._traj()
        assert composite_norm(traj, 1.5, r=0.0, tau=0.0) == 2.0
        assert composite_norm(traj, 2.0, r=0.0, tau=0.0) == 1.25

    def test_interpolates_window_edges(self):
        traj = self._traj()
        # x sup over [0.75, 1.75] is the 2.0 row; z interpolates to 0.5 at
        # 1.75; the input record contributes its 0.5 segment
        assert composite_norm(traj, 1.75, r=1.0, tau=0.0) == 3.0

    def test_window_coverage_enforced(self):
        traj = self._traj()
        with pytest.raises(CoverageError):
            composite_norm(traj, 0.5, r=1.0, tau=0.0)
        with pytest.raises(CoverageError):
            composite_norm(traj, 2.5, r=1.0, tau=0.0)

    def test_initial_norm(self, planar):
        # the summary's initial norm is row 0: the constant state history,
        # the observer state, and the initial input segment
        plant, assm = planar
        config = short_config(horizon=0.5)
        partition = generate_partition(0.01, config.horizon, seed=0)

        def initial_norm(init):
            traj = simulate_closed_loop(plant, assm, partition, config, init)
            return run_summary(traj, config)["initial_norm"]

        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        assert initial_norm(init) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        init = InitialData(x0=[1.0, -1.0], z0=[0.5, 0.0],
                           u0_segments=[(-0.5, [0.3])])
        assert initial_norm(init) == pytest.approx(np.sqrt(2.0) + 0.5 + 0.3, rel=1e-15)


class TestDecayFit:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 60)
        traj = _norm_trajectory(t, np.exp(-0.5 * t))
        sigma, r2 = fit_decay_rate(traj, 0.0, 10.0)
        assert sigma == pytest.approx(0.5, abs=1e-6)
        assert r2 > 0.999999

    def test_constant_norm(self):
        t = np.linspace(0.0, 10.0, 30)
        traj = _norm_trajectory(t, np.ones_like(t))
        sigma, r2 = fit_decay_rate(traj, 0.0, 10.0)
        assert sigma == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_needs_three_rows(self):
        traj = _norm_trajectory([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        with pytest.raises(InsufficientDataError):
            fit_decay_rate(traj, 0.0, 1.0)

    def test_underflowed_rows_dropped(self):
        t = np.linspace(0.0, 10.0, 30)
        norms = np.exp(-0.5 * t)
        norms[-5:] = 0.0
        traj = _norm_trajectory(t, norms)
        sigma, _ = fit_decay_rate(traj, 0.0, 10.0)
        assert sigma == pytest.approx(0.5, abs=1e-6)


class TestSummaryAndTune:
    def test_summary_keys(self, short_run):
        *_, config, _init, traj = short_run
        summary = run_summary(traj, config)
        assert set(summary) == {"sigma_hat", "r2", "terminal_norm", "initial_norm",
                                "max_Vx", "max_Vz", "partition_seed", "config"}
        assert summary["initial_norm"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert summary["config"]["N"] == config.N

    def test_summary_reads_recorded_rows_when_horizon_below_window(self):
        # a horizon shorter than r: the terminal window reaches into the
        # initial history, which only the recorded row norm covers
        plant, assm, _fn = build_planar_example(0.01, r=1.0, tau=0.5)
        config = short_config(horizon=0.5)
        partition = generate_partition(0.01, config.horizon, seed=0)
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        traj = simulate_closed_loop(plant, assm, partition, config, init)
        summary = run_summary(traj, config)
        assert summary["terminal_norm"] == traj.norm[-1]
        assert summary["initial_norm"] == traj.norm[0]

    def test_tune_accepts_first_workable_triple(self, planar, monkeypatch):
        monkeypatch.setattr(simulator, "DECAY_RATIO", 0.9)
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        base = short_config(horizon=2.0)
        grid = [(0.01, 0.05, 16), (0.02, 0.1, 16), (0.01, 0.05, 64)]
        result = pilot_tune(plant, assm, init, grid, base)
        assert result.passed
        # cheapest first: fewest predictor steps, then the larger periods
        assert result.triple == (0.02, 0.1, 16)
        assert len(result.attempts) == 1
        assert result.attempts[0]["passed"] is True

    def test_tune_reports_failure(self, planar, monkeypatch):
        monkeypatch.setattr(simulator, "DECAY_RATIO", 1e-12)
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        base = short_config(horizon=2.0)
        result = pilot_tune(plant, assm, init, [(0.01, 0.05, 16)], base)
        assert not result.passed
        assert result.triple is None
        assert len(result.attempts) == 1
        assert result.attempts[0]["passed"] is False
        assert result.attempts[0]["terminal_ratio"] > 1e-12

    @pytest.mark.parametrize("n", [2.7, 16.0, 0])
    def test_tune_refuses_a_step_count_that_is_not_a_count(self, planar, n):
        # a fractional N was truncated: 2.7 ran and was reported as N = 2
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        with pytest.raises(ConfigurationError, match=r"^N must be an integer of at least 1$"):
            pilot_tune(plant, assm, init, [(0.01, 0.05, 16), (0.01, 0.05, n)],
                       short_config(horizon=2.0))

    def test_tune_accepts_numpy_step_counts(self, planar, monkeypatch):
        monkeypatch.setattr(simulator, "DECAY_RATIO", 0.9)
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        result = pilot_tune(plant, assm, init, [(0.02, 0.1, np.int64(16))],
                            short_config(horizon=2.0))
        assert result.triple == (0.02, 0.1, 16) and type(result.triple[2]) is int

    def test_tune_rejects_empty_grid(self, planar):
        plant, assm = planar
        init = InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])
        with pytest.raises(ConfigurationError):
            pilot_tune(plant, assm, init, [], short_config(horizon=2.0))

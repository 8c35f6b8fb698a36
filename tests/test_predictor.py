import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (ConfigurationError, CoverageError, InputHistory, PlantModel,
                       build_planar_example, euler_predict, predictor_convergence_study)
from history_oracles import euler_per_step, grid_times, input_records
from loop_oracles import euler_predict_numpy


def scalar_decay_plant(r=0.5, tau=0.5):
    return PlantModel(n=1, m=1, k_out=1,
                      f=lambda x, u: [-x[0]],
                      h=lambda x: [x[0]],
                      jac_h=lambda x: [[1.0]],
                      input_box=np.array([[-1.0, 1.0]]),
                      r=r, tau=tau)


def records_ending_in(lo, hi):
    """Input records from -2 whose current time, where the predictor's
    window ends, is drawn from ``[lo, hi]``, on the grid or between."""
    return grid_times(lo, hi).flatmap(lambda t_now: input_records(t_now=t_now))


def zero_hist(window, m=1, t_now=0.0):
    return InputHistory(t_now - window, [(t_now - window, np.zeros(m))], t_now=t_now)


class TestEulerPredict:
    def test_scalar_closed_form(self):
        # xdot = -x over a unit window: N Euler steps give exactly (1 - 1/N)^N
        plant = scalar_decay_plant()
        hist = zero_hist(1.0)
        for N in (1, 2, 8, 16, 64, 333):
            got = euler_predict([1.0], hist, N, plant)[0]
            assert got == pytest.approx((1.0 - 1.0 / N) ** N, abs=5e-14)

    def test_requires_at_least_one_step(self):
        plant = scalar_decay_plant()
        with pytest.raises(ConfigurationError):
            euler_predict([1.0], zero_hist(1.0), 0, plant)

    def test_delay_free_is_identity(self):
        plant = scalar_decay_plant(r=0.0, tau=0.0)
        got = euler_predict(np.array([0.7]), InputHistory(0.0), 16, plant)
        assert got == [0.7] and type(got[0]) is float

    def test_coverage_errors(self):
        plant = scalar_decay_plant()
        short = zero_hist(0.5)
        with pytest.raises(CoverageError):
            euler_predict([1.0], short, 8, plant)  # window starts early

    def test_zero_data_stays_zero(self):
        plant, _assm, _fn = build_planar_example(0.01, r=0.5, tau=0.5)
        got = euler_predict([0.0, 0.0], zero_hist(1.0), 32, plant)
        assert got == [0.0, 0.0]

    def test_equal_split_bit_identity(self):
        # splitting a constant segment at the midpoint must not change a
        # single bit: each Euler step accumulates f*length pieces before
        # updating the state, and the equal pieces sum exactly
        plant, _assm, _fn = build_planar_example(0.01, r=0.25, tau=0.25)
        one = InputHistory(-0.5, [(-0.5, [0.2])], t_now=0.0)
        two = InputHistory(-0.5, [(-0.5, [0.2]), (-0.25, [0.2])], t_now=0.0)
        for N in (1, 3, 16, 64):
            p1 = euler_predict([0.3, 0.1], one, N, plant)
            p2 = euler_predict([0.3, 0.1], two, N, plant)
            assert p1 == p2

    def test_segment_boundaries_integrated_exactly(self):
        # piecewise-constant input on a single Euler step: the increment is
        # f evaluated once per segment, weighted by exact segment lengths
        plant = PlantModel(n=1, m=1, k_out=1,
                           f=lambda x, u: [u[0]],
                           h=lambda x: [x[0]],
                           jac_h=lambda x: [[1.0]],
                           input_box=np.array([[-2.0, 2.0]]),
                           r=0.5, tau=0.5)
        hist = InputHistory(-1.0, [(-1.0, [0.5]), (-0.3, [-1.0])], t_now=0.0)
        got = euler_predict([0.0], hist, 1, plant)[0]
        assert got == pytest.approx(0.5 * 0.7 - 1.0 * 0.3, abs=1e-16)


    @given(records_ending_in(-1.0, 0.0),
           st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           st.sampled_from([1, 2, 3, 7, 16, 64, 100, 128, 256]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_step_scan_bit_for_bit(self, hist, x0, N):
        # with a dyadic window, N a power of two and starts on the grid, step
        # edges land exactly on segment starts
        plant, _assm, _fn = build_planar_example(0.01, r=0.5, tau=0.5)
        got = euler_predict(x0, hist, N, plant)
        want = euler_per_step(x0, hist, N, plant, hist.t_now)
        assert np.array(got).tobytes() == want.tobytes()

    @given(records_ending_in(-1.0, 0.0),
           st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           st.sampled_from([1, 3, 16, 64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_oracle_bit_for_bit(self, hist, x0, N):
        # the list form against the per-point NumPy form it replaced
        plant, _assm, _fn = build_planar_example(0.01, r=0.5, tau=0.5)
        got = euler_predict(x0, hist, N, plant)
        want = euler_predict_numpy(x0, hist, N, plant)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()


class TestPredictorStudy:
    def test_planar_window(self):
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = InputHistory(-1.0, [(-1.0, [0.3]), (-0.55, [-0.2]), (-0.2, [0.05])],
                            t_now=0.0)
        study = predictor_convergence_study(plant, [0.5, -0.3], hist,
                                            [8, 16, 32, 64])
        ns = [n for n, _ in study]
        errs = [e for _, e in study]
        assert ns == [8, 16, 32, 64]
        assert errs == pytest.approx([0.017993482316142027, 0.007890297818139855,
                                      0.0037993083165242052, 0.001879514618151831],
                                     rel=1e-9)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # first-order method: halving the step roughly halves the error
        assert 1.6 <= errs[-2] / errs[-1] <= 2.4

    def test_equilibrium_is_exact(self):
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = InputHistory(-1.0, [(-1.0, [0.0])], t_now=0.0)
        study = predictor_convergence_study(plant, [0.0, 0.0], hist, [8, 16])
        assert all(err == 0.0 for _, err in study)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (ConfigurationError, CoverageError, InputHistory, PlantModel,
                       build_planar_example, euler_predict, predictor_convergence_study)
from history_oracles import (euler_per_step, grid_times, input_record, input_records,
                             step_pieces)
from loop_oracles import euler_predict_list, euler_predict_numpy


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
    return input_record([(t_now - window, np.zeros(m))], t_now)


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
        one = input_record([(-0.5, [0.2])])
        two = input_record([(-0.5, [0.2]), (-0.25, [0.2])])
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
        hist = input_record([(-1.0, [0.5]), (-0.3, [-1.0])])
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
    def test_matches_list_oracle_bit_for_bit(self, hist, x0, N):
        # the generated Euler step against the list loop it replaced
        plant, _assm, _fn = build_planar_example(0.01, r=0.5, tau=0.5)
        got = euler_predict(x0, hist, N, plant)
        want = euler_predict_list(x0, hist, N, plant)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

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


def _third_order_plant():
    """n = 3, k_out = 2: a chain of integrators with a cubic drift, written
    with products only so that list and ndarray states give the same bits."""
    return PlantModel(n=3, m=1, k_out=2,
                      f=lambda x, u: [x[1], x[2],
                                      -x[0] - 0.5 * x[1] - 0.3 * x[2] - x[0] * x[0] * x[0] + u[0]],
                      h=lambda x: [x[0], x[1] + 0.5 * x[2]],
                      jac_h=lambda x: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5]],
                      input_box=np.array([[-1.0, 1.0]]), r=0.5, tau=0.5)


# (segments, N) on a record ending at t_now = 0; the window is [-1, 0)
WALKS = {
    # four segment starts inside the first of two steps
    "starts-inside-one-step": ([(-1.0, [0.3]), (-0.9, [-0.2]), (-0.8, [0.5]), (-0.7, [-0.6]),
                                (-0.6, [0.1]), (-0.3, [0.4])], 2),
    # a start at t0 (the record begins earlier), and starts on two step edges
    "starts-on-edges": ([(-2.0, [0.3]), (-1.0, [-0.2]), (-0.75, [0.5]), (-0.25, [-0.6])], 4),
    # past the last start the walk's next start is the inf sentinel
    "last-start-inside": ([(-2.0, [0.3]), (-0.3, [-0.5])], 16),
    "no-start-inside": ([(-3.0, [0.7])], 16),
    "one-step": ([(-1.5, [0.3]), (-0.6, [-0.2]), (-0.5, [0.5]), (-0.1, [-0.6])], 1),
    # -1 + 49 * (1/49) rounds to -1.1e-16: the last step must end at t1 itself
    "last-edge-rounds": ([(-1.5, [0.3]), (-0.6, [-0.2]), (-0.5, [0.5]), (-0.1, [-0.6])], 49),
}


class TestRecordWalk:
    @pytest.mark.parametrize("name", list(WALKS))
    @pytest.mark.parametrize("plant_of", [
        lambda: build_planar_example(0.01, r=0.5, tau=0.5)[0], _third_order_plant],
        ids=["n2-k1", "n3-k2"])
    def test_matches_per_step_scan(self, name, plant_of):
        segments, N = WALKS[name]
        plant = plant_of()
        hist = input_record(segments)
        x0 = [0.4, -0.3, 0.2][:plant.n]
        got = euler_predict(x0, hist, N, plant)
        want = euler_per_step(x0, hist, N, plant, hist.t_now)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(WALKS))
    def test_calls_f_once_per_piece(self, name):
        # one f call per nonempty piece of the oracle, with that piece's value
        segments, N = WALKS[name]
        plant = build_planar_example(0.01, r=0.5, tau=0.5)[0]
        f, seen = plant.f, []

        def counted(x, u):
            seen.append(id(u))
            return f(x, u)

        object.__setattr__(plant, "f", counted)
        hist = input_record(segments)
        euler_predict([0.4, -0.3], hist, N, plant)
        pieces = [id(v) for step in step_pieces(hist, -1.0, 0.0, N) for v, _length in step]
        assert seen == pieces


class TestPredictorStudy:
    def test_planar_window(self):
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = input_record([(-1.0, [0.3]), (-0.55, [-0.2]), (-0.2, [0.05])])
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

    @pytest.mark.parametrize("N_list", [[8, 2.5], [8.0], [0]])
    def test_step_counts_must_be_integers(self, N_list):
        # a fractional count was truncated: [2.5] reported a row for N = 2
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = input_record([(-1.0, [0.0])])
        with pytest.raises(ConfigurationError, match=r"^N must be an integer of at least 1$"):
            predictor_convergence_study(plant, [0.5, -0.3], hist, N_list)

    def test_numpy_step_counts_accepted(self):
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = input_record([(-1.0, [0.0])])
        study = predictor_convergence_study(plant, [0.0, 0.0], hist, [np.int64(8)])
        assert study == [(8, 0.0)] and type(study[0][0]) is int

    def test_equilibrium_is_exact(self):
        plant, _, _ = build_planar_example(0.01, r=0.5, tau=0.5)
        hist = input_record([(-1.0, [0.0])])
        study = predictor_convergence_study(plant, [0.0, 0.0], hist, [8, 16])
        assert all(err == 0.0 for _, err in study)

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (ConfigurationError, CoverageError, InputHistory, NonFiniteError,
                       PlantModel, SamplingPartition, SimConfig, StateHistory, Trajectory,
                       build_planar_example, clamp_input)
from absorbctl.model import MAX_STEPS
from history_oracles import (grid_times, input_record, input_records, prune_one_at_a_time,
                             segments_scan, state_record, state_records, step_pieces,
                             sup_abs_scan, sup_norm_scan, windows)
from loop_oracles import inputs_in_box

BOX = np.array([[-1.0, 2.0], [-3.0, 3.0]])


def _oscillator_f(x, u):
    return [x[1], -x[0] + u[0]]


def _planar_plant(**kw):
    return PlantModel(
        n=2, m=1, k_out=1,
        f=_oscillator_f,
        h=lambda x: [x[0]],
        jac_h=lambda x: [[1.0, 0.0]],
        input_box=np.array([[-1.0, 1.0]]),
        **kw,
    )


class TestClampInput:
    def test_identity_inside(self):
        u = np.array([0.5, -2.0])
        assert (clamp_input(u, BOX) == u).all()

    def test_saturates_each_component(self):
        assert (clamp_input([5.0, -9.0], BOX) == np.array([2.0, -3.0])).all()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
    def test_idempotent(self, u):
        once = clamp_input(u, BOX)
        assert (clamp_input(once, BOX) == once).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            clamp_input([1.0], BOX)


class TestPlantModel:
    def test_valid_construction(self):
        plant = _planar_plant(r=0.25, tau=0.5)
        assert plant.delay_window == 0.75

    def test_origin_must_be_equilibrium(self):
        with pytest.raises(ConfigurationError):
            PlantModel(n=1, m=1, k_out=1,
                       f=lambda x, u: np.array([x[0] + 1.0]),
                       h=lambda x: np.array([x[0]]),
                       jac_h=lambda x: np.array([[1.0]]),
                       input_box=np.array([[-1.0, 1.0]]))

    def test_output_must_vanish_at_origin(self):
        with pytest.raises(ConfigurationError):
            PlantModel(n=1, m=1, k_out=1,
                       f=lambda x, u: np.array([-x[0]]),
                       h=lambda x: np.array([x[0] + 0.5]),
                       jac_h=lambda x: np.array([[1.0]]),
                       input_box=np.array([[-1.0, 1.0]]))

    def test_jacobian_checked_against_finite_differences(self):
        with pytest.raises(ConfigurationError):
            PlantModel(n=1, m=1, k_out=1,
                       f=lambda x, u: np.array([-x[0]]),
                       h=lambda x: np.array([x[0] ** 2 + x[0]]),
                       jac_h=lambda x: np.array([[1.0]]),  # misses the 2x term
                       input_box=np.array([[-1.0, 1.0]]))

    def test_box_must_contain_zero(self):
        with pytest.raises(ConfigurationError):
            PlantModel(
                n=2, m=1, k_out=1,
                f=lambda x, u: np.array([x[1], -x[0] + u[0]]),
                h=lambda x: np.array([x[0]]),
                jac_h=lambda x: np.array([[1.0, 0.0]]),
                input_box=np.array([[0.5, 1.0]]))

    def test_inverted_box(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(_planar_plant(), input_box=np.array([[1.0, -1.0]]))

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            _planar_plant(r=-0.1)

    def test_stored_matrices_are_read_only_copies(self):
        # a write to the caller's array must not reach the frozen model (it
        # could move the box off the zero input), and the stored arrays
        # refuse writes; a Fortran-order source is stored in C order
        box = np.array([[-1.0, 1.0]])
        plant = dataclasses.replace(_planar_plant(), input_box=box)
        _plant, assm, _fn = build_planar_example(0.01)
        gain = np.asfortranarray([[-0.02, 0.5], [-1.0, 0.25]])[:, :1]
        metric = np.asfortranarray([[2.0, 0.5], [0.5, 1.0]])
        assm = dataclasses.replace(assm, observer_gain=gain, error_metric=metric)
        box[0, 0], gain[0, 0], metric[0, 0] = 3.0, 7.0, 9.0
        assert (plant.input_box == [[-1.0, 1.0]]).all()
        assert (assm.observer_gain == [[-0.02], [-1.0]]).all()
        assert (assm.error_metric == [[2.0, 0.5], [0.5, 1.0]]).all()
        for stored in (plant.input_box, assm.observer_gain, assm.error_metric):
            assert stored.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 3.0

    def test_partition_times_are_a_read_only_copy(self):
        # a write to the caller's array would skip the partition's gap check
        times = np.array([0.0, 0.01, 0.02])
        partition = SamplingPartition(times, 0.01)
        times[1] = 5.0
        assert partition.times.tolist() == [0.0, 0.01, 0.02]
        assert partition.times.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            partition.times[1] = 5.0


class TestCallableContract:
    """Every user callable is called with lists of floats and checked once, at
    construction, for its shape; a list, tuple or float64 ndarray of reals passes."""

    def test_any_sequence_of_reals_passes(self):
        plant = dataclasses.replace(
            _planar_plant(),
            f=lambda x, u: (x[1], -x[0] + u[0]),
            h=lambda x: np.array([x[0]], dtype=float),
            jac_h=lambda x: [[1.0, 0.0]])
        assert plant.h([0.5, 0.0]).tolist() == [0.5]
        _plant, assm, _fn = build_planar_example(0.01)
        dataclasses.replace(assm, grad_lyapunov=lambda x: np.array([x[0], x[1]], dtype=float),
                            local_controller=lambda x: (0.0,))

    def test_plant_rejects_wrong_shapes(self):
        with pytest.raises(ConfigurationError,
                           match=r"f must return reals of shape \(1,\), "
                                 r"got float64 list of shape \(1, 1\)"):
            PlantModel(n=1, m=1, k_out=1, f=lambda x, u: [[-x[0]]],
                       h=lambda x: x[0], jac_h=lambda x: 1.0,
                       input_box=np.array([[-1.0, 1.0]]))
        plant = _planar_plant()
        with pytest.raises(ConfigurationError, match=r"^h must return reals of shape \(1,\)"):
            dataclasses.replace(plant, h=lambda x: x[0])
        with pytest.raises(ConfigurationError, match=r"jac_h must return reals of shape \(1, 2\)"):
            dataclasses.replace(plant, jac_h=lambda x: np.array([1.0, 0.0]))
        with pytest.raises(ConfigurationError,
                           match=r"^f must return reals of shape \(2,\), got float64 list "
                                 r"of shape \(3,\)"):
            dataclasses.replace(plant, f=lambda x, u: [x[1], -x[0] + u[0], 0.0])

    def test_plant_rejects_non_float_arrays(self):
        with pytest.raises(ConfigurationError, match="got int64 ndarray of shape"):
            dataclasses.replace(_planar_plant(),
                                jac_h=lambda x: np.array([[1, 0]], dtype=np.int64))

    @pytest.mark.parametrize("name, bad, expected", [
        # NumPy 2 keeps float32 through float32 * float, so the loop would
        # silently run in single precision
        ("f", lambda x, u: np.array(_oscillator_f(x, u), dtype=np.float32),
         r"f must return reals of shape \(2,\), got float32 ndarray"),
        ("h", lambda x: "x1", r"h must return reals of shape \(1,\), got <U2 str"),
        ("h", lambda x: [complex(x[0])], r"h must return .* got complex128 list"),
        ("jac_h", lambda x: [[1.0, 0.0], [1.0]], r"jac_h must return .* got a ragged list"),
        ("jac_h", lambda x: np.array([[True, False]]), r"jac_h must return .* got bool ndarray"),
        ("jac_h", lambda x: [[1, 0]], r"jac_h must return .* got int64 list"),
    ])
    def test_plant_rejects_non_real_results(self, name, bad, expected):
        with pytest.raises(ConfigurationError, match=f"^{expected}"):
            dataclasses.replace(_planar_plant(), **{name: bad})

    @pytest.mark.parametrize("name, bad, expected", [
        ("lyapunov", lambda x: np.array([0.5 * (x[0] ** 2 + x[1] ** 2)]), "a real scalar"),
        ("lyapunov", lambda x: "0.5", "a real scalar, got <U3 str"),
        ("dissipation", lambda x: [0.0], "a real scalar"),
        ("grad_lyapunov", lambda x: np.array([[x[0], x[1]]]), r"reals of shape \(2,\)"),
        ("grad_local_lyapunov", lambda x: [x[0]], r"reals of shape \(2,\)"),
        ("local_controller", lambda x: -x[0], "a 1-d sequence of reals"),
        ("local_controller", lambda x: np.array([-x[0]], dtype=np.float32),
         "a 1-d sequence of reals, got float32 ndarray"),
    ])
    def test_assumptions_reject_wrong_shapes(self, name, bad, expected):
        _plant, assm, _fn = build_planar_example(0.01)
        with pytest.raises(ConfigurationError, match=f"{name} must return {expected}"):
            dataclasses.replace(assm, **{name: bad})

    @pytest.mark.parametrize("name, point_only, expected", [
        ("lyapunov", lambda x: 0.5 * float(np.dot(x, x)),
         r"lyapunov must accept an \(n, B\) batch"),
        ("grad_lyapunov", lambda x: np.reshape([x[0], x[1]], -1),
         r"grad_lyapunov on an \(n, B\) batch must return reals of shape \(2, 4\), "
         r"got float64 ndarray of shape \(8,\)"),
        ("lyapunov", lambda x: 0.5 * float(np.dot(x, x)) if np.ndim(x) == 1
         else np.zeros(np.shape(x)[1]),
         r"lyapunov on an \(n, B\) batch differs from its points"),
    ])
    def test_assumptions_reject_point_only_lyapunov_pair(self, name, point_only, expected):
        # the sampled checks evaluate V and grad V on (n, B) column batches
        _plant, assm, _fn = build_planar_example(0.01)
        with pytest.raises(ConfigurationError, match=f"^{expected}"):
            dataclasses.replace(assm, **{name: point_only})

    @pytest.mark.parametrize("name, numpy_only, expected", [
        ("f", lambda x, u: np.array([x[1], -x[0] + u[0]]) + 0.0 * x.sum(),
         "f must accept list arguments: AttributeError"),
        ("jac_h", lambda x: [1.0, 0.0] if type(x) is list else np.array([[1.0, 0.0]]),
         r"jac_h must return reals of shape \(1, 2\), got float64 list of shape \(2,\)"),
    ])
    def test_plant_rejects_callables_off_the_list_contract(self, name, numpy_only, expected):
        # the closed loop calls f, h and jac_h with lists of floats
        with pytest.raises(ConfigurationError, match=f"^{expected}"):
            dataclasses.replace(_planar_plant(), **{name: numpy_only})

    @pytest.mark.parametrize("name, numpy_only, expected", [
        ("dissipation", lambda x: 0.1 * (x * x).sum(),
         "dissipation must accept list arguments: TypeError"),
        ("grad_local_lyapunov", lambda x: [x[0]] if type(x) is list else np.array(x),
         r"grad_local_lyapunov must return reals of shape \(2,\)"),
        ("lyapunov", lambda x: [0.5 * (x[0] ** 2 + x[1] ** 2)] if type(x) is list
         else 0.5 * (x[0] ** 2 + x[1] ** 2),
         r"lyapunov must return a real scalar, got float64 list of shape \(1,\)"),
    ])
    def test_assumptions_reject_callables_off_the_list_contract(self, name, numpy_only,
                                                                 expected):
        _plant, assm, _fn = build_planar_example(0.01)
        with pytest.raises(ConfigurationError, match=f"^{expected}"):
            dataclasses.replace(assm, **{name: numpy_only})


NAN, INF = float("nan"), float("inf")


class TestFiniteSettings:
    """Non-finite numbers and negative seeds are refused where they are stored."""

    @pytest.mark.parametrize("field, value", [("r", INF), ("tau", NAN)])
    def test_plant_delays(self, field, value):
        with pytest.raises(ConfigurationError, match="delays must be nonnegative and finite"):
            _planar_plant(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("absorbing_level", -INF, "levels"), ("blend_hi", INF, "levels"),
        ("blend_hi", 1.0, "levels"),  # equal to blend_lo: the ramp needs lo < hi
        ("contraction_rate", NAN, "rates"), ("local_decay", INF, "rates"),
        ("coercivity", NAN, "rates"),
    ])
    def test_certificate_levels_and_rates(self, field, value, message):
        _plant, assm, _fn = build_planar_example(0.01)
        with pytest.raises(ConfigurationError, match=f"^{message} must be .*finite"):
            dataclasses.replace(assm, **{field: value})

    # each comparison below used to be false for a NaN, so the NaN passed it
    @pytest.mark.parametrize("field, value, message", [
        ("f", lambda x, u: [x[1] * NAN, -x[0] + u[0]], r"f\(0, 0\) must vanish"),
        ("h", lambda x: [x[0] + NAN], r"h\(0\) must vanish"),
        ("jac_h", lambda x: [[NAN, 0.0]], "jac_h disagrees"),
        ("input_box", np.array([[NAN, 1.0]]), "input_box must contain the zero input"),
        # an infinite box: the checks would sample lo + t * (hi - lo) as NaN
        ("input_box", np.array([[-INF, INF]]), "input_box must be finite"),
    ], ids=["f", "h", "jac_h", "input_box", "input_box-infinite"])
    def test_plant_construction(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            dataclasses.replace(_planar_plant(), **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("observer_gain", [[NAN], [-1.0]], "observer_gain and error_metric must be finite"),
        ("error_metric", [[INF, 0.0], [0.0, 1.0]], "observer_gain and error_metric must be finite"),
        ("grad_local_lyapunov", lambda x: [NAN, 0.0], "grad_local_lyapunov disagrees"),
    ], ids=["observer_gain", "error_metric", "grad_local_lyapunov"])
    def test_certificate_construction(self, field, value, message):
        _plant, assm, _fn = build_planar_example(0.01)
        with pytest.raises(ConfigurationError, match=message):
            dataclasses.replace(assm, **{field: value})

    @pytest.mark.parametrize("times, T_s", [([0.0, 0.05, NAN, 0.1], 0.1), ([0.0, 0.05], INF),
                                            ([0.0, 0.05], NAN)])
    def test_sampling_partition(self, times, T_s):
        # a NaN time used to pass the gap check, and the loop skipped it
        with pytest.raises(ConfigurationError, match="T_s must be positive and finite|gaps"):
            SamplingPartition(np.array(times), T_s)

    @pytest.mark.parametrize("field, value", [
        ("T_H", INF), ("horizon", INF), ("horizon", NAN), ("record_dt", NAN),
        ("record_dt", INF), ("seed", -1), ("N", 2.5), ("seed", 1.5),
        ("N", True), ("seed", True),  # a bool is an Integral, refused all the same
    ])
    def test_sim_config(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            SimConfig(**{"T_H": 0.05, "N": 4, "horizon": 1.0, "dt_max": 1e-3, field: value})

    def test_sim_config_accepts_numpy_integers(self):
        config = SimConfig(T_H=0.05, N=np.int64(4), horizon=1.0, dt_max=1e-3, seed=np.int32(2))
        assert (config.N, config.seed) == (4, 2)


class TestInputHistory:
    def make(self):
        return input_record([(-1.0, [0.3]), (-0.4, [-0.2])])

    def test_right_open_value_semantics(self):
        hist = self.make()
        assert hist.value(-1.0) == [0.3]
        assert hist.value(-0.4000000001)[0] == 0.3
        assert hist.value(-0.4)[0] == -0.2  # segment start belongs to the segment
        with pytest.raises(CoverageError):
            hist.value(0.0)  # t_now itself is not covered
        with pytest.raises(CoverageError):
            hist.value(-1.0001)

    def test_first_segment_must_start_at_t_min(self):
        with pytest.raises(ConfigurationError):
            InputHistory(-1.0).append(-0.5, [0.0])

    def test_append_cannot_rewrite_past(self):
        hist = self.make()
        hist.append(0.0, [0.1])
        hist.advance(0.5)
        with pytest.raises(ConfigurationError):
            hist.append(0.25, [0.7])

    def test_appends_strictly_increasing(self):
        hist = self.make()
        hist.append(0.0, [0.1])
        with pytest.raises(ConfigurationError):
            hist.append(0.0, [0.2])

    def test_append_rejects_wrong_dimension(self):
        hist = self.make()
        with pytest.raises(ConfigurationError, match="share a dimension"):
            hist.append(0.0, [0.1, 0.2])

    def test_advance_monotone_and_empty_guard(self):
        hist = self.make()
        hist.advance(1.0)
        hist.advance(0.2)  # no-op backwards
        assert hist.t_now == 1.0
        with pytest.raises(CoverageError):
            InputHistory(0.0).advance(1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_refused(self, t):
        # a NaN time fails every ordering test, so append and advance took it
        # as t_now, after which every read was outside coverage
        hist = self.make()
        for grow in (InputHistory, lambda t: hist.append(t, [0.1]), hist.advance):
            with pytest.raises(ConfigurationError,
                               match=f"^record times must be finite, got {t}$"):
                grow(t)
        assert hist.t_now == 0.0 and hist.starts == [-1.0, -0.4]
        assert hist.value(-0.5) == [0.3]

    def test_iter_segments_partitions_interval(self):
        hist = self.make()
        pieces = list(hist.iter_segments(-0.9, -0.1))
        assert sum(length for _v, length in pieces) == pytest.approx(0.8, abs=1e-15)
        assert [v[0] for v, _l in pieces] == [0.3, -0.2]

    def test_sup_abs(self):
        hist = self.make()
        got = hist.sup_abs([-1.0, -0.4, -0.3, -0.5, -0.5], [0.0, 0.0, -0.3, -0.5, -0.4])
        assert got.tolist() == [0.3, 0.2, 0.0, 0.0, 0.3]
        assert hist.sup_abs([], []).tolist() == []
        assert InputHistory(0.0).sup_abs([0.0], [0.0]).tolist() == [0.0]

    @pytest.mark.parametrize("t0, t1, message", [
        ([-1.5], [-0.5], r"^input window \[-1\.5, -0\.5\] is not inside \[-1\.0, 0\.0\]$"),
        ([-0.5, -0.5], [-0.4, 0.5], r"^input window \[-0\.5, 0\.5\] is not inside"),
        ([math.nan], [-0.5], r"^input window \[nan, -0\.5\] is not inside"),
        ([-0.5], [math.nan], r"^input window \[-0\.5, nan\] is not inside"),
        ([-0.5, -0.2], [-0.3, -0.4], r"^input window \[-0\.2, -0\.4\] is not inside")])
    def test_sup_abs_refuses_a_window_it_does_not_cover(self, t0, t1, message):
        # one bad window among good ones is enough; a NaN end and a reversed
        # window are not covered
        with pytest.raises(CoverageError, match=message):
            self.make().sup_abs(t0, t1)

    @given(input_records(m=2), st.data())
    @settings(max_examples=300)
    def test_reads_match_scans(self, hist, data):
        # iter_segments and the one-step oracle step_pieces equal a fresh scan
        # of the record, and so does sup_abs on many windows read at once
        t0, t1 = data.draw(windows(hist.t_min, hist.t_now))
        want = segments_scan(hist, t0, t1)
        for got in (hist.iter_segments(t0, t1), step_pieces(hist, t0, t1, 1)[0]):
            assert [(id(v), a) for v, a in got] == [(id(v), a) for v, a in want]
        ends = [(t0, t1), *data.draw(st.lists(windows(hist.t_min, hist.t_now), max_size=8))]
        want = np.array([sup_abs_scan(hist, a, b) for a, b in ends])
        assert hist.sup_abs(*zip(*ends)).tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=200)
    def test_windows_match_scan_through_appends(self, data):
        # the record read between appends and advances; a window may end at
        # t_now, past the newest start
        hist = InputHistory(-1.0)
        value = st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e200]),
                         min_size=2, max_size=2)
        with np.errstate(over="ignore"):
            for _step in range(data.draw(st.integers(1, 8))):
                start = hist.t_now + data.draw(st.sampled_from([0.0, 1 / 64, 0.1, 0.37]))
                if hist.starts and start == hist.starts[-1]:
                    start += 1 / 32
                hist.append(start if hist.starts else -1.0, data.draw(value))
                hist.advance(hist.starts[-1] + data.draw(st.sampled_from([0.0, 1 / 32, 0.25])))
                ends = data.draw(st.lists(windows(hist.t_min, hist.t_now), max_size=6))
                want = np.array([sup_abs_scan(hist, a, b) for a, b in ends], dtype=float)
                assert hist.sup_abs(*zip(*ends) if ends else ([], [])).tobytes() == want.tobytes()

    @given(input_records(), st.data(), st.integers(1, 300))
    @settings(max_examples=200)
    def test_step_pieces_match_per_step_scans(self, hist, data, N):
        # the oracle behind the Euler predictor's walk: one walk across all
        # steps gives each step's own scan
        t0, t1 = data.draw(windows(hist.t_min, hist.t_now))
        h_step = (t1 - t0) / N
        edges = [t0 + i * h_step for i in range(N)] + [t1]
        steps = step_pieces(hist, t0, t1, N)
        assert len(steps) == N
        for i, got in enumerate(steps):
            want = segments_scan(hist, edges[i], edges[i + 1])
            assert [(id(v), a) for v, a in got] == [(id(v), a) for v, a in want]

    def test_iter_segments_coverage(self):
        hist = self.make()
        with pytest.raises(CoverageError):
            hist.iter_segments(-1.5, -0.5)
        with pytest.raises(CoverageError):
            hist.iter_segments(-0.5, 0.5)
        with pytest.raises(CoverageError):
            hist.iter_segments(-0.2, -0.4)
        assert hist.iter_segments(-0.3, -0.3) == []
        assert step_pieces(hist, -0.3, -0.3, 3) == [[], [], []]


class TestStateHistory:
    def test_exact_at_nodes_linear_between(self):
        hist = state_record([0.0, 1.0], [[1.0, 2.0], [3.0, 6.0]])
        assert (hist.value(1.0) == np.array([3.0, 6.0])).all()
        assert hist.value(0.5) == pytest.approx([2.0, 4.0])

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_interpolation_exact_for_affine_data(self, t):
        # states sampled from an affine path: interpolation reproduces it
        times = [0.0, 0.3, 0.7, 1.0]
        path = lambda s: np.array([2.0 * s - 1.0, -s])
        hist = state_record(times, [path(s) for s in times])
        assert hist.value(t) == pytest.approx(path(t), rel=1e-12, abs=1e-12)

    def test_sup_norm_sees_interior_peak(self):
        hist = state_record([0.0, 0.5, 1.0], [[0.0], [2.0], [0.0]])
        got = hist.sup_norm([0.1, 0.6, 0.0, 0.2], [1.0, 1.0, 0.4, 0.3])
        # interpolated at t0, at t1, and at both ends with no sample between
        assert got.tolist() == pytest.approx([2.0, 1.6, 1.6, 1.2], rel=1e-15)
        assert hist.sup_norm([], []).tolist() == []

    def test_out_of_range_raises(self):
        hist = state_record([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(CoverageError):
            hist.value(1.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_times_refused(self, t):
        hist = StateHistory()
        with pytest.raises(ConfigurationError, match=f"^record times must be finite, got {t}$"):
            hist.append([t], [[1.0]])
        hist.append([0.0], [[1.0]])
        for times in ([t], [1.0, t]):  # alone, and after a good time in one batch
            with pytest.raises(ConfigurationError,
                               match=f"^record times must be finite, got {t}$"):
                hist.append(times, [[2.0]] * len(times))
        assert hist.times.tolist() == [0.0] and hist.states.tolist() == [1.0]

    def test_nan_query_raises(self):
        # a NaN query fails the range test instead of interpolating to NaN
        hist = state_record([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(CoverageError, match="^state query at t=nan outside"):
            hist.value(math.nan)
        for ends in (([math.nan], [1.0]), ([0.0], [math.nan]), ([0.0, math.nan], [1.0, 1.0])):
            with pytest.raises(CoverageError, match=r"^state window \[.*nan.*\] is not inside"):
                hist.sup_norm(*ends)

    def test_times_strictly_increasing(self):
        hist = StateHistory()
        hist.append([0.0], [[1.0]])
        # against the last stored time, and within one batch
        for times in ([0.0], [-1.0], [1.0, 1.0], [2.0, 1.5]):
            with pytest.raises(ConfigurationError,
                               match="^sample times must be strictly increasing$"):
                hist.append(times, [[2.0]] * len(times))
        assert hist.times.tolist() == [0.0] and hist.states.tolist() == [1.0]

    @pytest.mark.parametrize("times, states", [
        ([1.0], [[1.0]]), ([1.0], [[1.0, 2.0, 3.0]]),  # another dimension than stored
        ([1.0, 2.0], [[1.0, 2.0]]), ([1.0], [1.0, 2.0]),  # not one row per time
        ([1.0, 2.0], [[1.0, 2.0], [1.0, 2.0, 3.0]]), ([1.0], [["a", "b"]]), ([], [])])
    def test_one_row_per_time_of_one_dimension(self, times, states):
        hist = state_record([0.0], [[1.0, 2.0]])
        with pytest.raises(ConfigurationError,
                           match="^states must be one row per time, of one dimension$"):
            hist.append(times, states)
        assert hist.times.tolist() == [0.0] and hist.states.tolist() == [1.0, 2.0]
        assert hist.sup_norm([0.0], [0.0]).tolist() == [np.sqrt(5.0)]

    @pytest.mark.parametrize("source", [np.array([[1.0, 2.0]]), np.array([[1.0], [2.0]]).T,
                                        np.array([[9.0, 1.0, 9.0, 2.0]])[:, 1::2]])
    def test_append_keeps_own_copy(self, source):
        # the record owns its sample: writing to the source afterwards
        # (a row, a transposed column, or a strided slice of a row) leaves
        # the stored state and its norm as appended
        hist = StateHistory()
        hist.append([0.0], source)
        source[...] = -7.0
        assert hist.states.tolist() == [1.0, 2.0]
        assert hist.value(0.0) == [1.0, 2.0]
        assert hist.sup_norm([0.0], [0.0]).tolist() == [np.sqrt(5.0)]
        # value hands out a new list at a sample time too: a caller such as
        # the output map h may write to it without touching the record
        hist.value(0.0)[:] = [-7.0, -7.0]
        assert hist.states.tolist() == [1.0, 2.0] and hist.value(0.0) == [1.0, 2.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_batched_norms_are_the_per_row_bits(self, n):
        # one vecdot over the record gives each row's math.sqrt(x.dot(x)), bit
        # for bit, on rows whose entries span many scales, appended in one-row
        # batches and in one large one: a window on one sample reads its norm,
        # and the window from each sample on the suffix maximum of those norms
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(100_000, n)) * 10.0 ** rng.integers(-12, 13, size=(100_000, n))
        hist = StateHistory()
        for i in range(1000):
            hist.append([float(i)], rows[i:i + 1])
        hist.append(np.arange(1000.0, 100_000.0), rows[1000:])
        norms = np.array([math.sqrt(row.dot(row)) for row in rows])
        assert hist.sup_norm(hist.times, hist.times).tobytes() == norms.tobytes()
        want = np.maximum.accumulate(norms[::-1])[::-1]
        ends = np.full(len(hist.times), hist.times[-1])
        assert hist.sup_norm(hist.times, ends).tobytes() == want.tobytes()

    def test_sup_norm_refuses_a_time_outside_the_record(self):
        # an uncovered end raises CoverageError, not IndexError from searchsorted
        hist = state_record([0.0, 0.5, 1.0], [[1.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        got = hist.sup_norm([0.0, 0.5, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0])
        assert got.tolist() == [5.0, 5.0, 1.0, 1.0]
        for t0, t1 in ((-0.1, 0.5), (0.5, 1.1), (-0.1, 1.1)):
            with pytest.raises(CoverageError, match=(
                    rf"^state window \[{t0}, {t1}\] is not inside \[0\.0, 1\.0\]$")):
                hist.sup_norm([0.0, t0], [1.0, t1])
        with pytest.raises(CoverageError, match=r"^state window \[0\.6, 0\.4\] is not inside"):
            hist.sup_norm([0.0, 0.6], [1.0, 0.4])
        with pytest.raises(CoverageError, match="^empty state record$"):
            StateHistory().sup_norm([0.0], [0.0])

    def test_prune_keeps_bracketing_node(self):
        hist = state_record([0.0, 1.0, 2.0, 3.0], [[0.0], [1.0], [2.0], [3.0]])
        hist.prune_before(1.5)
        assert hist.times[0] == 1.0  # still brackets queries at 1.5
        assert hist.value(1.5) == pytest.approx([1.5])

    @given(state_records(), st.data())
    @settings(max_examples=300)
    def test_sup_norm_matches_scan(self, hist, data):
        # many windows read at once, each equal to its own scan
        ends = data.draw(st.lists(windows(hist.times[0], hist.times[-1]), min_size=1,
                                  max_size=8))
        want = np.array([sup_norm_scan(hist, t0, t1) for t0, t1 in ends])
        assert hist.sup_norm(*zip(*ends)).tobytes() == want.tobytes()

    @given(state_records(), st.data())
    @settings(max_examples=300)
    def test_sup_norm_at_samples_matches_scan(self, hist, data):
        # ends on samples take the norms of the stored states; the scan
        # recomputes them from the states value reads there
        index = st.integers(0, len(hist.times) - 1)
        ends = [sorted((hist.times[data.draw(index)], hist.times[data.draw(index)]))
                for _ in range(data.draw(st.integers(1, 8)))]
        want = np.array([sup_norm_scan(hist, t0, t1) for t0, t1 in ends])
        assert hist.sup_norm(*zip(*ends)).tobytes() == want.tobytes()

    @given(state_records(), st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=300)
    def test_prune_matches_one_at_a_time(self, hist, t):
        oracle = state_record(hist.times, np.reshape(hist.states, (-1, hist.dim)))
        hist.prune_before(t)
        prune_one_at_a_time(oracle, t)
        assert len(hist.times) >= 1 and hist.times == oracle.times
        assert hist.states == oracle.states

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_prune_refuses_a_time_that_is_not_finite(self, t):
        # bisect_right sent a NaN past every time: prune_before(nan) kept
        # only the newest sample, and so did prune_before(inf)
        hist = state_record([0.0, 1.0, 2.0], [[0.0], [1.0], [2.0]])
        with pytest.raises(ConfigurationError, match=f"^record times must be finite, got {t}$"):
            hist.prune_before(t)
        assert hist.times.tolist() == [0.0, 1.0, 2.0] and hist.states.tolist() == [0.0, 1.0, 2.0]

    @given(st.data())
    @settings(max_examples=300)
    def test_windows_match_scan_through_appends_and_prunes(self, data):
        # ties (norm 1 three ways, 5 two ways) and inf norms (1e200 squared
        # overflows); one-row batches too, and several windows per read
        entry = (st.sampled_from([0.0, 1.0, -1.0, 3.0, 4.0, -5.0, 1e200, -1e200])
                 | st.floats(-5.0, 5.0))
        row = st.lists(entry, min_size=2, max_size=2)
        hist, clock = StateHistory(), 0.0
        with np.errstate(over="ignore"):
            for _step in range(data.draw(st.integers(1, 8))):
                if hist.times and data.draw(st.booleans()):
                    hist.prune_before(data.draw(grid_times(hist.times[0] - 0.5, hist.times[-1])))
                else:
                    gaps = data.draw(st.lists(st.sampled_from([1 / 64, 1 / 32, 0.1, 0.37]),
                                              min_size=1, max_size=5))
                    times = [clock := clock + gap for gap in gaps]
                    hist.append(times, data.draw(st.lists(row, min_size=len(times),
                                                          max_size=len(times))))
                ends = data.draw(st.lists(windows(hist.times[0], hist.times[-1]), min_size=1,
                                          max_size=6))
                want = np.array([sup_norm_scan(hist, t0, t1) for t0, t1 in ends])
                assert hist.sup_norm(*zip(*ends)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_interpolation_is_the_numpy_row_form(self, n):
        # a + theta*(b - a) per float is lo + theta*(hi - lo) on float64 rows
        rng = np.random.default_rng(n)
        times = np.add.accumulate(rng.uniform(1e-3, 1.0, size=2000)).tolist()
        rows = rng.normal(size=(2000, n)) * 10.0 ** rng.integers(-12, 13, size=(2000, n))
        hist = state_record(times, rows)
        for i, frac in zip(range(1999), rng.uniform(0.0, 1.0, size=1999)):
            t = times[i] + frac * (times[i + 1] - times[i])
            if t in (times[i], times[i + 1]):
                continue
            theta = (t - times[i]) / (times[i + 1] - times[i])
            want = rows[i] + theta * (rows[i + 1] - rows[i])
            assert np.array(hist.value(t)).tobytes() == want.tobytes()


class TestPartitionAndConfig:
    def test_partition_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            SamplingPartition(np.array([0.1, 0.2]), 0.1)

    def test_partition_gap_bound(self):
        with pytest.raises(ConfigurationError):
            SamplingPartition(np.array([0.0, 0.3]), 0.1)

    def test_partition_accepts_one_ulp_overshoot(self):
        t1 = 0.1 * (1.0 + 5e-13)
        SamplingPartition(np.array([0.0, t1]), 0.1)

    def test_simconfig_invariants(self):
        with pytest.raises(ConfigurationError):
            SimConfig(T_H=0.05, N=0, horizon=1.0, dt_max=1e-3)
        with pytest.raises(ConfigurationError):
            SimConfig(T_H=0.05, N=4, horizon=1.0, dt_max=0.06)
        with pytest.raises(ConfigurationError):
            SimConfig(T_H=0.05, N=4, horizon=-1.0, dt_max=1e-3)

    @pytest.mark.parametrize("settings, name", [
        ({"dt_max": 1e-300}, "dt_max"), ({"horizon": 1e300}, "dt_max"),
        ({"horizon": 5e6 + 1.0}, "dt_max"), ({"record_dt": 1e-300}, "record_dt"),
        ({"record_dt": 0.25}, "record_dt"), ({"N": 2}, "N"),
        ({"N": 10**12, "horizon": 1.0}, "N")])
    def test_simconfig_refuses_more_steps_than_a_run_may_take(self, settings, name):
        # a run integrated ceil(span/dt_max) substeps, listed j*record_dt up to
        # the horizon and took N Euler steps at each hold, t = 0 included: at
        # 1e-300 either of the first two loops ran on without end, at N = 10**12
        # the predictor did
        base = {"T_H": 1.0, "N": 1, "horizon": 5e6, "dt_max": 0.5, "record_dt": 1.0}
        SimConfig(**base)  # exactly MAX_STEPS substeps
        SimConfig(**{**base, "N": 2, "horizon": 5e6 - 1.0})  # exactly MAX_STEPS Euler steps
        bounded = r"N \* \(horizon/T_H \+ 1\)" if name == "N" else f"horizon/{name}"
        with pytest.raises(ConfigurationError, match=f"^{bounded} must be at most {MAX_STEPS}$"):
            SimConfig(**{**base, **settings})


class TestTrajectory:
    def make(self):
        return Trajectory(
            t=[0.0, 0.5, 1.0],
            x=[[1.0, 0.0], [0.5, 0.1], [0.2, 0.0]],
            z=[[0.0, 0.0], [0.4, 0.0], [0.1, 0.0]],
            w=[[1.0], [0.5], [0.2]],
            u_applied=[[0.0], [0.3], [-0.2]],
            lyap_x=[0.5, 0.13, 0.02],
            lyap_z=[0.0, 0.08, 0.005],
            norm=[1.0, 0.9, 0.3],
        )

    def test_row_count_validation(self):
        with pytest.raises(ConfigurationError):
            Trajectory(t=[0.0, 1.0], x=[[1.0]], z=[[0.0], [0.0]], w=[[0.0], [0.0]],
                       u_applied=[[0.0], [0.0]], lyap_x=[0.0, 0.0],
                       lyap_z=[0.0, 0.0], norm=[0.0, 0.0])

    def test_times_nondecreasing(self):
        with pytest.raises(ConfigurationError):
            Trajectory(t=[1.0, 0.0], x=[[0.0], [0.0]], z=[[0.0], [0.0]],
                       w=[[0.0], [0.0]], u_applied=[[0.0], [0.0]],
                       lyap_x=[0.0, 0.0], lyap_z=[0.0, 0.0], norm=[0.0, 0.0])

    @pytest.mark.parametrize("t", [[0.0, math.nan, 1.0, 2.0, 3.0], [0.0, 1.0, math.inf],
                                   [math.nan]], ids=["nan-inside", "inf-last", "nan-alone"])
    def test_times_finite(self, t):
        # a NaN compares false both ways, so an ordering test alone lets it pass
        zeros = np.zeros((len(t), 1))
        with pytest.raises(ConfigurationError, match="^trajectory times must be finite"):
            Trajectory(t=t, x=zeros, z=zeros, w=zeros, u_applied=zeros, lyap_x=zeros[:, 0],
                       lyap_z=zeros[:, 0], norm=zeros[:, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", ["x", "z", "w", "u_applied", "lyap_x", "lyap_z", "norm"])
    def test_values_finite(self, column, bad):
        # a NaN norm row was dropped by the decay fit's mask, and a NaN
        # Lyapunov value became the summary's max_Vx, which JSON cannot hold
        traj = self.make()
        columns = {name: np.array(getattr(traj, name)) for name in
                   ("t", "x", "z", "w", "u_applied", "lyap_x", "lyap_z", "norm")}
        columns[column][1] = bad
        with pytest.raises(NonFiniteError,
                           match=rf"^trajectory column {column} not finite at t=0\.5$"):
            Trajectory(**columns)

    def test_inputs_in_box(self):
        traj = self.make()
        assert inputs_in_box(traj, np.array([[-0.5, 0.5]]))
        assert not inputs_in_box(traj, np.array([[-0.1, 0.1]]))

    def test_csv_bytes_are_the_csv_modules(self, tmp_path):
        # one formatted line per row gives the bytes of csv.writer on
        # f"{v:.17g}" cells, CRLF line ends included
        traj = self.make()
        traj.x[0], traj.z[1], traj.norm[2] = [-0.0, 5e-324], [1e16, 0.1], 1e16 + 2.0
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["t", "x1", "x2", "z1", "z2", "w1", "u1", "Vx", "Vz", "norm"])
        table = np.column_stack([traj.t, traj.x, traj.z, traj.w, traj.u_applied, traj.lyap_x,
                                 traj.lyap_z, traj.norm])
        for row in table:
            writer.writerow([f"{v:.17g}" for v in row.tolist()])
        assert path.read_bytes() == want.getvalue().encode()
        assert b"-0,4.9406564584124654e-324," in path.read_bytes()

    def test_csv_roundtrip_full_precision(self, tmp_path):
        traj = self.make()
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,z1,z2,w1,u1,Vx,Vz,norm"
        cells = lines[2].split(",")
        assert float(cells[0]) == 0.5
        assert float(cells[1]) == 0.5 and float(cells[2]) == 0.1
        # 17 significant digits reproduce doubles exactly
        third = np.pi / 7.0
        traj.norm[0] = third
        traj.write_csv(path)
        assert float(path.read_text().splitlines()[1].split(",")[-1]) == third

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (ConfigurationError, InputHistory, build_planar_example, check_zeta_bound,
                       euler_predict)
from absorbctl.observer import damping_term
from history_oracles import input_record


def planar_damping_closed_form(z, y, u, zeta: float, lo: float, hi: float) -> float:
    """Damping coefficient for the planar example, expanded by hand, with
    the blending ramp rising from level ``lo`` to level ``hi``."""
    z1, z2 = float(z[0]), float(z[1])
    y = float(y[0])
    u = float(u[0])
    ramp = min(1.0, max(0.0, (0.5 * (z1 ** 2 + z2 ** 2) - lo) / (hi - lo)))
    inner = ((zeta + 0.125 - 10.0 * z1 ** 2) * z1 ** 2
             + (z1 + u) * z2
             - 3.125 * z2 ** 2
             - ramp * (2.0 * zeta * z1 + z2) * (z1 - y))
    return max(0.0, inner)


def planar_f_oracle(x, u, zeta: float) -> np.ndarray:
    """The planar vector field as first written, indexing ``x`` per use."""
    return np.array([zeta * x[0] - 10.0 * x[0] ** 3 + x[1],
                     -3.25 * x[1] + u[0]])


def planar_predictor_step(q, hist: InputHistory, i: int, n_steps: int,
                          zeta: float) -> np.ndarray:
    """One explicit Euler step of the planar predictor recursion.

    Integrates step ``i`` of the uniform grid spanning the whole record;
    composing steps 0..n_steps-1 reproduces the generic predictor on this
    plant bit for bit whenever the record covers exactly one delay window
    ending at the prediction time.
    """
    h_step = (hist.t_now - hist.t_min) / n_steps
    a = hist.t_min + i * h_step
    b = hist.t_now if i == n_steps - 1 else hist.t_min + (i + 1) * h_step
    increment = np.zeros(2)
    for value, length in hist.iter_segments(a, b):
        f1 = zeta * q[0] - 10.0 * q[0] ** 3 + q[1]
        f2 = -3.25 * q[1] + value[0]
        increment = increment + np.array([f1, f2]) * length
    return q + increment


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)


class TestGainBound:
    def test_admissible(self):
        assert check_zeta_bound(0.01) is True
        assert check_zeta_bound(0.012) is True

    def test_violated(self):
        assert check_zeta_bound(0.02) is False

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            check_zeta_bound(0.0)
        with pytest.raises(ConfigurationError):
            check_zeta_bound(-1.0)
        with pytest.raises(ConfigurationError):
            check_zeta_bound(float("nan"))


class TestConstruction:
    def test_derived_constants(self, planar):
        plant, assm, fn = planar
        assert plant.input_box[0, 1] == pytest.approx(50.0 * 0.01 * np.sqrt(2.0), rel=1e-15)
        assert assm.absorbing_level == 1.0
        assert assm.blend_lo == 1.0  # max(1, 0.0589, 0.4703) at zeta = 0.01
        assert assm.blend_hi == 1.5
        assert assm.contraction_rate == 0.01
        assert (assm.observer_gain == np.array([[-0.02], [-1.0]])).all()
        assert (assm.error_metric == np.eye(2)).all()
        # smallest eigenvalue of the local quadratic form, and the decay
        # rate it certifies
        assert assm.coercivity == pytest.approx(0.49979339128732236, rel=1e-12)
        assert assm.local_decay == pytest.approx(0.01 * assm.coercivity, rel=1e-15)
        assert (fn.lo, fn.hi) == (assm.blend_lo, assm.blend_hi)

    def test_vector_field_values(self, planar):
        plant, _assm, _fn = planar
        f = plant.f(np.array([1.0, -1.0]), np.array([0.3]))
        assert f == pytest.approx([0.01 - 10.0 - 1.0, 3.25 + 0.3], rel=1e-15)
        assert plant.h(np.array([2.0, 5.0]))[0] == 2.0
        assert (plant.jac_h(np.array([2.0, 5.0])) == np.array([[1.0, 0.0]])).all()

    def test_gain_bound_gate(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="gain bound"):
            build_planar_example(0.02)
        # and the gate can be lifted for counterexample studies
        monkeypatch.setattr("absorbctl.planar.check_zeta_bound", lambda zeta: True)
        plant, assm, _fn = build_planar_example(0.2, b_level=60.0)
        assert assm.blend_lo == pytest.approx(50.385312500000005, rel=1e-13)

    def test_level_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            build_planar_example(0.01, b_level=0.9)

    def test_zeta_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            build_planar_example(0.0)

    def test_blend_lo_scales_with_zeta(self):
        # at larger admissible zeta the quadratic branch takes over
        _plant, assm, _fn = build_planar_example(0.012, b_level=1.5)
        expected = max(1.0, (10008.0 / 17.0) * 0.012 ** 2,
                       1251.0 * 0.012 ** 2 + 221.0 / 640.0)
        assert assm.blend_lo == expected


class TestVectorField:
    # |x1| >= 1e103 overflows x1 ** 3; below that the field is finite
    moderate = st.floats(-1e3, 1e3)
    huge = st.floats(1e103, 1e300) | st.floats(-1e300, -1e103)

    @given(moderate | huge, moderate, st.floats(-0.8, 0.8))
    @settings(max_examples=500)
    def test_f_matches_oracle_bitwise(self, planar, x1, x2, u):
        plant, _assm, _fn = planar
        x, u_arr = np.array([x1, x2]), np.array([u])
        # on an ndarray a runaway state gives inf/nan for the span check, as
        # numpy's scalar power overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array(plant.f(x, u_arr))
            expected = planar_f_oracle(x, u_arr, 0.01)
        assert out.dtype == np.float64 and out.shape == (2,)
        assert out.tobytes() == expected.tobytes()
        assert np.isfinite(out[0]) == (abs(x1) < 1e103)
        # on a list the same floats, or Python's OverflowError from x1 ** 3,
        # which the closed loop reports as a non-finite state
        if abs(x1) < 1e103:
            got = plant.f([x1, x2], [u])
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == expected.tobytes()
        else:
            with pytest.raises(OverflowError):
                plant.f([x1, x2], [u])

    def test_jac_h_is_constant_in_both_kinds(self, planar):
        plant, _assm, _fn = planar
        for x in (np.array([0.3, -2.0]), [5.0, 1.0]):
            rows = plant.jac_h(x)
            assert rows == [[1.0, 0.0]] and type(rows[0][0]) is float
        # each call builds its own rows, so a caller's write stays its own
        rows[0][1] = 2.0
        assert plant.jac_h([0.3, -2.0]) == [[1.0, 0.0]]


class TestClosedForms:
    def test_damping_matches_module(self, planar):
        plant, assm, _fn = planar
        rng = np.random.default_rng(42)
        worst = 0.0
        on_ramp = 0
        # the example's own ramp over the whole box, then a ramp (2, 6) drawn
        # where the damping acts on it: z1 near 0 and large innovations
        for lo, hi, z_max, y_max in ((assm.blend_lo, assm.blend_hi, [3.0, 3.0], 3.0),
                                     (2.0, 6.0, [0.5, 3.5], 15.0)):
            ramped = dataclasses.replace(assm, blend_lo=lo, blend_hi=hi)
            for _ in range(10_000):
                z = rng.uniform(-np.array(z_max), z_max)
                y = rng.uniform(-y_max, y_max, 1)
                u = rng.uniform(-0.7, 0.7, 1)
                (a,) = damping_term(z[None], np.array([plant.f(z, u)]),
                                    np.array([assm.grad_lyapunov(z)]),
                                    np.array([assm.lyapunov(z)]),
                                    (assm.observer_gain @ np.subtract(plant.h(z), y))[None],
                                    ramped)
                b = planar_damping_closed_form(z, y, u, 0.01, lo, hi)
                worst = max(worst, abs(a - b))
                on_ramp += b > 0.0 and lo < assm.lyapunov(z) < hi
        assert worst <= 1e-12
        assert on_ramp >= 50

    def test_predictor_step_composition_bitwise(self, planar):
        plant, _assm, _fn = planar
        hist = input_record([(-0.5, [0.3]), (-0.3, [-0.1]), (-0.12, [0.05])])
        for N in (7, 8, 33, 64):
            q = np.array([0.4, -0.2])
            for i in range(N):
                q = planar_predictor_step(q, hist, i, N, 0.01)
            generic = euler_predict([0.4, -0.2], hist, N, plant)
            assert (q == generic).all()

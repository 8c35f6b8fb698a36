import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl import (AssumptionData, DegenerateGradientError, NonFiniteError, PlantModel,
                       blend_p, build_planar_example, damping_term, observer_correction)
from absorbctl.kernels import loop_kernels
from absorbctl.rk4 import rk4_steps
from absorbctl.verification import corrected_dissipation_margin
from loop_oracles import coupled_rhs, listwise


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)[:2]


def _three_state_loop():
    """A three-state, two-output, two-input loop with a state-dependent
    output Jacobian and a non-diagonal quadratic Lyapunov function; its
    certificate constants are only consistent enough to construct, and its
    drift is expansive enough that the damping is often active.  Its gain
    and Jacobian rows have several terms, so sums of products differ from
    BLAS's in the last bit."""
    P = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    plant = PlantModel(
        n=3, m=2, k_out=2,
        f=lambda x, u: [0.5 * x[0] + x[1] - 0.1 * x[0] ** 3, 0.3 * x[1] + u[0],
                        0.2 * x[2] + x[0] * x[1] + u[1]],
        h=lambda x: [x[0] + 0.25 * x[2] ** 2, x[1] - x[2]],
        jac_h=lambda x: [[1.0, 0.0, 0.5 * x[2]], [0.0, 1.0, -1.0]],
        input_box=np.array([[-1.0, 1.0], [-2.0, 2.0]]))
    assm = AssumptionData(
        lyapunov=listwise(lambda x: 0.5 * (x * (P @ x)).sum(axis=0)),
        grad_lyapunov=listwise(lambda x: P @ x),
        dissipation=listwise(lambda x: 0.1 * (x * x).sum()),
        local_lyapunov=listwise(lambda x: 0.5 * (x * x).sum()),
        grad_local_lyapunov=listwise(lambda x: 1.0 * x),
        local_controller=lambda x: [-x[0], -x[2]],
        observer_gain=np.array([[-1.5, 0.2], [-0.3, -0.7], [0.1, 0.4]]),
        error_metric=np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 0.5]]),
        absorbing_level=1.0, blend_lo=2.0, blend_hi=3.0, contraction_frac=0.5,
        contraction_rate=0.1, local_decay=0.05, coercivity=0.5)
    return plant, assm


def rhs_oracle(plant, assm, x, z, w, u_plant, u_obs):
    """The coupled (x, z, w) right side written out with ``@``, on the
    callables' results as arrays."""
    fz = np.asarray(plant.f(z, u_obs))
    corr = assm.observer_gain @ np.subtract(plant.h(z), w)
    level = assm.lyapunov(z)
    if level > assm.absorbing_level:
        grad = np.asarray(assm.grad_lyapunov(z))
        grad_sq = grad @ grad
        phi = max(0.0, grad @ fz + assm.dissipation(z) + blend_p(level, assm) * (grad @ corr))
        corr = corr - (phi / grad_sq) * grad
    return np.concatenate((plant.f(x, u_plant), fz + corr, np.asarray(plant.jac_h(z)) @ fz))


def _row_sums(rows, v):
    """Each row's products with ``v`` summed from 0.0, left to right."""
    out = []
    for row in rows:
        total = 0.0
        for a, b in zip(row, v):
            total = total + a * b
        out.append(total)
    return out


def rhs_float_oracle(plant, assm, x, z, w, u_plant, u_obs):
    """The coupled right side in the float arithmetic the loop documents,
    for lists of floats: the innovation and the Jacobian's product as
    left-to-right sums from 0.0, and in the damping branch ``np.dot``."""
    fz = plant.f(z, u_obs)
    corr = _row_sums(assm.observer_gain.tolist(), [a - b for a, b in zip(plant.h(z), w)])
    level = assm.lyapunov(z)
    if level > assm.absorbing_level:
        grad = assm.grad_lyapunov(z)
        grad_sq = float(np.dot(grad, grad))
        phi = max(0.0, float(np.dot(grad, fz) + assm.dissipation(z)
                             + blend_p(level, assm) * np.dot(grad, corr)))
        corr = [c - (phi / grad_sq) * g for c, g in zip(corr, grad)]
    return (plant.f(x, u_plant) + [a + b for a, b in zip(fz, corr)]
            + _row_sums(plant.jac_h(z), fz))


# Lyapunov levels of the observer state: inside the absorbing set, between
# it and the ramp, on the ramp, and above it where the damping is full
LEVEL_BANDS = [(0.0, 0.95), (1.05, 1.95), (2.05, 2.95), (3.05, 40.0)]
unit = st.floats(-1.0, 1.0, allow_nan=False)
layouts = st.sampled_from(["C", "F", "strided"])


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` as a C-order or Fortran-order array, or as a strided view: every
    other entry of a vector, every other row of a matrix.  (A matrix with
    no unit-stride axis is outside BLAS; ``dot`` then takes numpy's own loop,
    whose last bit may differ from ``@``.)"""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    big = np.full((2 * a.shape[0],) + a.shape[1:], np.nan)
    big[::2] = a
    return big[::2]


def _zero_unsigned(a):
    """``a`` with a negative zero read as a positive one: a 1x1 ``dot`` is the
    bare product, while ``@`` adds it to a zero accumulator."""
    return np.asarray(a) + 0.0


def damping_at(z, y, u, plant, assm):
    """damping_term at (z, y, u), given the values observer_correction passes
    it, on a stack of one."""
    z, y, u = (np.asarray(v, dtype=float) for v in (z, y, u))
    (phi,) = damping_term(z[None], np.array([plant.f(z, u)]), np.array([assm.grad_lyapunov(z)]),
                          np.array([assm.lyapunov(z)]),
                          (assm.observer_gain @ np.subtract(plant.h(z), y))[None], assm)
    return phi


def injection(z, y, plant, assm):
    """The output injection ``L (h(z) - y)`` as the loop's generated kernel gives it."""
    return loop_kernels(plant.n, plant.k_out).injection(assm.gain_rows, plant.h(z), y)


def correction_at(z, y, u, plant, assm):
    """observer_correction at (z, y) with the plant-copy drift f(z, u), given
    the injection and V(z) its caller passes it, on a stack of one, as a list."""
    z, y, u = (np.asarray(v, dtype=float) for v in (z, y, u))
    return observer_correction([z], [injection(z, y, plant, assm)], [assm.lyapunov(z)],
                               [plant.f(z, u)], assm)[0].tolist()


class TestBlending:
    """The ramp is read from the certificate's ``blend_lo``/``blend_hi``."""

    @pytest.fixture(scope="class")
    def ramp(self, planar):
        return dataclasses.replace(planar[1], blend_lo=1.0, blend_hi=1.5)

    def test_ramp_values(self, ramp):
        assert blend_p(0.3, ramp) == 0.0
        assert blend_p(1.0, ramp) == 0.0
        assert blend_p(1.25, ramp) == pytest.approx(0.5)
        assert blend_p(1.5, ramp) == 1.0
        assert blend_p(7.0, ramp) == 1.0

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=300)
    def test_bounded_and_monotone(self, ramp, a, b):
        pa, pb = blend_p(a, ramp), blend_p(b, ramp)
        assert 0.0 <= pa <= 1.0
        if a <= b:
            assert pa <= pb


class TestDampingTerm:
    def test_frozen_positive_value(self, planar):
        plant, assm = planar
        # drift 2*(-6.5) = -13, dissipation 0.5, innovation 20 -> clipped sum 7.5
        assert damping_at([0.0, 2.0], [10.0], [0.0], plant, assm) == 7.5

    def test_clipped_at_zero(self, planar):
        plant, assm = planar
        assert damping_at([2.0, 2.0], [0.0], [0.0], plant, assm) == 0.0

    def test_vanishes_on_absorbing_boundary(self, planar):
        # on the absorbing level set the ramp is 0 and the plant dissipates
        # for every admissible input, so the clip is always active: the
        # correction stays continuous across the boundary
        plant, assm = planar
        radius = np.sqrt(2.0)
        u_max = plant.input_box[0, 1]
        angles = np.linspace(0.0, 2.0 * np.pi, 250, endpoint=False)
        count = 0
        for ang in angles:
            z = radius * np.array([np.cos(ang), np.sin(ang)])
            for u in (-u_max, 0.0, u_max):
                for y in (-3.0, 0.0, 3.0):
                    assert damping_at(z, [y], [u], plant, assm) == 0.0
                    count += 1
        assert count >= 1000


class TestObserverCorrection:
    def test_innovation_only_inside(self, planar):
        plant, assm = planar
        corr = correction_at([0.5, 0.0], [0.2], [0.0], plant, assm)
        expected = assm.observer_gain @ np.array([0.5 - 0.2])
        assert (corr == expected).all()

    def test_damped_outside_frozen(self, planar):
        plant, assm = planar
        # innovation L*(0-10) = (0.2, 10); phi = 7.5, |grad|^2 = 4
        corr = correction_at([0.0, 2.0], [10.0], [0.0], plant, assm)
        assert corr == pytest.approx([0.2, 10.0 - (7.5 / 4.0) * 2.0], rel=1e-14)

    def test_follows_the_certificates_ramp(self, planar):
        # V(z) = 2 is above the default ramp (1, 1.5) but 3/4 of the way up
        # a ramp (1.25, 2.25): phi = -13 + 0.5 + 0.75 * 20 = 2.5 instead of 7.5
        plant, assm = planar
        moved = dataclasses.replace(assm, blend_lo=1.25, blend_hi=2.25)
        assert blend_p(2.0, moved) == 0.75
        assert damping_at([0.0, 2.0], [10.0], [0.0], plant, moved) == 2.5
        corr = correction_at([0.0, 2.0], [10.0], [0.0], plant, moved)
        assert corr == pytest.approx([0.2, 10.0 - (2.5 / 4.0) * 2.0], rel=1e-14)

    def test_continuous_across_boundary(self, planar):
        plant, assm = planar
        eps = 1e-10
        z_in = np.array([np.sqrt(2.0) - eps, 0.0])
        z_out = np.array([np.sqrt(2.0) + eps, 0.0])
        c_in = correction_at(z_in, [5.0], [0.1], plant, assm)
        c_out = correction_at(z_out, [5.0], [0.1], plant, assm)
        assert c_out == pytest.approx(c_in, abs=1e-7)

    def test_damping_reuses_callers_drift(self, planar):
        # the correction reads f(z, u), the injection and V(z) from its caller;
        # it evaluates neither the plant's vector field, nor its output, nor V
        plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        for owner, name in ((plant, "f"), (plant, "h"), (assm, "lyapunov")):
            object.__setattr__(owner, name, counted(name, getattr(owner, name)))
        z = np.array([0.0, 2.0])
        fz, level = plant.f(z, np.array([0.0])), assm.lyapunov(z)
        innovation = injection(z, [10.0], plant, assm)
        calls.clear()
        corr = observer_correction([z], [innovation], [level], [fz], assm)[0].tolist()
        assert calls == []
        assert damping_at(z, [10.0], [0.0], plant, assm) > 0.0  # damping is active
        assert corr == correction_at(z, [10.0], [0.0], *planar)

    @pytest.mark.parametrize("bad", ["level", "dissipation", "drift"])
    def test_damping_that_is_not_finite_raises(self, planar, bad):
        # at z = (0.1, 1.8) with y = 10 the damping is active at V(z) = 1.625;
        # a NaN there would be clipped to no damping, leaving the bare
        # injection [0.198, 9.9], so it is refused instead
        plant, assm = planar
        z = [0.1, 1.8]
        innovation, fz = injection(z, [10.0], plant, assm), plant.f(z, [0.0])
        assert observer_correction([z], [innovation], [1.625], [fz], assm)[0, 1] < 6.0
        level = math.nan if bad == "level" else 1.625
        if bad == "dissipation":
            assm = dataclasses.replace(
                assm, dissipation=lambda x: math.nan if x[1] > 1.0 else 0.125 * x[1] ** 2)
        if bad == "drift":
            fz = [math.nan, fz[1]]
        with pytest.raises(NonFiniteError, match=r"^observer damping is nan at z=\[0\.1, 1\.8\]$"):
            observer_correction([z], [innovation], [level], [fz], assm)

    def test_degenerate_gradient_raises(self):
        # certificate whose gradient vanishes on a circle outside the
        # absorbing set: the damping direction is undefined there
        plant, assm = build_planar_example(0.01)[:2]
        ring = dataclasses.replace(
            assm,
            lyapunov=lambda x: 1.5 + 0.25 * (x[0] ** 2 + x[1] ** 2 - 2.0) ** 2,
            grad_lyapunov=lambda x: [(x[0] ** 2 + x[1] ** 2 - 2.0) * x[0],
                                     (x[0] ** 2 + x[1] ** 2 - 2.0) * x[1]],
            absorbing_level=1.4,
            blend_lo=1.45,
            blend_hi=1.55,
        )
        z = np.array([np.sqrt(2.0), 0.0])  # V = 1.5 > 1.4, gradient = 0
        with pytest.raises(DegenerateGradientError):
            correction_at(z, [0.0], [0.0], plant, ring)


class TestRhs:
    """The coupled right side of (x, z, w) that the simulator's generated
    span writes out, in its list oracle."""

    def test_observer_rhs_composes(self, planar):
        plant, assm = planar
        x, z, w = [0.2, 0.1], [0.3, -0.4], [0.1]
        u_plant, u_obs = [-0.02], [0.05]
        out = coupled_rhs(plant, assm, u_plant, u_obs)([*x, *z, *w])
        assert all(type(v) is float for v in out)
        assert out[:2] == plant.f(x, u_plant)
        fz = plant.f(z, u_obs)
        corr = observer_correction([z], [injection(z, w, plant, assm)],
                                   [assm.lyapunov(z)], [fz], assm)[0].tolist()
        assert out[2:4] == [a + b for a, b in zip(fz, corr)]
        assert corr == correction_at(z, w, u_obs, plant, assm)

    def test_isp_rhs_is_output_derivative(self, planar):
        plant, assm = planar
        rhs = coupled_rhs(plant, assm, [0.0], [0.3])
        out = rhs([0.0, 0.0, 1.0, -1.0, 0.0])
        # d/dt h = f_1 = zeta*1 - 10*1 + (-1)
        assert out[4:] == pytest.approx([0.01 - 10.0 - 1.0], rel=1e-15)


class TestDotMatchesMatmul:
    """The closed loop takes one point's products as left-to-right float
    sums, and in the damping branch with ``ndarray.dot``.  On the planar plant
    (one-term rows) these are the bytes of ``@``; on a plant with longer
    rows they may differ from BLAS in the last bit, and no more.  The list
    oracle's right side stands for the loop's; the generated span must give
    the bits of ``rk4_steps`` on that oracle."""

    @pytest.fixture(scope="class")
    def loop3(self):
        return _three_state_loop()

    @staticmethod
    def _draw(loop3, direction, band, frac, data):
        """``(x, z, w, u_plant, u_obs)`` as float64 arrays, with V(z) in ``band``."""
        _plant, assm = loop3
        direction = np.array(direction)
        target = band[0] + frac * (band[1] - band[0])
        z = direction * np.sqrt(target / assm.lyapunov(direction))
        assert band[0] - 1e-9 <= assm.lyapunov(z) <= band[1] + 1e-9
        x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
        w = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)))
        u_plant, u_obs = (np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2,
                                                       max_size=2))) for _ in range(2))
        return x, z, w, u_plant, u_obs

    @given(st.lists(unit, min_size=3, max_size=3).filter(lambda d: max(map(abs, d)) > 0.05),
           st.sampled_from(LEVEL_BANDS), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_coupled_rhs_matches_float_oracle(self, loop3, direction, band, frac, data):
        plant, assm = loop3
        x, z, w, u_plant, u_obs = (v.tolist() for v in
                                   self._draw(loop3, direction, band, frac, data))
        out = coupled_rhs(plant, assm, u_plant, u_obs)(x + z + w)
        expected = rhs_float_oracle(plant, assm, x, z, w, u_plant, u_obs)
        assert all(type(v) is float for v in out)
        assert np.array(out).tobytes() == np.array(expected).tobytes()

    @given(st.lists(unit, min_size=3, max_size=3).filter(lambda d: max(map(abs, d)) > 0.05),
           st.sampled_from(LEVEL_BANDS), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_coupled_rhs_matches_matmul_oracle(self, loop3, direction, band, frac, data):
        plant, assm = loop3
        x, z, w, u_plant, u_obs = self._draw(loop3, direction, band, frac, data)
        out = coupled_rhs(plant, assm, u_plant.tolist(), u_obs.tolist())(
            np.concatenate([x, z, w]).tolist())
        expected = rhs_oracle(plant, assm, x, z, w, u_plant, u_obs)
        assert np.max(np.abs(np.array(out) - expected)) <= 1e-15 * np.max(np.abs(expected))

    @given(st.lists(unit, min_size=3, max_size=3).filter(lambda d: max(map(abs, d)) > 0.05),
           st.sampled_from(LEVEL_BANDS), st.floats(0.0, 1.0),
           st.sampled_from([(1e-3, 1), (0.01, 1), (0.1, 1), (1e-3, 9), (0.01, 9)]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_span_matches_list_oracle(self, loop3, direction, band, frac, steps,
                                                data):
        plant, assm = loop3
        x, z, w, u_plant, u_obs = (v.tolist() for v in
                                   self._draw(loop3, direction, band, frac, data))
        span = loop_kernels(3, 2).rk4_span(plant, assm, observer_correction, u_plant, u_obs)
        got, got_nodes = span(x + z + w, *steps)
        want, want_nodes = rk4_steps(coupled_rhs(plant, assm, u_plant, u_obs), x + z + w,
                                     *steps)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array(got_nodes).tobytes() == np.array(want_nodes)[:, :3].tobytes()

    def test_checks_apply_the_loops_injection(self, loop3):
        # inside the absorbing set the correction is the bare injection, so
        # the dissipation margin is grad V . (f + L (h(z) - w)) + W with the
        # injection's rows summed left to right from 0.0, as the loop does;
        # an injection taken with ndarray.dot would differ on two-term rows
        plant, assm = loop3
        rng = np.random.default_rng(0)
        tested = 0
        for _ in range(3000):
            z = rng.uniform(-1.0, 1.0, 3).tolist()
            w, u = rng.uniform(-3.0, 3.0, 2).tolist(), rng.uniform(-1.0, 1.0, 2).tolist()
            if assm.lyapunov(z) <= assm.absorbing_level:
                tested += 1
                d = [hj - wj for hj, wj in zip(plant.h(z), w)]
                injection = [sum((g * dj for g, dj in zip(row, d)), 0.0)
                             for row in assm.gain_rows]
                want = (np.dot(assm.grad_lyapunov(z), np.add(plant.f(z, u), injection))
                        + assm.dissipation(z))
                (got,) = corrected_dissipation_margin(plant, assm, [z], [w], [u])
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert tested >= 1000

    @given(st.integers(1, 4), st.integers(1, 4), layouts, layouts, st.data())
    @settings(max_examples=400, deadline=None)
    def test_dot_matches_matmul_bytes(self, k, n, layout_a, layout_v, data):
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
        a = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n))).reshape(k, n)
        v = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        a, v = _laid_out(a, layout_a), _laid_out(v, layout_v)
        assert _zero_unsigned(a.dot(v)).tobytes() == _zero_unsigned(a @ v).tobytes()
        assert np.asarray(v.dot(v)).tobytes() == np.asarray(v @ v).tobytes()

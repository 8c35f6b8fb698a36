import dataclasses

import numpy as np
import pytest

from absorbctl import (
    ConfigurationError,
    InputHistory,
    InsufficientSampleError,
    NonFiniteError,
    SampleSpec,
    build_planar_example,
    check_absorbing_dissipation,
    check_corrected_contraction,
    check_corrected_dissipation,
    check_growth_bound,
    check_local_controller,
    check_observer_contraction,
    check_zeta_bound,
    predictor_convergence_study,
    sublevel_box,
)
from absorbctl import verification as V


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, r=0.25, tau=0.25)[:2]


# a few thousand points keeps this suite fast; the acceptance tests run the
# full-size sweeps
SPEC = SampleSpec(n_points=2000, seed=0)


def _row_by_row(name, boxes, accept, margin_fn, sample):
    """Recomputation oracle for ``V._run_sampled_check``: the same Halton
    draws, but side conditions and margins evaluated one row at a time."""
    from scipy.stats import qmc

    dims = [box.shape[0] for box in boxes]
    lo = np.concatenate([box[:, 0] for box in boxes])
    hi = np.concatenate([box[:, 1] for box in boxes])
    halton = qmc.Halton(d=int(sum(dims)), seed=sample.seed)
    splits = np.cumsum(dims)[:-1]
    tested = skipped = draws = 0
    worst = worst_pt = None
    max_draws = max(V._MAX_DRAW_FACTOR * sample.n_points, 100_000)
    while tested < sample.n_points and draws < max_draws:
        batch = halton.random(min(V._BATCH, max_draws - draws))
        draws += batch.shape[0]
        for row in lo + batch * (hi - lo):
            parts = tuple(np.array(p) for p in np.split(row, splits))
            if not accept(*parts):
                skipped += 1
                continue
            value = float(margin_fn(*parts))
            if worst is None or value > worst:
                worst, worst_pt = value, parts
            tested += 1
            if tested >= sample.n_points:
                break
    return V.CheckReport(name=name, points_tested=tested, skipped=skipped,
                         worst_margin=worst, worst_point=worst_pt,
                         passed=worst is None or worst <= V.TOLERANCE,
                         tolerance=V.TOLERANCE, seed=sample.seed)


CHECKS = {
    "absorbing_dissipation": check_absorbing_dissipation,
    "local_controller": check_local_controller,
    "observer_contraction": check_observer_contraction,
    "observer_growth_bound": check_growth_bound,
    "corrected_contraction": check_corrected_contraction,
    "corrected_dissipation": check_corrected_dissipation,
    "corrected_dissipation_no_damping":
        lambda plant, assm, spec: check_corrected_dissipation(plant, assm, spec,
                                                              zero_damping=True),
}


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


class TestMarginOracles:
    """Hand-evaluated margins, frozen bitwise where the arithmetic is exact."""

    def test_absorbing_dissipation(self, planar):
        plant, assm = planar
        m = V.absorbing_dissipation_margin(plant, assm, [3.0, 0.0], [0.0])
        assert m == pytest.approx(-808.7850000000001, rel=1e-12)

    def test_absorbing_dissipation_violation_without_gate(self):
        # inadmissible observer gain scaling: large drive at the boundary
        plant, assm, _ = build_planar_example(0.2, b_level=60.0,
                                              enforce_zeta_bound=False)
        m = V.absorbing_dissipation_margin(plant, assm,
                                           [0.0, np.sqrt(2.0)], [14.14])
        assert m == pytest.approx(13.746979771955564, rel=1e-12)
        assert m > 0.0

    def test_observer_contraction(self, planar):
        plant, assm = planar
        m = V.observer_contraction_margin(plant, assm, [1.0, 1.0], [0.0, 0.0], [0.0])
        assert m == -13.24
        assert V.observer_contraction_margin(plant, assm, [0.3, -0.2],
                                             [0.3, -0.2], [0.1]) == 0.0

    def test_growth_bound(self, planar):
        plant, assm = planar
        m = V.growth_bound_margin(plant, assm, [0.0, 1.8], [0.0, 0.5], [0.0])
        assert m == pytest.approx(-6.3225, rel=1e-12)

    def test_corrected_dissipation(self, planar):
        plant, assm = planar
        m = V.corrected_dissipation_margin(plant, assm, [2.0, 0.0], [0.0], [0.0])
        assert m == pytest.approx(-159.54, rel=1e-12)

    def test_corrected_contraction_zero_error(self, planar):
        plant, assm = planar
        m = V.corrected_contraction_margin(plant, assm, [0.4, -0.1], [0.4, -0.1], [0.2])
        assert m == 0.0

    def test_contraction_fraction_is_tight(self, planar):
        # retaining 1.5 times the contraction rate (contraction_frac 0.5 of
        # a tripled rate) flips the sign at points where the plain
        # contraction margin is nearly saturated
        plant, assm = planar
        z, x, u = [0.01, 0.3], [0.0, 0.3], [0.0]
        inflated = dataclasses.replace(assm, contraction_rate=3 * assm.contraction_rate)
        bad = V.corrected_contraction_margin(plant, inflated, z, x, u)
        good = V.corrected_contraction_margin(plant, assm, z, x, u)
        assert bad == pytest.approx(4.0000000000001015e-07, rel=1e-6)
        assert bad > 1e-9
        assert good < 0.0

    def test_wrong_controller_detected(self, planar):
        # sign-flipped feedback destabilizes a thin band near the origin;
        # the stock controller keeps the margin negative at the same point
        plant, assm = planar
        orig = assm.local_controller
        flipped = dataclasses.replace(assm,
                                      local_controller=lambda x: [-v for v in orig(x)])
        bad = V.local_controller_margin(plant, flipped, [0.06, 0.0])
        assert bad == pytest.approx(0.00015562956861713163, rel=1e-6)
        assert bad > 1e-9
        assert V.local_controller_margin(plant, assm, [0.06, 0.0]) < 0.0


class TestSublevelBox:
    def test_disc_radius(self, planar):
        _, assm = planar
        box = sublevel_box(assm.lyapunov, 1.0, 2)
        assert np.max(np.abs(np.abs(box) - np.sqrt(2.0))) <= 1e-9
        assert (box[:, 0] < 0).all() and (box[:, 1] > 0).all()

    def test_unbounded_rejected(self):
        with pytest.raises(ConfigurationError):
            sublevel_box(lambda x: 0.0, 1.0, 2)

    def test_origin_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            sublevel_box(lambda x: float(x @ x) + 2.0, 1.0, 2)


class TestSampledChecks:
    def test_all_pass(self, planar):
        plant, assm = planar
        reports = [
            check_absorbing_dissipation(plant, assm, SPEC),
            check_local_controller(plant, assm, SPEC),
            check_observer_contraction(plant, assm, SPEC),
            check_growth_bound(plant, assm, SPEC),
            check_corrected_contraction(plant, assm, SPEC),
            check_corrected_dissipation(plant, assm, SPEC),
        ]
        for rep in reports:
            assert rep.passed, f"{rep.name}: worst {rep.worst_margin}"
        names = [rep.name for rep in reports]
        assert len(set(names)) == 6

    def test_determinism(self, planar):
        plant, assm = planar
        a = check_observer_contraction(plant, assm, SampleSpec(n_points=500, seed=7))
        b = check_observer_contraction(plant, assm, SampleSpec(n_points=500, seed=7))
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_sample(self, planar):
        plant, assm = planar
        a = check_observer_contraction(plant, assm, SampleSpec(n_points=500, seed=1))
        b = check_observer_contraction(plant, assm, SampleSpec(n_points=500, seed=2))
        assert a.worst_margin != b.worst_margin

    def test_worst_point_reproduces_margin(self, planar):
        plant, assm = planar
        rep = check_observer_contraction(plant, assm, SPEC)
        m = V.observer_contraction_margin(plant, assm, *rep.worst_point)
        assert abs(m - rep.worst_margin) <= 1e-12

    def test_report_serialization(self, planar):
        plant, assm = planar
        rep = check_absorbing_dissipation(plant, assm, SampleSpec(n_points=200, seed=0))
        d = rep.to_dict()
        assert d["pass"] is True
        assert d["points_tested"] == 200
        assert isinstance(d["worst_point"], list)
        assert all(isinstance(part, list) for part in d["worst_point"])

    def test_growth_bound_side_condition_starves_sampler(self, planar):
        # the admissible cone for this geometry is empty, so every draw is
        # skipped and the check passes vacuously by default
        plant, assm = planar
        rep = check_growth_bound(plant, assm, SampleSpec(n_points=100, seed=0))
        assert rep.points_tested == 0
        assert rep.skipped == 100000  # draw cap: max(50 * n, 100000)
        assert rep.worst_margin is None
        assert rep.passed

    def test_growth_bound_min_points(self, planar):
        plant, assm = planar
        with pytest.raises(InsufficientSampleError):
            check_growth_bound(plant, assm,
                               SampleSpec(n_points=100, seed=0, min_points=1))

    def test_damping_ablation_fails(self, planar):
        plant, assm = planar
        rep = check_corrected_dissipation(plant, assm, SPEC, zero_damping=True)
        assert rep.name == "corrected_dissipation_no_damping"
        assert not rep.passed
        assert rep.worst_margin > 1.0
        # the reported witness reproduces outside the sampler
        m = V.corrected_dissipation_margin(plant, assm, *rep.worst_point, zero_damping=True)
        assert abs(m - rep.worst_margin) <= 1e-12

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            SampleSpec(seed=-1)

    def test_empty_sample_rejected(self, planar):
        plant, assm = planar
        with pytest.raises(ConfigurationError):
            check_local_controller(plant, assm, SampleSpec(n_points=0, seed=0))


class TestBatchedDriver:
    """Side conditions run on whole Halton batches; reports equal the
    row-by-row oracle's."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_matches_row_by_row_oracle(self, planar, monkeypatch, check, seed):
        # observer_growth_bound is the starved case: every one of the
        # 100000 capped draws is skipped
        plant, assm = planar
        spec = SampleSpec(n_points=150, seed=seed)
        batched = CHECKS[check](plant, assm, spec).to_dict()
        monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
        assert CHECKS[check](plant, assm, spec).to_dict() == batched
        assert batched["name"] == check

    def test_matches_oracle_across_batches(self, planar, monkeypatch):
        # 5000 points at ~79% acceptance need a second 4096-draw batch
        plant, assm = planar
        spec = SampleSpec(n_points=5000, seed=2)
        batched = check_local_controller(plant, assm, spec).to_dict()
        assert batched["points_tested"] + batched["skipped"] > V._BATCH
        monkeypatch.setattr(V, "_run_sampled_check", _row_by_row)
        assert check_local_controller(plant, assm, spec).to_dict() == batched


class TestNonFiniteMargin:
    def test_nan_after_finite_points_raises(self, planar):
        # the row-by-row driver passed this check: NaN > worst is never true
        plant, assm = planar
        dissipation = assm.dissipation
        holed = dataclasses.replace(
            assm, dissipation=lambda x: float("nan") if x[0] >= 5.0 else dissipation(x))
        assert check_absorbing_dissipation(plant, holed, SampleSpec(n_points=1)).passed
        with pytest.raises(NonFiniteError,
                           match=r"^absorbing_dissipation: margin nan at point \[\["):
            check_absorbing_dissipation(plant, holed, SPEC)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_first_point_raises(self, planar, bad):
        # the row-by-row driver reported it as the worst margin, which
        # verification.json cannot hold as valid JSON
        plant, assm = planar
        broken = dataclasses.replace(assm, dissipation=lambda x: bad)
        with pytest.raises(NonFiniteError, match=f"margin {bad} at point"):
            check_absorbing_dissipation(plant, broken, SampleSpec(n_points=1))


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

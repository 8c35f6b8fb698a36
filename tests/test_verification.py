import dataclasses
import hashlib
import os
import re
import signal
import threading

import numpy as np
import pytest

from absorbctl import (
    ConfigurationError,
    NonFiniteError,
    SampleSpec,
    build_planar_example,
    check_absorbing_dissipation,
    check_corrected_contraction,
    check_corrected_dissipation,
    check_growth_bound,
    check_local_controller,
    check_observer_contraction,
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
                         worst_margin=worst, worst_point=worst_pt, seed=sample.seed)


CHECKS = {
    "absorbing_dissipation": check_absorbing_dissipation,
    "local_controller": check_local_controller,
    "observer_contraction": check_observer_contraction,
    "observer_growth_bound": check_growth_bound,
    "corrected_contraction": check_corrected_contraction,
    "corrected_dissipation": check_corrected_dissipation,
}


class TestMarginOracles:
    """Hand-evaluated margins, frozen bitwise where the arithmetic is exact."""

    def test_absorbing_dissipation(self, planar):
        plant, assm = planar
        m = V.absorbing_dissipation_margin(plant, assm, [3.0, 0.0], [0.0])
        assert m == pytest.approx(-808.7850000000001, rel=1e-12)

    def test_absorbing_dissipation_violation_without_gate(self, monkeypatch):
        # inadmissible observer gain scaling: large drive at the boundary
        monkeypatch.setattr("absorbctl.planar.check_zeta_bound", lambda zeta: True)
        plant, assm, _ = build_planar_example(0.2, b_level=60.0)
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

    @pytest.mark.parametrize("margin, digest", [
        (V.observer_contraction_margin,
         "2e2025050821858351a9a5906fb1be18ef7a69d8cf59bf1bebcc5517e3e5c50a"),
        (V.growth_bound_margin,
         "5bc1420f353de3f4fb3bb39ab3c69066652877fd1f3db1efff5781d1559deff2"),
        (V.corrected_contraction_margin,
         "993ed53058fa9e6a2e67f5b98382ae79eeb5cf27f88f6e658c62eab01d58414a"),
    ], ids=["observer_contraction", "growth_bound", "corrected_contraction"])
    def test_contraction_type_margins_keep_their_bits(self, planar, margin, digest):
        # sha256 of the float64 margins at 400 seeded (z, x, u) points, 247 of
        # them with V(z) above the absorbing level; verify never evaluates the
        # growth bound on this example, where its side conditions admit no point
        plant, assm = planar
        points = np.random.default_rng(18).uniform(-2.0, 2.0, size=(400, 5)).tolist()
        values = np.array([margin(plant, assm, p[:2], p[2:4], p[4:]) for p in points])
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_non_finite_level_refused(self, planar, level):
        # no point lies below a NaN level, so its box would be the origin alone
        _, assm = planar
        with pytest.raises(ConfigurationError, match="level must be finite"):
            sublevel_box(assm.lyapunov, level, 2)

    def test_origin_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            sublevel_box(lambda x: x[0] ** 2 + x[1] ** 2 + 2.0, 1.0, 2)

    def test_non_finite_level_raises(self, planar):
        # both used to return a box: [-5, 5]^2 for the first, which
        # check_absorbing_dissipation then sampled and passed, and a zero
        # box for the second
        plant, assm = planar
        lyapunov = assm.lyapunov
        holed = dataclasses.replace(
            assm, lyapunov=lambda x: np.where(lyapunov(x) > 12.5, np.nan, lyapunov(x)))
        with pytest.raises(NonFiniteError, match=r"^sublevel_box: level function is nan at point"):
            sublevel_box(holed.lyapunov, 100.0, 2)
        with pytest.raises(NonFiniteError, match=r"nan at point \[0\.0, 0\.0\]$"):
            sublevel_box(lambda x: float("nan"), 1.0, 2)
        with pytest.raises(NonFiniteError):
            check_absorbing_dissipation(plant, holed, SPEC)


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
        # skipped and the check passes, reported as vacuous
        plant, assm = planar
        rep = check_growth_bound(plant, assm, SampleSpec(n_points=100, seed=0))
        assert rep.points_tested == 0
        assert rep.skipped == 100000  # draw cap: max(50 * n, 100000)
        assert rep.worst_margin is None
        assert rep.passed and rep.vacuous and rep.to_dict()["vacuous"] is True

    def test_damping_ablation_fails(self, planar, monkeypatch):
        # the damping is ablated by substituting the bare injection for the correction
        plant, assm = planar
        monkeypatch.setattr("absorbctl.verification.observer_correction",
                            lambda z, innovation, level, fz, assm: innovation)
        rep = check_corrected_dissipation(plant, assm, SPEC)
        assert rep.name == "corrected_dissipation"
        assert not rep.passed
        assert rep.worst_margin > 1.0
        # the reported witness reproduces outside the sampler
        m = V.corrected_dissipation_margin(plant, assm, *rep.worst_point)
        assert abs(m - rep.worst_margin) <= 1e-12

    @pytest.mark.parametrize("seed", [-1, 1.5, False])
    def test_negative_seed_rejected(self, seed):
        # numpy's SeedSequence would raise its own TypeError on a float seed
        with pytest.raises(ConfigurationError, match="^seed must be an integer of at least 0$"):
            SampleSpec(seed=seed)

    @pytest.mark.parametrize("n_points", [0, -5, 2.5, True])
    def test_empty_sample_refused_at_construction(self, n_points):
        with pytest.raises(ConfigurationError,
                           match="^n_points must be an integer of at least 1$"):
            SampleSpec(n_points=n_points)

    def test_numpy_integers_accepted(self):
        spec = SampleSpec(n_points=np.int64(3), seed=np.uint8(1))
        assert (spec.n_points, spec.seed) == (3, 1)

    def test_empty_sample_rejected(self, planar):
        plant, assm = planar
        with pytest.raises(ConfigurationError):
            check_local_controller(plant, assm, SampleSpec(n_points=0, seed=0))

    @pytest.mark.parametrize("check", list(CHECKS.values()), ids=list(CHECKS))
    def test_gain_must_fit_the_plant(self, planar, check):
        # planar k_out = 1: a second gain column has no output to multiply
        plant, assm = planar
        wide = dataclasses.replace(assm, observer_gain=np.array([[-0.02, 5.0], [-1.0, 7.0]]))
        with pytest.raises(ConfigurationError,
                           match=r"^observer_gain has shape \(2, 2\), the plant needs \(2, 1\)$"):
            check(plant, wide, SampleSpec(n_points=10, seed=0))


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


class TestSideConditions:
    """What the three (z, x, u) checks admit, against the planar example's
    side conditions written out here: V(x) = |x|^2 / 2, grad V(z) = z and
    the identity error metric."""

    @staticmethod
    def oracle_counts(plant, assm, sample, growth):
        from scipy.stats import qmc

        boxes = [sublevel_box(assm.lyapunov, assm.blend_hi, 2),
                 sublevel_box(assm.lyapunov, assm.absorbing_level, 2), plant.input_box]
        lo = np.concatenate([box[:, 0] for box in boxes])
        hi = np.concatenate([box[:, 1] for box in boxes])
        max_draws = max(V._MAX_DRAW_FACTOR * sample.n_points, 100_000)
        pts = lo + qmc.Halton(d=5, seed=sample.seed).random(max_draws) * (hi - lo)
        z1, z2, x1, x2 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        vz = 0.5 * (z1 ** 2 + z2 ** 2)
        mask = (vz <= assm.blend_hi) & (0.5 * (x1 ** 2 + x2 ** 2) <= 1.0)
        if growth:
            mask &= (assm.blend_lo < vz) & (z1 * (z1 - x1) + z2 * (z2 - x2) < 0.0)
        admitted = np.flatnonzero(mask)
        if admitted.size < sample.n_points:
            return admitted.size, max_draws - admitted.size
        return sample.n_points, int(admitted[sample.n_points - 1]) + 1 - sample.n_points

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("check", ["observer_contraction", "observer_growth_bound",
                                       "corrected_contraction"])
    def test_counts_match_written_out_mask(self, planar, check, seed):
        plant, assm = planar
        spec = SampleSpec(n_points=1000, seed=seed)
        rep = CHECKS[check](plant, assm, spec)
        want = self.oracle_counts(plant, assm, spec, growth=check == "observer_growth_bound")
        assert (rep.points_tested, rep.skipped) == want
        if check != "observer_growth_bound":
            assert rep.points_tested == 1000 and rep.skipped > 0


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


class TestSplitScan:
    """Each check's margin scan, split into shares scanned by forked children,
    gives the one-process report and raises the one-process exception, and
    leaves no child behind.  The share count is forced through the module's
    count of usable cores."""

    SPEC = SampleSpec(n_points=4 * V._MIN_SHARE, seed=0)

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked, recorded in this process."""
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @staticmethod
    def reports(monkeypatch, check, *args, shares=(1, 2, 3)):
        found = []
        for k in shares:
            monkeypatch.setattr(V, "_usable_cores", lambda: k)
            found.append(check(*args).to_dict())
        return found

    @staticmethod
    def admitted(monkeypatch, planar):
        """The points ``(x, u)`` that the absorbing-dissipation check admits from
        ``SPEC``'s sample, in draw order."""
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(V, "_usable_cores", lambda: 1)
            patch.setattr(V, "absorbing_dissipation_margin",
                          lambda plant, assm, x, u: seen.append((x, u)) or 0.0)
            check_absorbing_dissipation(*planar, TestSplitScan.SPEC)
        return seen

    def margin_raising_at(self, monkeypatch, planar, indices, error):
        """Make the absorbing-dissipation margin raise ``error`` at the admitted
        points ``indices`` of ``SPEC``'s sample; return the messages."""
        bad = [self.admitted(monkeypatch, planar)[i] for i in indices]
        margin = V.absorbing_dissipation_margin

        def failing(plant, assm, x, u):
            if (x, u) in bad:
                raise error(f"refused at {x}, {u}")
            return margin(plant, assm, x, u)

        monkeypatch.setattr(V, "absorbing_dissipation_margin", failing)
        return [f"refused at {x}, {u}" for x, u in bad]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_shares_give_the_one_process_report(self, planar, monkeypatch, forks, check,
                                                 seed):
        spec = SampleSpec(n_points=4 * V._MIN_SHARE, seed=seed)
        one, two, three = self.reports(monkeypatch, CHECKS[check], *planar, spec)
        assert two == one and three == one
        # each share draws its own sample, so the growth bound, which admits no
        # point, forks as every other check does
        assert len(forks) == 1 + 2

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_lifted_shares_give_the_one_process_report(self, planar, monkeypatch, check):
        from test_lifted import lifted

        one, two, three = self.reports(monkeypatch, CHECKS[check], *lifted(*planar), self.SPEC)
        assert two == one and three == one

    @pytest.mark.parametrize("check", ["local_controller", "corrected_dissipation"])
    def test_the_clis_sample_size_gives_the_one_process_report(self, planar, monkeypatch, forks, check):
        # the CLI's 10000 points, several batches in each of two shares
        spec = SampleSpec(n_points=10_000, seed=1)
        one, two = self.reports(monkeypatch, CHECKS[check], *planar, spec, shares=(1, 2))
        assert two == one
        assert len(forks) == 1

    def test_a_sample_the_draw_cap_ends_short_gives_the_one_process_report(self, monkeypatch):
        # about 1 candidate in 400 is admitted, so the 200000 draws allowed end
        # the sample near 500 points: the later shares are empty
        boxes = [np.array([[-1.0, 1.0]])] * 2
        reports = []
        for k in (1, 2, 3):
            monkeypatch.setattr(V, "_usable_cores", lambda: k)
            reports.append(V._run_sampled_check("capped", boxes, lambda x, u: x[0] > 0.995,
                                                lambda x, u: u[0] - x[0],
                                                SampleSpec(n_points=4000)).to_dict())
        assert 0 < reports[0]["points_tested"] < 1000
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_a_side_condition_error_in_a_childs_share_is_the_one_process_error(
            self, monkeypatch):
        # every candidate is admitted, so the third batch, whose first point the
        # side condition refuses, lies in a child's share at k = 2 and 3
        box = [np.array([[-1.0, 1.0]])]
        third = -1.0 + 2.0 * V.Halton(1, 0).random(3 * V._BATCH)[2 * V._BATCH, 0]

        def accept(x):
            if x[0, 0] == third:
                raise ZeroDivisionError("side condition failed")
            return np.ones(x.shape[1], bool)

        for k in (1, 2, 3):
            scanned = []
            monkeypatch.setattr(V, "_usable_cores", lambda: k)
            with pytest.raises(ZeroDivisionError, match="^side condition failed$"):
                V._run_sampled_check("third", box, accept, lambda x: scanned.append(x) or 0.0,
                                     SampleSpec(n_points=4 * V._BATCH))
            assert len(scanned) == 2 * V._BATCH

    def test_a_user_exception_in_a_childs_share_reaches_the_caller(self, planar, monkeypatch,
                                                                   forks):
        # admitted point 3000 lies in the child's share [2000, 4000); the
        # exception is raised again here, not sent back from the child
        class Refused(Exception):
            pass

        message, = self.margin_raising_at(monkeypatch, planar, [3000], Refused)
        monkeypatch.setattr(V, "_usable_cores", lambda: 2)
        with pytest.raises(Refused, match=f"^{re.escape(message)}$"):
            check_absorbing_dissipation(*planar, self.SPEC)
        assert len(forks) == 1

    def test_a_nan_margin_in_a_childs_share_is_the_one_process_error(self, planar,
                                                                     monkeypatch, forks):
        # admitted point 3000 lies in the child's share [2000, 4000)
        plant, assm = planar
        point = self.admitted(monkeypatch, planar)[3000][0]
        dissipation = assm.dissipation
        holed = dataclasses.replace(
            assm, dissipation=lambda x: float("nan") if x == point else dissipation(x))
        for k in (1, 2):
            monkeypatch.setattr(V, "_usable_cores", lambda: k)
            with pytest.raises(NonFiniteError, match=re.escape(
                    f"absorbing_dissipation: margin nan at point [{point}, [")):
                check_absorbing_dissipation(plant, holed, self.SPEC)
        assert len(forks) == 1

    def test_the_parents_earlier_failure_wins(self, planar, monkeypatch, forks):
        # admitted point 1000 lies in the parent's share, 3000 in the child's
        first, _ = self.margin_raising_at(monkeypatch, planar, [1000, 3000], ValueError)
        monkeypatch.setattr(V, "_usable_cores", lambda: 2)
        with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
            check_absorbing_dissipation(*planar, self.SPEC)
        assert len(forks) == 1

    def test_an_interrupted_parent_reaps_its_children(self, planar, monkeypatch, forks):
        parent = os.getpid()
        margin = V.absorbing_dissipation_margin

        def interrupted(plant, assm, x, u):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return margin(plant, assm, x, u)

        monkeypatch.setattr(V, "absorbing_dissipation_margin", interrupted)
        monkeypatch.setattr(V, "_usable_cores", lambda: 3)
        with pytest.raises(KeyboardInterrupt):
            check_absorbing_dissipation(*planar, self.SPEC)
        assert len(forks) == 2

    def test_a_killed_child_gives_the_one_process_report(self, planar, monkeypatch, forks):
        parent = os.getpid()
        margin = V.corrected_dissipation_margin

        def killed_in_a_child(plant, assm, z, w, u):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return margin(plant, assm, z, w, u)

        (one,) = self.reports(monkeypatch, check_corrected_dissipation, *planar, self.SPEC,
                              shares=(1,))
        monkeypatch.setattr(V, "corrected_dissipation_margin", killed_in_a_child)
        two, three = self.reports(monkeypatch, check_corrected_dissipation, *planar, self.SPEC,
                                  shares=(2, 3))
        assert two == one and three == one
        assert len(forks) == 1 + 2

    def test_a_tie_goes_to_the_first_admitted_point(self, planar, monkeypatch, forks):
        # every share's worst is its first point, so only a strict merge in
        # share order reports the first point of the first share
        seen = []
        monkeypatch.setattr(V, "local_controller_margin",
                            lambda plant, assm, x: seen.append(x) or 0.0)
        reports = self.reports(monkeypatch, check_local_controller, *planar, self.SPEC)
        assert [rep["worst_point"] for rep in reports] == [[seen[0]]] * 3
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert len(forks) == 1 + 2

    @pytest.mark.parametrize("k, peak", [(2, 1999), (2, 2000), (2, 3999),
                                         (3, 1332), (3, 1333), (3, 2666), (3, 3999)])
    def test_a_peak_at_a_share_boundary_is_found(self, planar, monkeypatch, forks, k, peak):
        # shares of 4000 points: [0, 2000) and [2000, 4000) for k = 2, and
        # [0, 1333), [1333, 2666) and [2666, 4000) for k = 3
        at = self.admitted(monkeypatch, planar)[peak]
        monkeypatch.setattr(V, "absorbing_dissipation_margin",
                            lambda plant, assm, x, u: 1.0 if (x, u) == at else 0.0)
        one, split = self.reports(monkeypatch, check_absorbing_dissipation, *planar,
                                  self.SPEC, shares=(1, k))
        assert one["worst_point"] == list(at) and split == one
        assert len(forks) == k - 1

    def test_no_fork_while_another_thread_lives(self, planar, monkeypatch):
        (one,) = self.reports(monkeypatch, check_local_controller, *planar, self.SPEC,
                              shares=(1,))

        def refused():
            raise AssertionError("forked while another thread was alive")

        monkeypatch.setattr(os, "fork", refused)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            (two,) = self.reports(monkeypatch, check_local_controller, *planar, self.SPEC,
                                  shares=(2,))
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert two == one


class TestSideConditionErrorOrder:
    """A side condition that raises on the second batch loses to a margin error
    earlier in draw order, and follows a clean scan of the first batch, at every
    share count: each share draws and scans in draw order, and the first share
    in share order that fails raises."""

    BOX = [np.array([[-1.0, 1.0]])]
    # the second batch's first point, which the side condition refuses
    SECOND = -1.0 + 2.0 * V.Halton(1, 0).random(2 * V._BATCH)[V._BATCH, 0]

    @classmethod
    def accept(cls, x):
        if x[0, 0] == cls.SECOND:
            raise ZeroDivisionError("side condition failed")
        return np.ones(x.shape[1], bool)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_an_earlier_margin_error_wins(self, monkeypatch, k):
        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        with pytest.raises(NonFiniteError, match=r"^pending: margin nan at point \[\["):
            V._run_sampled_check("pending", self.BOX, self.accept,
                                 lambda x: float("nan") if x[0] > 0.5 else x[0],
                                 SampleSpec(n_points=2 * V._BATCH))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_side_conditions_error_follows_a_clean_scan(self, monkeypatch, k):
        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        scanned = []
        with pytest.raises(ZeroDivisionError, match="^side condition failed$"):
            V._run_sampled_check("pending", self.BOX, self.accept,
                                 lambda x: scanned.append(x) or 0.0,
                                 SampleSpec(n_points=2 * V._BATCH))
        assert len(scanned) == V._BATCH

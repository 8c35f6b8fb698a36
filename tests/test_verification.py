import dataclasses
import errno
import hashlib
import os
import re
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    draws, but side conditions and margins evaluated one row at a time, the
    margin on each row as a stack of one."""
    from scipy.stats import qmc

    dims = [box.shape[0] for box in boxes]
    lo = np.concatenate([box[:, 0] for box in boxes])
    hi = np.concatenate([box[:, 1] for box in boxes])
    halton = qmc.Halton(d=int(sum(dims)), seed=sample.seed)
    splits = np.cumsum(dims)[:-1]
    tested = skipped = draws = 0
    worst = worst_pt = None
    max_draws = max(V._MAX_DRAW_FACTOR * sample.n_points, V._MIN_DRAW_CAP)
    while tested < sample.n_points and draws < max_draws:
        batch = halton.random(min(V._BATCH, max_draws - draws))
        draws += batch.shape[0]
        for row in lo + batch * (hi - lo):
            parts = tuple(np.array(p) for p in np.split(row, splits))
            if not accept(*parts):
                skipped += 1
                continue
            value = float(margin_fn(*(p[None] for p in parts))[0])
            if worst is None or value > worst:
                worst, worst_pt = value, parts
            tested += 1
            if tested >= sample.n_points:
                break
    return V.CheckReport(name=name, points_tested=tested, skipped=skipped,
                         worst_margin=worst, worst_point=worst_pt, seed=sample.seed)


def pointwise(fn):
    """A margin over stacks from ``fn`` of one point: ``fn`` at each row in turn,
    its rows as lists of floats."""
    return lambda *stacks: np.array([fn(*row) for row in zip(*(s.tolist() for s in stacks))])


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
        (m,) = V.absorbing_dissipation_margin(plant, assm, [[3.0, 0.0]], [[0.0]])
        assert m == pytest.approx(-808.7850000000001, rel=1e-12)

    def test_absorbing_dissipation_violation_without_gate(self, monkeypatch):
        # inadmissible observer gain scaling: large drive at the boundary
        monkeypatch.setattr("absorbctl.planar.check_zeta_bound", lambda zeta: True)
        plant, assm, _ = build_planar_example(0.2, b_level=60.0)
        (m,) = V.absorbing_dissipation_margin(plant, assm,
                                              [[0.0, np.sqrt(2.0)]], [[14.14]])
        assert m == pytest.approx(13.746979771955564, rel=1e-12)
        assert m > 0.0

    def test_observer_contraction(self, planar):
        plant, assm = planar
        (m,) = V.observer_contraction_margin(plant, assm, [[1.0, 1.0]], [[0.0, 0.0]], [[0.0]])
        assert m == -13.24
        assert V.observer_contraction_margin(plant, assm, [[0.3, -0.2]],
                                             [[0.3, -0.2]], [[0.1]])[0] == 0.0

    def test_growth_bound(self, planar):
        plant, assm = planar
        (m,) = V.growth_bound_margin(plant, assm, [[0.0, 1.8]], [[0.0, 0.5]], [[0.0]])
        assert m == pytest.approx(-6.3225, rel=1e-12)

    def test_corrected_dissipation(self, planar):
        plant, assm = planar
        (m,) = V.corrected_dissipation_margin(plant, assm, [[2.0, 0.0]], [[0.0]], [[0.0]])
        assert m == pytest.approx(-159.54, rel=1e-12)

    def test_corrected_contraction_zero_error(self, planar):
        plant, assm = planar
        (m,) = V.corrected_contraction_margin(plant, assm, [[0.4, -0.1]], [[0.4, -0.1]],
                                              [[0.2]])
        assert m == 0.0

    def test_contraction_fraction_is_tight(self, planar):
        # retaining 1.5 times the contraction rate (contraction_frac 0.5 of
        # a tripled rate) flips the sign at points where the plain
        # contraction margin is nearly saturated
        plant, assm = planar
        z, x, u = [[0.01, 0.3]], [[0.0, 0.3]], [[0.0]]
        inflated = dataclasses.replace(assm, contraction_rate=3 * assm.contraction_rate)
        (bad,) = V.corrected_contraction_margin(plant, inflated, z, x, u)
        (good,) = V.corrected_contraction_margin(plant, assm, z, x, u)
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
        # sha256 of the float64 margins at 400 seeded (z, x, u) points, one stack,
        # 247 of them with V(z) above the absorbing level; verify never evaluates
        # the growth bound on this example, where its side conditions admit no point
        plant, assm = planar
        points = np.random.default_rng(18).uniform(-2.0, 2.0, size=(400, 5))
        values = margin(plant, assm, points[:, :2], points[:, 2:4], points[:, 4:])
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_wrong_controller_detected(self, planar):
        # sign-flipped feedback destabilizes a thin band near the origin;
        # the stock controller keeps the margin negative at the same point
        plant, assm = planar
        orig = assm.local_controller
        flipped = dataclasses.replace(assm,
                                      local_controller=lambda x: [-v for v in orig(x)])
        (bad,) = V.local_controller_margin(plant, flipped, [[0.06, 0.0]])
        assert bad == pytest.approx(0.00015562956861713163, rel=1e-6)
        assert bad > 1e-9
        assert V.local_controller_margin(plant, assm, [[0.06, 0.0]])[0] < 0.0


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
        (m,) = V.observer_contraction_margin(plant, assm, *([p] for p in rep.worst_point))
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
        (m,) = V.corrected_dissipation_margin(plant, assm, *([p] for p in rep.worst_point))
        assert abs(m - rep.worst_margin) <= 1e-12

    def test_a_tie_goes_to_the_first_admitted_point(self, planar):
        seen = []
        check = dataclasses.replace(
            check_local_controller,
            margin=lambda plant, assm, x: pointwise(lambda p: seen.append(p) or 0.0)(x))
        rep = check(*planar, SPEC)
        assert rep.worst_point == (seen[0],) and len(seen) == SPEC.n_points

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

    @pytest.mark.parametrize("blend_hi", [V.UPPER_LEVEL, 150.0])
    def test_a_dissipation_band_empty_by_its_levels_is_refused(self, planar, monkeypatch,
                                                               blend_hi):
        # blend_hi <= V(z) <= UPPER_LEVEL admits no point: the check drew 500,000
        # candidates and passed as vacuous; it is refused before a draw
        plant, assm = planar
        monkeypatch.setattr(V, "Halton", None)
        with pytest.raises(ConfigurationError,
                           match=rf"^corrected_dissipation: blend_hi={blend_hi!r} leaves no band"):
            check_corrected_dissipation(plant, dataclasses.replace(assm, blend_hi=blend_hi),
                                        SampleSpec(seed=0))

    def test_a_dissipation_band_below_the_upper_level_is_sampled(self, planar):
        plant, assm = planar
        rep = check_corrected_dissipation(plant, dataclasses.replace(assm, blend_hi=99.0),
                                          SampleSpec(seed=0))
        assert (rep.points_tested, rep.vacuous, rep.passed) == (3949, False, True)

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

    @pytest.mark.parametrize("peak", [0, V._BATCH - 1, V._BATCH, 2 * V._BATCH - 1,
                                      2 * V._BATCH, 3 * V._BATCH - 1])
    def test_a_peak_at_a_batch_boundary_is_found(self, peak):
        # every candidate is admitted, so admitted point i is draw i
        at = -1.0 + 2.0 * V.Halton(1, 0).random(peak + 1)[peak, 0]
        rep = V._run_sampled_check("peak", [np.array([[-1.0, 1.0]])],
                                   lambda x: np.ones(x.shape[1], bool),
                                   pointwise(lambda x: 1.0 if x == [at] else 0.0),
                                   SampleSpec(n_points=3 * V._BATCH))
        assert rep.worst_point == ([at],) and rep.worst_margin == 1.0


class TestStackedMargins:
    """A check scores each Halton batch's admitted points in one margin call.
    A margin over a stack gives, bit for bit, what it gives on each row as a
    stack of one, and calls each callable as often per point as the pointwise
    scan it replaced: the same products (``np.vecdot``/``np.matvec`` make the
    BLAS calls of ``ndarray.dot``), the callables called at each row in turn."""

    # (margin, the stacks it takes: n states, m inputs or k outputs per row)
    MARGINS = {
        "absorbing_dissipation": (V.absorbing_dissipation_margin, "nm"),
        "local_controller": (V.local_controller_margin, "n"),
        "observer_contraction": (V.observer_contraction_margin, "nnm"),
        "growth_bound": (V.growth_bound_margin, "nnm"),
        "corrected_contraction": (V.corrected_contraction_margin, "nnm"),
        "corrected_dissipation": (V.corrected_dissipation_margin, "nkm"),
    }

    @pytest.fixture(scope="class")
    def certificates(self, planar):
        from test_observer import _three_state_loop

        return {"planar": planar, "three_state": _three_state_loop()}

    @given(st.sampled_from(sorted(MARGINS)), st.sampled_from(["planar", "three_state"]),
           st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_stack_gives_each_rows_bits(self, certificates, name, certificate, rows, data):
        # every stack ends with a row of 0.1s and one of 2.0s, so each corrected
        # margin's stack straddles the absorbing level: V(0.1s) lies inside it
        # and V(2.0s) above blend_hi, on both certificates
        plant, assm = certificates[certificate]
        margin, kinds = self.MARGINS[name]
        stacks = []
        for kind in kinds:
            width = {"n": plant.n, "m": plant.m, "k": plant.k_out}[kind]
            drawn = data.draw(arrays(np.float64, (rows, width),
                                     elements=st.floats(-2.5, 2.5, allow_nan=False)))
            stacks.append(np.vstack([drawn, np.full(width, 0.1), np.full(width, 2.0)]))
        with np.errstate(all="ignore"):  # the growth bound divides by 0 at z = x
            whole = margin(plant, assm, *stacks)
            one_by_one = [margin(plant, assm, *(s[i:i + 1] for s in stacks))
                          for i in range(rows + 2)]
        assert whole.shape == (rows + 2,)
        assert whole.tobytes() == np.concatenate(one_by_one).tobytes()

    # pointwise calls of each callable in a 2000-point check on the planar example,
    # as counted at the pointwise scan (list arguments; the side conditions' batch
    # calls and sublevel_box's probes included); the growth bound admits no point
    CALLS = {
        "absorbing_dissipation": {"dissipation": 2000, "f": 2000, "grad_lyapunov": 2000,
                                  "lyapunov": 341},
        "local_controller": {"f": 2000, "grad_local_lyapunov": 2000, "local_controller": 2000,
                             "local_lyapunov": 2000, "lyapunov": 329},
        "observer_contraction": {"f": 4000, "h": 4000, "lyapunov": 658},
        "observer_growth_bound": {"lyapunov": 658},
        "corrected_contraction": {"dissipation": 660, "f": 4000, "grad_lyapunov": 660,
                                  "h": 4000, "lyapunov": 2658},
        "corrected_dissipation": {"dissipation": 4000, "f": 2000, "grad_lyapunov": 4000,
                                  "h": 2025, "lyapunov": 2341},
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_each_callable_is_called_as_often_as_point_by_point(self, check):
        plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
        calls = {}

        def counted(name, fn):
            def call(*args):
                if isinstance(args[0], list):
                    calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return call

        for owner, names in ((plant, ("f", "h", "jac_h")),
                             (assm, ("lyapunov", "grad_lyapunov", "dissipation", "local_lyapunov",
                                     "grad_local_lyapunov", "local_controller"))):
            for name in names:
                object.__setattr__(owner, name, counted(name, getattr(owner, name)))
        CHECKS[check](plant, assm, SPEC)
        assert calls == self.CALLS[check]

    def test_a_batch_is_scored_in_one_call(self):
        # every candidate is admitted: three batches, three stacks of a batch each
        sizes = []
        V._run_sampled_check("batches", [np.array([[-1.0, 1.0]])],
                             lambda x: np.ones(x.shape[1], bool),
                             lambda x: sizes.append(x.shape) or np.zeros(len(x)),
                             SampleSpec(n_points=3 * V._BATCH))
        assert sizes == [(V._BATCH, 1)] * 3

    @staticmethod
    def first_points(planar, count):
        """The first ``count`` states that check_absorbing_dissipation admits, in draw order."""
        seen = []
        dataclasses.replace(
            check_absorbing_dissipation,
            margin=lambda plant, assm, x, u: seen.extend(x.tolist()) or np.zeros(len(x)),
        )(*planar, SampleSpec(n_points=count))
        return seen

    @staticmethod
    def raising_at(fn, point, exc):
        def call(x, *rest):
            if x == point:
                raise exc
            return fn(x, *rest)
        return call

    def test_an_earlier_nan_margin_wins_over_a_later_error(self, planar):
        # point 4's margin is NaN and f raises at point 9 of the same batch: the
        # batch is scored again point by point, and the NaN is met first
        plant, assm = planar
        points = self.first_points(planar, 10)
        dissipation = assm.dissipation
        holed = dataclasses.replace(
            assm, dissipation=lambda x: float("nan") if x == points[4] else dissipation(x))
        broken = dataclasses.replace(
            plant, f=self.raising_at(plant.f, points[9], ZeroDivisionError("f at point 9")))
        with pytest.raises(NonFiniteError, match=r"^absorbing_dissipation: margin nan at point "
                                                 + re.escape(f"[{points[4]}, ")):
            check_absorbing_dissipation(broken, holed, SPEC)

    def test_the_error_of_the_earlier_point_wins(self, planar):
        # f, called before the dissipation at every point, raises at point 9 and
        # the dissipation at point 4: the error raised is point 4's
        plant, assm = planar
        points = self.first_points(planar, 10)
        broken = dataclasses.replace(
            plant, f=self.raising_at(plant.f, points[9], ZeroDivisionError("f at point 9")))
        holed = dataclasses.replace(
            assm, dissipation=self.raising_at(assm.dissipation, points[4],
                                              ArithmeticError("dissipation at point 4")))
        with pytest.raises(ArithmeticError, match="^dissipation at point 4$"):
            check_absorbing_dissipation(broken, holed, SPEC)
        with pytest.raises(ZeroDivisionError, match="^f at point 9$"):
            check_absorbing_dissipation(broken, assm, SPEC)


class TestRaggedResults:
    """A callable's results are stacked only when every row has its shape: a plant
    ``f`` that returns three reals at one admitted point mid-batch, after
    construction probed it, fails the check, which never reports."""

    POINT = 1000  # of the first batch's admitted points, in draw order

    @pytest.fixture(params=["absorbing_dissipation", "corrected_dissipation"])
    def ragged(self, request, planar):
        """A check, and the planar plant whose ``f`` is ragged at that check's point."""
        plant, assm = planar
        check, first = CHECKS[request.param], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(V, "_margins",
                       lambda name, fn, stacks: first.append(stacks[0]) or np.zeros(len(stacks[0])))
            check(plant, assm, SPEC)
        point, f = first[0][self.POINT].tolist(), plant.f
        assert len(first[0]) > self.POINT + 1

        def ragged_f(x, u):
            return [*f(x, u), 0.0] if x == point else f(x, u)

        return check, dataclasses.replace(plant, f=ragged_f)

    def test_one_process_raises(self, planar, ragged):
        check, plant = ragged
        with pytest.raises(ValueError):
            check(plant, planar[1], SPEC)

    def test_a_child_dealt_the_check_raises_here(self, planar, monkeypatch, ragged):
        check, plant = ragged
        monkeypatch.setattr(V, "_usable_cores", lambda: 2)
        with pytest.raises(ValueError):
            V._run_checks([check_local_controller, check], plant, planar[1], SPEC)


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
        max_draws = max(V._MAX_DRAW_FACTOR * sample.n_points, V._MIN_DRAW_CAP)
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

    # V's batch calls per Halton batch: once per state drawn (z, or x, or both)
    LEVELS = {"absorbing_dissipation": 1, "local_controller": 1, "observer_contraction": 2,
              "observer_growth_bound": 2, "corrected_contraction": 2, "corrected_dissipation": 1}

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_v_is_evaluated_once_per_batch_and_state(self, monkeypatch, check):
        plant, assm = build_planar_example(0.01, r=0.25, tau=0.25)[:2]
        batches, levels, lyapunov, halton = [], [], assm.lyapunov, V.Halton

        def counted(x):
            if isinstance(x, np.ndarray):  # sublevel_box probes with lists
                levels.append(x.shape[1])
            return lyapunov(x)

        def counting_halton(dim, seed):
            sampler = halton(dim, seed)
            draw = sampler.random
            sampler.random = lambda n: batches.append(n) or draw(n)
            return sampler

        object.__setattr__(assm, "lyapunov", counted)
        monkeypatch.setattr(V, "Halton", counting_halton)
        CHECKS[check](plant, assm, SPEC)
        assert levels == [n for n in batches for _ in range(self.LEVELS[check])]
        if check == "observer_growth_bound":
            assert sum(batches) == 100_000  # the draw cap: no candidate is admitted

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

    def test_a_nan_clause_of_the_local_controller_is_refused(self, planar):
        # max(decay, coercive) passed over a NaN second clause: the check passed
        # at 2000 points and the margin at (0.6, 0.1) read -2.546; the probes of
        # the construction, in [-0.5, 0.5), accept this local Lyapunov function
        plant, assm = planar
        local = assm.local_lyapunov
        holed = dataclasses.replace(
            assm, local_lyapunov=lambda x: float("nan") if x[0] >= 0.5 else local(x))
        assert np.isnan(V.local_controller_margin(plant, holed, [[0.6, 0.1]])).all()
        with pytest.raises(NonFiniteError, match=r"^local_controller: margin nan at point \[\["):
            check_local_controller(plant, holed, SPEC)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_first_point_raises(self, planar, bad):
        # the row-by-row driver reported it as the worst margin, which
        # verification.json cannot hold as valid JSON
        plant, assm = planar
        broken = dataclasses.replace(assm, dissipation=lambda x: bad)
        with pytest.raises(NonFiniteError, match=f"margin {bad} at point"):
            check_absorbing_dissipation(plant, broken, SampleSpec(n_points=1))


class TestRunChecks:
    """``_run_checks`` deals its list of whole checks round-robin to ``k`` processes,
    runs ``checks[i::k]`` ahead in forked child ``i`` for each ``i`` from 1, calls every
    check here in list order, and gives the reports of the checks called one by one, or
    the exception of the first check that fails, and leaves no child behind.  ``k`` is
    forced through the module's count of usable cores."""

    # Halton dimensions of the scans of CHECKS, in order: states, inputs and outputs drawn
    DIMS = [3, 2, 5, 5, 5, 4]

    class Refused(Exception):
        pass

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

    @pytest.fixture
    def scans_here(self, monkeypatch):
        """The dimensions of the scans made in this process, one per Halton draw."""
        dims, halton = [], V.Halton

        def recording_halton(dim, seed):
            dims.append(dim)
            return halton(dim, seed)

        monkeypatch.setattr(V, "Halton", recording_halton)
        return dims

    @staticmethod
    def run(monkeypatch, k, checks, *args):
        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        return [rep.to_dict() for rep in V._run_checks(checks, *args)]

    @classmethod
    def refusing(cls, message):
        def check(plant, assm, sample):
            raise cls.Refused(message)

        return check

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_blocks_give_the_reports_of_the_checks_one_by_one(self, planar, monkeypatch,
                                                              forks, k, seed):
        spec = SampleSpec(n_points=2000, seed=seed)
        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        one_by_one = [check(*planar, spec).to_dict() for check in CHECKS.values()]
        assert forks == []  # a check called by itself runs here
        assert self.run(monkeypatch, k, list(CHECKS.values()), *planar, spec) == one_by_one
        assert len(forks) == k - 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_check_is_called_here_and_each_scan_made_once(self, planar, monkeypatch,
                                                                scans_here, k):
        # what a wrapper of each check sees here is what the checks give one by one,
        # though only the scans of the checks dealt to this process are made here
        one_by_one = [check(*planar, SPEC).to_dict() for check in CHECKS.values()]
        scans_here.clear()
        seen = []

        def seeing(check):
            def wrapper(plant, assm, sample):
                report = check(plant, assm, sample)
                seen.append(report.to_dict())
                return report
            return wrapper

        assert self.run(monkeypatch, k, [seeing(c) for c in CHECKS.values()], *planar,
                        SPEC) == one_by_one
        assert seen == one_by_one
        assert len(scans_here) == len(range(0, len(CHECKS), k))
        assert scans_here == self.DIMS[::k]

    @pytest.mark.parametrize("k, here", [(1, 9), (2, 5), (3, 3), (6, 1)])
    def test_a_check_dealt_to_a_child_builds_no_box_here(self, planar, monkeypatch, k, here):
        # the six checks' regions take 1, 1, 2, 2, 2 and 1 sublevel boxes; this process
        # builds those of checks[::k] only, as a report a child made returns first
        boxes, sublevel_box = [], V.sublevel_box
        monkeypatch.setattr(V, "sublevel_box", lambda *a: boxes.append(a) or sublevel_box(*a))
        self.run(monkeypatch, k, list(CHECKS.values()), *planar, SPEC)
        assert len(boxes) == here

    @pytest.mark.parametrize("refused", ["pipe 1", "fork 1", "fork 2"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_refused_pipe_or_fork_runs_the_checks_not_dealt_here(self, monkeypatch, forks,
                                                                   tmp_path, k, refused):
        # `absorbctl verify` exited 2 as a configuration error when os.fork raised
        from absorbctl import cli

        config = tmp_path / "default.cfg"
        config.write_text("")

        def verify(out):
            assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
            return (out / "verification.json").read_bytes()

        monkeypatch.setattr(V, "_usable_cores", lambda: 1)
        one = verify(tmp_path / "one")
        what, refused_call = refused.split()
        real, calls = getattr(os, what), []

        def refusing():
            calls.append(what)
            if len(calls) == int(refused_call):
                raise OSError(errno.EMFILE if what == "pipe" else errno.EAGAIN, "refused")
            return real()

        monkeypatch.setattr(os, what, refusing)
        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        assert verify(tmp_path / "dealt") == one
        assert len(forks) == min(int(refused_call) - 1, k - 1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_child_i_runs_the_checks_dealt_to_it(self, planar, monkeypatch, forks, tmp_path,
                                                 k):
        # each call appends "pid index" to a log shared by the processes
        log = tmp_path / "calls"

        def logging(index, check):
            def wrapper(plant, assm, sample):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {index}\n")
                return check(plant, assm, sample)
            return wrapper

        checks = [logging(i, c) for i, c in enumerate(CHECKS.values())]
        self.run(monkeypatch, k, checks, *planar, SPEC)
        calls = {}
        for line in log.read_text().splitlines():
            pid, index = map(int, line.split())
            calls.setdefault(pid, []).append(index)
        assert calls.pop(os.getpid()) == list(range(len(CHECKS)))
        assert calls == {pid: list(range(i, len(CHECKS), k)) for i, pid in enumerate(forks, 1)}

    def test_a_child_that_dies_before_its_check_returns_leaves_that_check_here(
            self, planar, monkeypatch, forks, scans_here):
        parent = os.getpid()

        def killed_after_its_scan(plant, assm, sample):
            report = check_local_controller(plant, assm, sample)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return report

        checks = [check_observer_contraction, killed_after_its_scan, check_corrected_dissipation]
        want = [check(*planar, SPEC).to_dict() for check in checks]
        scans_here.clear()
        assert self.run(monkeypatch, 2, checks, *planar, SPEC) == want
        # a child sends the report its check returns, so the local controller,
        # scanned in the child that was killed before sending it, is scanned here too
        assert scans_here == [5, 2, 4]
        assert len(forks) == 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_lifted_blocks_give_the_reports_of_the_checks_one_by_one(self, planar,
                                                                     monkeypatch, forks, k):
        from test_lifted import lifted

        plant, assm = lifted(*planar)
        checks = list(CHECKS.values())
        one_by_one = [check(plant, assm, SPEC).to_dict() for check in checks]
        assert self.run(monkeypatch, k, checks, plant, assm, SPEC) == one_by_one
        assert len(forks) == k - 1

    @pytest.mark.parametrize("check", ["local_controller", "corrected_dissipation"])
    def test_the_clis_sample_size_gives_the_one_process_report(self, planar, monkeypatch,
                                                               forks, check):
        # the CLI's 10000 points, several batches, dealt to the child at k = 2
        spec = SampleSpec(n_points=10_000, seed=1)
        checks = [check_observer_contraction, CHECKS[check]]
        one_by_one = [c(*planar, spec).to_dict() for c in checks]
        assert self.run(monkeypatch, 2, checks, *planar, spec) == one_by_one
        assert len(forks) == 1

    def test_a_sample_the_draw_cap_ends_short_gives_the_one_process_report(self, planar,
                                                                           monkeypatch, forks):
        # about 1 candidate in 400 is admitted, so the 200000 draws allowed end
        # the sample near 500 points
        capped = V._SampledCheck(
            "capped", lambda plant, assm: ([np.array([[-1.0, 1.0]])] * 2,
                                           lambda x, u: x[0] > 0.995),
            lambda plant, assm, x, u: pointwise(lambda x, u: u[0] - x[0])(x, u))
        spec = SampleSpec(n_points=4000)
        (one,) = self.run(monkeypatch, 1, [capped], *planar, spec)
        assert 0 < one["points_tested"] < 1000
        for k in (2, 3):
            assert self.run(monkeypatch, k, [capped] * 3, *planar, spec) == [one] * 3
        assert len(forks) == 1 + 2

    def test_a_side_condition_error_in_a_childs_block_is_the_one_process_error(
            self, planar, monkeypatch, forks):
        # every candidate is admitted and the side condition refuses the third
        # batch's first point; a check its failed child did not report is scanned here
        box = [np.array([[-1.0, 1.0]])]
        third = -1.0 + 2.0 * V.Halton(1, 0).random(3 * V._BATCH)[2 * V._BATCH, 0]

        def accept(x):
            if x[0, 0] == third:
                raise ZeroDivisionError("side condition failed")
            return np.ones(x.shape[1], bool)

        scanned = []

        def third_batch(plant, assm, sample):
            return V._run_sampled_check("third", box, accept,
                                        pointwise(lambda x: scanned.append(x) or 0.0),
                                        SampleSpec(n_points=4 * V._BATCH))

        for k in (1, 2, 3):
            scanned.clear()
            with pytest.raises(ZeroDivisionError, match="^side condition failed$"):
                self.run(monkeypatch, k, [check_local_controller, third_batch], *planar, SPEC)
            assert len(scanned) == 2 * V._BATCH
        assert len(forks) == 1 + 1

    @pytest.mark.parametrize("how", ["raises", "exits", "is killed"])
    def test_a_failed_child_gives_the_one_process_report(self, planar, monkeypatch, forks,
                                                         how):
        parent = os.getpid()

        def failing_in_a_child(plant, assm, sample):
            if os.getpid() != parent:
                if how == "raises":
                    raise self.Refused("in a child")
                if how == "exits":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return check_local_controller(plant, assm, sample)

        checks = [check_observer_contraction, failing_in_a_child, check_corrected_dissipation]
        want = [check(*planar, SPEC).to_dict() for check in checks]
        for k in (2, 3):
            assert self.run(monkeypatch, k, checks, *planar, SPEC) == want
        assert len(forks) == 1 + 2

    def test_an_error_in_a_child_is_the_one_process_error(self, planar, monkeypatch, forks):
        # both later checks fail; the first of them in list order raises, also at
        # k = 3, where each runs in a child of its own
        checks = [check_local_controller, self.refusing("first"), self.refusing("second")]
        for k in (1, 2, 3):
            with pytest.raises(self.Refused, match="^first$"):
                self.run(monkeypatch, k, checks, *planar, SPEC)
        assert len(forks) == 1 + 2

    def test_a_nan_margin_in_a_child_is_the_one_process_error(self, planar, monkeypatch, forks):
        plant, assm = planar
        dissipation = assm.dissipation
        holed = dataclasses.replace(
            assm, dissipation=lambda x: float("nan") if x[0] >= 5.0 else dissipation(x))

        def holed_check(plant, _assm, sample):
            return check_absorbing_dissipation(plant, holed, sample)

        with pytest.raises(NonFiniteError) as one:
            holed_check(plant, assm, SPEC)
        with pytest.raises(NonFiniteError, match=f"^{re.escape(str(one.value))}$"):
            self.run(monkeypatch, 2, [check_local_controller, holed_check], plant, assm,
                     SPEC)
        assert len(forks) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_the_parents_error_wins(self, planar, monkeypatch, forks, k):
        checks = [self.refusing("parent"), self.refusing("child"), check_local_controller]
        with pytest.raises(self.Refused, match="^parent$"):
            self.run(monkeypatch, k, checks, *planar, SPEC)
        assert len(forks) == k - 1

    def test_an_interrupted_parent_reaps_its_children(self, planar, monkeypatch, forks):
        parent = os.getpid()

        def interrupted(plant, assm, sample):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still busy is killed, not waited for

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.run(monkeypatch, 3, [interrupted] * 3, *planar, SPEC)
        assert time.monotonic() - start < 30
        assert len(forks) == 2

    def test_no_fork_while_another_thread_lives(self, planar, monkeypatch):
        checks = list(CHECKS.values())[:2]
        one_by_one = [check(*planar, SPEC).to_dict() for check in checks]

        def refused():
            raise AssertionError("forked while another thread was alive")

        monkeypatch.setattr(os, "fork", refused)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            reports = self.run(monkeypatch, 2, checks, *planar, SPEC)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert reports == one_by_one


class TestSideConditionErrorOrder:
    """A side condition that raises on the second batch loses to a margin error
    earlier in draw order, and follows a clean scan of the first batch, at every
    process count: a check draws and scans in draw order wherever it runs, and a
    check a failed child did not report is scanned here."""

    BOX = [np.array([[-1.0, 1.0]])]
    # the second batch's first point, which the side condition refuses
    SECOND = -1.0 + 2.0 * V.Halton(1, 0).random(2 * V._BATCH)[V._BATCH, 0]

    @classmethod
    def accept(cls, x):
        if x[0, 0] == cls.SECOND:
            raise ZeroDivisionError("side condition failed")
        return np.ones(x.shape[1], bool)

    @classmethod
    def run_last(cls, monkeypatch, k, planar, margin_fn):
        """Run the pending check last of three, dealt to ``k`` processes."""
        def pending(plant, assm, sample):
            return V._run_sampled_check("pending", cls.BOX, cls.accept, margin_fn,
                                        SampleSpec(n_points=2 * V._BATCH))

        monkeypatch.setattr(V, "_usable_cores", lambda: k)
        V._run_checks([check_local_controller] * 2 + [pending], *planar, SPEC)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_an_earlier_margin_error_wins(self, planar, monkeypatch, k):
        with pytest.raises(NonFiniteError, match=r"^pending: margin nan at point \[\["):
            self.run_last(monkeypatch, k, planar,
                          pointwise(lambda x: float("nan") if x[0] > 0.5 else x[0]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_side_conditions_error_follows_a_clean_scan(self, planar, monkeypatch, k):
        scanned = []
        with pytest.raises(ZeroDivisionError, match="^side condition failed$"):
            self.run_last(monkeypatch, k, planar,
                          pointwise(lambda x: scanned.append(x) or 0.0))
        assert len(scanned) == V._BATCH

"""End-to-end acceptance gate.

Each test prints one ``criterion NN PASS|FAIL`` line before asserting, so a
full run yields a ten-line scoreboard.  Criteria 05, 06 and 08 demand a
10^-3 terminal contraction on a 40 s horizon; the committed example's
slowest closed-loop mode decays at about 0.02/s, so those runs level out
near 3e-2 and the criteria fail.  They are kept faithful rather than
weakened; all subsidiary clauses (positive fitted rate, fit quality,
invariants, bit-exact degenerations) do pass.
"""

import math
import time

import numpy as np
import pytest

from absorbctl import (
    InitialData,
    InputHistory,
    PlantModel,
    SampleSpec,
    SimConfig,
    build_planar_example,
    check_absorbing_dissipation,
    check_corrected_contraction,
    check_corrected_dissipation,
    check_growth_bound,
    check_local_controller,
    check_observer_contraction,
    check_zeta_bound,
    generate_partition,
    hold_control,
    pilot_tune,
    predictor_convergence_study,
    simulate_closed_loop,
    simulator,
)
from absorbctl.cli import TUNE_GRID
from history_oracles import input_record
from loop_oracles import inputs_in_box

FULL = SampleSpec(n_points=10_000, seed=0)

# the committed loop parameters exercised by criteria 05-09
T_S, T_H, N_STEPS = 0.01, 0.05, 64
HORIZON, DT_MAX = 40.0, 1e-3


def report(num: int, ok: bool, desc: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {desc}")
    return ok


def config_for(seed: int, dt_max: float = DT_MAX) -> SimConfig:
    return SimConfig(T_H=T_H, N=N_STEPS, horizon=HORIZON, dt_max=dt_max,
                     seed=seed, record_dt=0.05)


def decay_clauses(run: tuple) -> dict:
    """The library's decay bar, as ``simulator.sweep`` judged the run
    (positive fitted rate, terminal ratio below ``DECAY_RATIO``), this
    test's own fit-quality clause, and the figures behind them for failure
    messages."""
    _traj, summary, ratio, meets_bar = run
    return {
        "meets_bar": meets_bar,
        "fit_quality": summary["r2"] > 0.9,
        "ratio_value": ratio,
        "sigma_hat": summary["sigma_hat"],
    }


@pytest.fixture(scope="module")
def planar():
    return build_planar_example(0.01, b_level=1.5, c_frac=0.5, r=0.25, tau=0.25)[:2]


@pytest.fixture(scope="module")
def stock_init():
    return InitialData(x0=[1.0, -1.0], z0=[0.0, 0.0])


@pytest.fixture(scope="module")
def sweep(planar, stock_init):
    """Criterion-5 run repeated over partition seeds 0-19; seed 0 doubles
    as the pilot run for criteria 5 and 9."""
    plant, assm = planar
    t0 = time.monotonic()
    runs = list(simulator.sweep(plant, assm, stock_init,
                                [(T_S, config_for(seed)) for seed in range(20)], 0.5))
    return runs, time.monotonic() - t0


def test_criterion_01_assumption_certification(planar):
    plant, assm = planar
    t0 = time.monotonic()
    reports = [
        check_absorbing_dissipation(plant, assm, FULL),
        check_local_controller(plant, assm, FULL),
        check_observer_contraction(plant, assm, FULL),
        check_growth_bound(plant, assm, FULL),
    ]
    wall = time.monotonic() - t0
    ok = all(rep.passed for rep in reports) and wall < 60.0
    report(1, ok, "standing-assumption sampled checks (10^4 points each)")
    for rep in reports:
        assert rep.passed, f"{rep.name}: worst margin {rep.worst_margin} at {rep.worst_point}"
    assert wall < 60.0, f"certification took {wall:.1f} s"


def test_criterion_02_corrected_contraction_and_ablation(planar):
    plant, assm = planar
    rep = check_corrected_contraction(plant, assm, FULL)
    ablated = check_corrected_dissipation(plant, assm, FULL, zero_damping=True)
    ok = rep.passed and not ablated.passed
    report(2, ok, "corrected-observer contraction; damping ablation violates")
    assert rep.passed, f"worst margin {rep.worst_margin} at {rep.worst_point}"
    assert not ablated.passed, "removing the damping term should break dissipation"


def test_criterion_03_corrected_dissipation(planar):
    plant, assm = planar
    rep = check_corrected_dissipation(plant, assm, FULL)
    ok = rep.passed
    report(3, ok, "corrected-observer dissipation above the blending band")
    assert ok, f"worst margin {rep.worst_margin} at {rep.worst_point}"


def test_criterion_04_predictor_order():
    plant, _assm, _fn = build_planar_example(0.01, r=0.5, tau=0.5)
    hist = input_record([(-1.0, [0.3]), (-0.55, [-0.2]), (-0.2, [0.05])])
    study = predictor_convergence_study(plant, [0.5, -0.3], hist, [8, 16, 32, 64])
    errs = [err for _n, err in study]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ratio = errs[-2] / errs[-1]

    scalar = PlantModel(n=1, m=1, k_out=1,
                        f=lambda x, u: [-x[0] + 0.0 * u[0]],
                        h=lambda x: [x[0]],
                        jac_h=lambda x: [[1.0]],
                        input_box=np.array([[-1.0, 1.0]]),
                        r=0.5, tau=0.5)
    zero_hist = input_record([(-1.0, [0.0])])
    oracle_dev = max(
        abs(err - abs(math.exp(-1.0) - (1.0 - 1.0 / n) ** n))
        for n, err in predictor_convergence_study(scalar, [1.0], zero_hist,
                                                  [8, 16, 32, 64])
    )
    ok = decreasing and 1.6 <= ratio <= 2.4 and oracle_dev <= 1e-12
    report(4, ok, "first-order predictor convergence and scalar oracle")
    assert decreasing, f"errors not strictly decreasing: {errs}"
    assert 1.6 <= ratio <= 2.4, f"e(32)/e(64) = {ratio}"
    assert oracle_dev <= 1e-12, f"scalar oracle deviation {oracle_dev}"


def test_criterion_05_closed_loop_decay(planar, stock_init, sweep):
    plant, assm = planar
    runs, _wall = sweep
    clauses = decay_clauses(runs[0])
    pilot_ok = clauses["meets_bar"] and clauses["fit_quality"]
    if pilot_ok:
        ok = True
    else:
        # the grid's pilot triple at seed 0 is the sweep's seed-0 run, bit for
        # bit: judge it by the bar sweep applied, as pilot_tune would (no
        # fit-quality clause), instead of simulating it again, and tune over
        # the rest of the grid
        rest = [triple for triple in TUNE_GRID if triple != (T_S, T_H, N_STEPS)]
        ok = clauses["meets_bar"] or pilot_tune(
            plant, assm, stock_init, rest, config_for(0)).passed
    report(5, ok, "closed-loop decay with delays (pilot, then tuning grid)")
    assert pilot_ok or ok, (
        f"pilot clauses {clauses} and no tuning-grid triple reached "
        f"a {simulator.DECAY_RATIO} terminal contraction"
    )


def test_criterion_06_schedule_robustness(sweep):
    runs, wall = sweep
    clauses = {seed: decay_clauses(run) for seed, run in enumerate(runs)}
    failures = {seed: c for seed, c in clauses.items()
                if not (c["meets_bar"] and c["fit_quality"])}
    ok = not failures and wall < 300.0
    report(6, ok, "decay across 20 measurement schedules")
    assert wall < 300.0, f"sweep took {wall:.0f} s"
    assert not failures, f"seeds failing the decay clauses: {failures}"


def test_criterion_07_trajectory_invariants(planar, stock_init, sweep):
    plant, assm = planar
    runs, _wall = sweep
    v0 = float(assm.lyapunov(stock_init.histories(plant)[0].value(0.0)))
    vz0 = float(assm.lyapunov(stock_init.z0))
    ok = True
    for traj, *_judged in runs:
        ok &= float(np.max(traj.lyap_x)) <= max(v0, assm.absorbing_level) + 1e-6
        ok &= float(np.max(traj.lyap_z)) <= max(vz0, assm.blend_hi) + 1e-6
        ok &= inputs_in_box(traj, plant.input_box)
        # each reset sample is the w of the row recorded at its time
        ok &= all((traj.w[np.searchsorted(traj.t, t)] == y_sample).all()
                  for t, y_sample in traj.reset_records)
    report(7, bool(ok), "sublevel, input-box and reset invariants on every run")
    assert ok


def test_criterion_08_delay_free_loop(stock_init):
    plant, assm, _fn = build_planar_example(0.01, b_level=1.5, c_frac=0.5,
                                            r=0.0, tau=0.0)
    (run,) = simulator.sweep(plant, assm, stock_init, [(T_S, config_for(0))], 0.5)
    traj = run[0]
    clauses = decay_clauses(run)

    degenerate = True
    for i in range(traj.t.size):
        frac = traj.t[i] / T_H
        if abs(frac - round(frac)) > 1e-9:
            continue
        direct = hold_control(traj.z[i], InputHistory(0.0), N_STEPS, plant, assm)
        degenerate &= (direct == traj.u_applied[i]).all()

    ok = clauses["meets_bar"] and clauses["fit_quality"] and degenerate
    report(8, ok, "delay-free loop decay and bit-exact hold degeneration")
    assert degenerate, "hold value differs from the direct state feedback"
    assert clauses["fit_quality"], clauses
    assert clauses["meets_bar"], f"terminal ratio {clauses['ratio_value']}"


def test_criterion_09_numerical_soundness(planar, stock_init, sweep, tmp_path):
    plant, assm = planar
    runs, _wall = sweep
    coarse = runs[0][0]
    partition = generate_partition(T_S, HORIZON, seed=0)
    fine = simulate_closed_loop(plant, assm, partition,
                                config_for(0, dt_max=DT_MAX / 2.0), stock_init)
    ref = float(np.linalg.norm(fine.x[-1]))
    drift = float(np.linalg.norm(coarse.x[-1] - fine.x[-1])) / max(ref, 1e-30)

    repeat = simulate_closed_loop(plant, assm, partition, config_for(0),
                                  stock_init)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    coarse.write_csv(a)
    repeat.write_csv(b)
    identical = a.read_bytes() == b.read_bytes()

    ok = drift < 1e-6 and identical
    report(9, ok, "step-size robustness and byte-identical reruns")
    assert drift < 1e-6, f"terminal state moved by {drift} under dt halving"
    assert identical, "same-seed rerun changed the trajectory file"


def test_criterion_10_gain_bound_gate():
    ok = (check_zeta_bound(0.01) is True
          and check_zeta_bound(0.012) is True
          and check_zeta_bound(0.02) is False)
    report(10, ok, "quadratic gain-bound gate")
    assert ok

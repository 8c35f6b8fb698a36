"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench

They take about a minute: two traced ``simulate`` runs and one traced
``verify`` run of workload seed 0.
"""

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import speedprobe
from tracing import Tracer, traced

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def traced_command(workload: str, wseed: int):
    cli = run.import_cli()
    out_dir = run.OUT / f"selftest_{workload}"
    run.prepare(out_dir)
    tracer = Tracer()
    try:
        with traced(tracer):
            _wall, got = run.run_command(cli, workload, wseed, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return tracer, got


def counts(tracer: Tracer) -> dict:
    return {name: value for name, (value, unit) in tracer.metrics().items()
            if unit == "count"}


@pytest.fixture(scope="module")
def simulate_twice():
    return [traced_command("simulate", 0) for _ in range(2)]


@pytest.fixture(scope="module")
def verify_once():
    return traced_command("verify", 0)


def test_counts_repeat_across_traced_runs(simulate_twice):
    (first, _), (second, _) = simulate_twice
    assert counts(first) == counts(second)
    assert first.calls_under == second.calls_under


def test_traced_outputs_pass_the_reference_check(simulate_twice, verify_once):
    for _tracer, got in simulate_twice:
        assert run.mismatches(got, REFERENCE["simulate"]["0"]) == []
    assert run.mismatches(verify_once[1], REFERENCE["verify"]["0"]) == []


def test_simulate_counts_reproduce_the_baseline(simulate_twice):
    tracer, _ = simulate_twice[0]
    layer = counts(tracer)
    assert layer["simulator.rows"] == 6135
    # ROADMAP rounds this to 800: holds fall at 0, 0.05, ..., 40 inclusive
    assert layer["predictor.calls"] == 801
    assert layer["controller.holds"] == 801
    assert 42_000 <= layer["rk4.substeps"] <= 44_000
    # the coupled RHS evaluates jac_h once per call, four calls per substep
    rhs_evals = tracer.calls_under["planar.jac_h", "rk4.integrate_span"]
    assert rhs_evals == 4 * layer["rk4.substeps"]
    assert 168_000 <= rhs_evals <= 176_000


def test_verify_counts_reproduce_the_baseline(verify_once):
    layer = counts(verify_once[0])
    assert layer["verification.observer_growth_bound.tested"] == 0
    assert layer["verification.observer_growth_bound.skipped"] == 500_000
    # verify never enters the simulator's layers
    for name in ("rk4.substeps", "predictor.calls", "controller.holds",
                 "model.state_appends", "simulator.rows"):
        assert layer[name] == 0


def test_trace_reports_every_per_layer_metric(verify_once):
    reported = set(verify_once[0].metrics()) | {"trace.overhead"}
    assert reported == {metric["name"] for metric in BENCHMARK["per_layer"]}


def test_reference_check_tolerates_only_rounding():
    ref = REFERENCE["simulate"]["0"]
    assert run.mismatches(copy.deepcopy(ref), ref) == []
    rounded = copy.deepcopy(ref)
    rounded["terminal"][1] *= 1.0 + 1e-14
    rounded["csv_sha256"] = "0" * 64
    assert run.mismatches(rounded, ref) == []
    drifted = copy.deepcopy(ref)
    drifted["terminal"][1] *= 1.0 + 1e-9
    assert run.mismatches(drifted, ref)
    shorter = copy.deepcopy(ref)
    shorter["rows"] -= 1
    assert run.mismatches(shorter, ref)
    verify = copy.deepcopy(REFERENCE["verify"]["0"])
    verify["checks"][3]["skipped"] += 1
    assert run.mismatches(verify, REFERENCE["verify"]["0"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "simulate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_reports_kernel_work_at_the_reference_speed():
    # an interval of nothing but kernel runs reads as that many reference
    # kernel times, whatever the host's speed while it ran
    probe = speedprobe.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    try:
        for _ in range(100):
            speedprobe.kernel()
    finally:
        wall = time.perf_counter() - t0
        probe.stop()
    assert len(probe.samples) >= 2
    assert probe.at_reference_speed(wall) == pytest.approx(100 * speedprobe.REFERENCE_S,
                                                           rel=0.25)

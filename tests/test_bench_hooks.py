"""The benchmark's per-layer tracing still sees the loop.

``bench/tracing.py`` patches names where the program looks them up
(``simulator.integrate_span``, ``simulator.observer_correction``,
``controller.euler_predict``, ...) and raises ``KeyError`` on one that is
gone.  It is loaded here by path, as it is, and run around two short
``simulate`` commands: the default one, and one whose observer starts
outside the absorbing set, where the loop calls ``observer_correction``.
"""

import importlib.util
from pathlib import Path

import pytest

from absorbctl.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_simulate(tracing, tmp_path, *sets):
    config = tmp_path / "default.cfg"
    config.write_text("")
    tracer = tracing.Tracer()
    args = [arg for item in ("horizon=2", *sets) for arg in ("--set", item)]
    with tracing.traced(tracer):
        assert main(["simulate", "--config", str(config), *args,
                     "--out", str(tmp_path / "out")]) == 0
    return tracer, tracer.metrics()


@pytest.mark.parametrize("sets", [(), ("z0=(3,-2)",)], ids=["default", "damping"])
def test_traced_run_reaches_every_layer(tracing, tmp_path, sets):
    tracer, metrics = traced_simulate(tracing, tmp_path, *sets)
    substeps = metrics["rk4.substeps"][0]
    assert substeps > 0
    # the substep evaluates jac_h once per stage, four stages per substep
    assert tracer.calls_under["planar.jac_h", "rk4.integrate_span"] == 4 * substeps
    for span in ("simulator.simulate_closed_loop", "rk4.integrate_span", "controller.hold",
                 "predictor.euler_predict", "model.state_append", "model.sup_norm",
                 "model.sup_abs", "model.write_csv", "simulator.run_summary"):
        assert tracer.calls[span] > 0, span
    rows = (tmp_path / "out" / "trajectory.csv").read_text().count("\n") - 1
    assert metrics["simulator.rows"][0] == rows
    # the correction is called only outside the absorbing set, where it damps
    corrections = tracer.calls["observer.correction"]
    assert corrections == tracer.calls["observer.damping"]
    assert (corrections > 0) == bool(sets)
    # each stage evaluates h(z) and V(z) once and hands both to the correction
    for name in ("planar.h", "planar.lyapunov"):
        assert tracer.calls_under[name, "observer.correction"] == 0
        assert tracer.calls_under[name, "rk4.integrate_span"] == 4 * substeps

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from absorbctl import ConfigurationError, cli
from absorbctl.cli import DEFAULTS, TUNE_GRID, load_settings, main

# sha256 of sweep.json and tune.json for the config_file settings (horizon 2.0);
# a refactor of the sweep keeps these bytes
SWEEP_DIGEST = "eb518106a71d0a03b3d0128eb953bcf8fefac9a7bc661b41bcf2e8fb8a2f4ae2"
TUNE_DIGEST = "fe7187f9e5dbf63756c8f679ad736e7c3f55a2072a9fc0fb37258bf10c245000"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "loop.cfg"
    path.write_text("# planar demo\nzeta = 0.01\nhorizon = 2.0\n")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSettings:
    def test_precedence(self, config_file):
        settings = load_settings(str(config_file), ["horizon=3.5", "N=16"])
        assert settings["horizon"] == 3.5      # --set beats the file
        assert settings["N"] == 16             # --set beats the default
        assert settings["zeta"] == 0.01        # file value
        assert settings["T_s"] == DEFAULTS["T_s"]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n  # comment only\nseed = 3  # trailing\n\n")
        assert load_settings(str(path), [])["seed"] == 3

    def test_vector_and_segment_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("x0 = (0.5, -0.5)\nu0_segments = -0.5:0.1; -0.2:-0.1\n")
        settings = load_settings(str(path), [])
        assert settings["x0"] == (0.5, -0.5)
        assert settings["u0_segments"] == ((-0.5, (0.1,)), (-0.2, (-0.1,)))

    @pytest.mark.parametrize("line", [
        "bogus = 1",
        "N = sixteen",
        "zeta = fast",
        "x0 = (a, b)",
        "u0_segments = nocolon",
        "justakey",
    ])
    def test_rejects_malformed_lines(self, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError):
            load_settings(str(path), [])

    def test_rejects_malformed_override(self, config_file):
        with pytest.raises(ConfigurationError):
            load_settings(str(config_file), ["bogus=1"])


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert run_cli("simulate", "--config", tmp_path / "nope.cfg",
                       "--out", tmp_path) == 2

    def test_unknown_key(self, config_file, tmp_path):
        assert run_cli("simulate", "--config", config_file,
                       "--set", "bogus=1", "--out", tmp_path) == 2

    def test_invalid_model_parameter(self, config_file, tmp_path):
        # zeta = 0.02 violates the observer gain bound at model build time
        assert run_cli("verify", "--config", config_file,
                       "--set", "zeta=0.02", "--out", tmp_path) == 2

    def test_invalid_run_parameter(self, config_file, tmp_path):
        assert run_cli("simulate", "--config", config_file,
                       "--set", "N=-1", "--out", tmp_path) == 2

    @pytest.mark.parametrize("command, setting", [
        ("simulate", "T_s=nan"), ("simulate", "T_s=inf"), ("simulate", "horizon=nan"),
        ("simulate", "horizon=inf"), ("simulate", "record_dt=nan"), ("simulate", "T_H=inf"),
        ("simulate", "r=inf"), ("simulate", "tau=inf"), ("simulate", "b=inf"),
        ("simulate", "seed=-1"), ("verify", "seed=-1"),
    ])
    def test_non_finite_or_negative_seed_setting(self, config_file, tmp_path, capsys,
                                                 command, setting):
        # each is refused where it is stored, before any run or output file
        assert run_cli(command, "--config", config_file, "--set", setting,
                       "--out", tmp_path) == 2
        assert "absorbctl: configuration error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config_file]

    @pytest.mark.parametrize("settings, message", [
        (["x0=(nan, 0)"], "initial data must be finite"),
        (["z0=(0, 0, 0)"], "x0 and z0 need 2 components, got 2 and 3"),
        # the planar plant has one input; a two-component value is refused
        (["u0_segments=-0.5:0.1,0.2"], "u0_segments values must have the input dimension 1"),
        (["u0_segments=-0.5:5.0"], "u0 segment value outside the input box"),
        (["u0_segments=-0.4:0.1"], "first u0 segment must start at -(r + tau)"),
        (["u0_segments=-0.5:0.1; 0:0.1"], "u0 segments must start before time 0"),
        (["r=0", "tau=0", "u0_segments=-0.5:0.1"],
         "u0_segments must be empty when r = tau = 0"),
        # a NaN start fails none of the start tests' comparisons, so only the
        # finiteness check stops it before it reaches the input record
        (["u0_segments=-0.5:0.1; nan:0.2"], "initial data must be finite"),
        (["u0_segments=nan:0.1"], "initial data must be finite"),
    ], ids=["non-finite-x0", "z0-length", "segment-length", "outside-box", "first-start",
            "start-at-0", "delay-free-segments", "nan-later-start", "nan-first-start"])
    def test_initial_data_refusals(self, config_file, tmp_path, capsys, settings, message):
        # simulate and predictor-study check their initial data in one place,
        # InitialData.histories, and refuse it alike before writing anything
        errors = []
        for command, output in (("simulate", "trajectory.csv"),
                                ("predictor-study", "predictor_study.csv")):
            sets = [arg for item in settings for arg in ("--set", item)]
            assert run_cli(command, "--config", config_file, *sets,
                           "--out", tmp_path) == 2
            assert not (tmp_path / output).exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"absorbctl: configuration error: {message}\n"

    @pytest.mark.parametrize("command, setting, output, message", [
        ("simulate", "x0=(100,0)", "trajectory.csv", "simulated state not finite at t="),
        ("simulate", "z0=(1e103,0)", "trajectory.csv", "simulated state not finite at t="),
        ("predictor-study", "x0=(1e103,0)", "predictor_study.csv",
         "predictor study: a state overflowed"),
        ("predictor-study", "x0=(4e102,0)", "predictor_study.csv",
         "predictor study: a state is not finite"),
        ("simulate", "x0=(1e200,0)", "trajectory.csv", "composite norm not finite at t=0.0"),
        ("predictor-study", "x0=(1e200,0)", "predictor_study.csv",
         "predictor study: a state overflowed"),
    ], ids=["x0=(100,0)", "z0=(1e103,0)", "predictor-study", "predictor-study-inf",
            "x0=(1e200,0)", "predictor-study-1e200"])
    def test_runaway_state(self, config_file, tmp_path, capsys, command, setting, output,
                           message):
        # from x0=(100,0) the cubic term overflows within the first span; from
        # z0=(1e103,0) it overflows (as Python's OverflowError) in the predictor
        # at the hold at t = 0, before any span; in the study, at the first f.
        # From x0=(4e102,0) x1 ** 3 is finite but 10 * x1 ** 3 is inf, which
        # raises nothing, and the study's states end in inf and nan.
        # From x0=(1e200,0) the norm of the initial history overflows: the
        # run refuses its first row, and the study overflows at the first f.
        # Each run reports that once, as its exit-3 message, with no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command, "--config", config_file, "--set", setting,
                           "--set", "horizon=1", "--out", tmp_path) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / output).exists()
        assert message in capsys.readouterr().err

    def test_non_finite_margin(self, config_file, tmp_path, monkeypatch):
        build = cli.build_planar_example

        def build_nan_dissipation(*args, **kwargs):
            plant, assm, fn = build(*args, **kwargs)
            return plant, dataclasses.replace(assm, dissipation=lambda x: float("nan")), fn

        monkeypatch.setattr(cli, "build_planar_example", build_nan_dissipation)
        assert run_cli("verify", "--config", config_file, "--out", tmp_path) == 3
        assert not (tmp_path / "verification.json").exists()

    def test_non_finite_level(self, config_file, tmp_path, monkeypatch, capsys):
        # NaN beyond V = 12.5 used to shrink the sampled boxes to that level
        build = cli.build_planar_example

        def build_holed_lyapunov(*args, **kwargs):
            plant, assm, fn = build(*args, **kwargs)

            def lyapunov(x):
                value = assm.lyapunov(x)
                return np.where(value > 12.5, np.nan, value)

            return plant, dataclasses.replace(assm, lyapunov=lyapunov), fn

        monkeypatch.setattr(cli, "build_planar_example", build_holed_lyapunov)
        assert run_cli("verify", "--config", config_file, "--out", tmp_path) == 3
        assert not (tmp_path / "verification.json").exists()
        assert "sublevel_box: level function is nan at point" in capsys.readouterr().err

    @pytest.mark.parametrize("z0, hole, message", [
        ("(1.2,-1.2)", lambda x, v: (1.2 < v) & (v < 1.3), "observer damping is nan at z="),
        ("(0,0)", lambda x, v: x[1] < -0.95, "trajectory column lyap_x not finite at t=0.0"),
    ], ids=["observer-damping", "plant-lyapunov"])
    def test_non_finite_lyapunov_in_a_run(self, config_file, tmp_path, monkeypatch, capsys,
                                          z0, hole, message):
        # V is NaN on a band that z crosses, or at the plant's initial state
        build = cli.build_planar_example

        def build_holed_lyapunov(*args, **kwargs):
            plant, assm, fn = build(*args, **kwargs)

            def lyapunov(x):
                value = assm.lyapunov(x)
                return np.where(hole(np.asarray(x), value), np.nan, value)

            return plant, dataclasses.replace(assm, lyapunov=lyapunov), fn

        monkeypatch.setattr(cli, "build_planar_example", build_holed_lyapunov)
        assert run_cli("simulate", "--config", config_file, "--set", f"z0={z0}",
                       "--out", tmp_path) == 3
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "summary.json").exists()
        assert message in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    # the sampled checks draw their points with absorbctl.halton, so no
    # command, not even verify, needs scipy at run time
    code = ("import sys, absorbctl.cli\n"
            "from absorbctl import SampleSpec, verification as V\n"
            "from absorbctl.planar import build_planar_example\n"
            "plant, assm, _ = build_planar_example(0.01, r=0.25, tau=0.25)\n"
            "for check in (V.check_absorbing_dissipation, V.check_local_controller,\n"
            "              V.check_observer_contraction, V.check_growth_bound,\n"
            "              V.check_corrected_contraction, V.check_corrected_dissipation):\n"
            "    assert check(plant, assm, SampleSpec(300, 0)).passed\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestSimulate:
    def test_outputs_and_determinism(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", config_file, "--out", out_a) == 0
        assert run_cli("simulate", "--config", config_file, "--out", out_b) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        with open(out_a / "trajectory.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,x1,x2,z1,z2,w1,u1,Vx,Vz,norm"
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["max_Vx"] <= 1.0 + 1e-6
        assert summary["config"]["horizon"] == 2.0

    def test_initial_input_segments_accepted(self, config_file, tmp_path):
        assert run_cli("simulate", "--config", config_file,
                       "--set", "u0_segments=-0.5:0.1; -0.2:-0.1",
                       "--set", "horizon=1.0", "--out", tmp_path) == 0

    def test_horizon_shorter_than_delay_window(self, config_file, tmp_path):
        # horizon 0.2 < r = 0.25: the summary still reads the last row's norm
        assert run_cli("simulate", "--config", config_file,
                       "--set", "horizon=0.2", "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["terminal_norm"] > 0.0

    def test_delay_free_loop(self, config_file, tmp_path):
        assert run_cli("simulate", "--config", config_file,
                       "--set", "r=0", "--set", "tau=0",
                       "--set", "horizon=1.0", "--out", tmp_path) == 0


class TestAnalysisCommands:
    def test_predictor_study(self, config_file, tmp_path):
        assert run_cli("predictor-study", "--config", config_file,
                       "--out", tmp_path) == 0
        with open(tmp_path / "predictor_study.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["N"]) for row in rows] == [8, 16, 32, 64]
        errs = [float(row["error"]) for row in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_predictor_study_starts_from_a_table_last_row(self, tmp_path):
        # the study predicts from x(0); for an x0 table, a library-only
        # setting, that is the table's last row
        outputs = []
        for x0 in (((-0.25, -0.1, 0.0), ((0.2, 0.3), (0.9, 0.0), (1.0, -1.0))), (1.0, -1.0)):
            out = tmp_path / str(len(outputs))
            out.mkdir()
            assert cli.cmd_predictor_study({**DEFAULTS, "x0": x0}, out) == 0
            outputs.append((out / "predictor_study.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_verify_passes_at_default_settings(self, config_file, tmp_path):
        assert run_cli("verify", "--config", config_file, "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "verification.json").read_text())
        assert payload["zeta_bound_pass"] is True
        assert payload["all_pass"] is True
        assert len(payload["checks"]) == 6
        assert all(c["pass"] for c in payload["checks"])
        # only the growth bound finds no admissible point
        assert {c["name"]: c["vacuous"] for c in payload["checks"]} == {
            "absorbing_dissipation": False, "local_controller": False,
            "observer_contraction": False, "observer_growth_bound": True,
            "corrected_contraction": False, "corrected_dissipation": False}

    def test_sweep_reports_all_runs(self, config_file, tmp_path):
        # 2-second runs cannot hit the decay target, so the sweep fails but
        # still records every seed
        code = run_cli("sweep", "--config", config_file, "--out", tmp_path)
        assert code == 1
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["runs"]) == 20
        assert payload["all_pass"] is False
        assert [run["seed"] for run in payload["runs"]] == list(range(20))
        assert sha256(tmp_path / "sweep.json") == SWEEP_DIGEST

    def test_tune_exhausts_grid(self, config_file, tmp_path):
        code = run_cli("tune", "--config", config_file, "--out", tmp_path)
        assert code == 1
        payload = json.loads((tmp_path / "tune.json").read_text())
        assert payload["passed"] is False
        assert payload["triple"] is None
        assert len(payload["attempts"]) == len(TUNE_GRID)
        assert sha256(tmp_path / "tune.json") == TUNE_DIGEST

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from absorbctl import ConfigurationError, cli
from absorbctl.cli import DEFAULTS, TUNE_GRID, load_settings, main


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "loop.cfg"
    path.write_text("# planar demo\nzeta = 0.01\nhorizon = 2.0\n")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


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

    def test_non_finite_initial_state(self, config_file, tmp_path):
        assert run_cli("simulate", "--config", config_file,
                       "--set", "x0=(nan, 0)", "--out", tmp_path) == 2
        assert not (tmp_path / "trajectory.csv").exists()

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

    @pytest.mark.parametrize("command, output", [("simulate", "trajectory.csv"),
                                                 ("predictor-study", "predictor_study.csv")])
    def test_wrong_length_input_segment(self, config_file, tmp_path, command, output):
        # the planar plant has one input; a two-component value is refused
        assert run_cli(command, "--config", config_file, "--set", "u0_segments=-0.5:0.1,0.2",
                       "--set", "horizon=1", "--out", tmp_path) == 2
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("command, setting, output, message", [
        ("simulate", "x0=(100,0)", "trajectory.csv", "simulated state not finite at t="),
        ("simulate", "z0=(1e103,0)", "trajectory.csv", "simulated state not finite at t="),
        ("predictor-study", "x0=(1e103,0)", "predictor_study.csv",
         "predictor study: a state overflowed"),
        ("predictor-study", "x0=(4e102,0)", "predictor_study.csv",
         "predictor study: a state is not finite"),
    ], ids=["x0=(100,0)", "z0=(1e103,0)", "predictor-study", "predictor-study-inf"])
    def test_runaway_state(self, config_file, tmp_path, capsys, command, setting, output,
                           message):
        # from x0=(100,0) the cubic term overflows within the first span; from
        # z0=(1e103,0) it overflows (as Python's OverflowError) in the predictor
        # at the hold at t = 0, before any span; in the study, at the first f.
        # From x0=(4e102,0) x1 ** 3 is finite but 10 * x1 ** 3 is inf, which
        # raises nothing, and the study's states end in inf and nan.
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


def test_import_leaves_scipy_stats_unloaded():
    # only the sampled checks need scipy.stats, and they import it on first use
    code = ("import sys, absorbctl.cli\n"
            "from absorbctl.planar import build_planar_example\n"
            "build_planar_example(0.01, r=0.25, tau=0.25)\n"
            "print('scipy.stats' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


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

    def test_tune_exhausts_grid(self, config_file, tmp_path):
        code = run_cli("tune", "--config", config_file, "--out", tmp_path)
        assert code == 1
        payload = json.loads((tmp_path / "tune.json").read_text())
        assert payload["passed"] is False
        assert payload["triple"] is None
        assert len(payload["attempts"]) == len(TUNE_GRID)

"""Command-line front end.

``absorbctl <command> --config <path> [--set k=v]... [--out <dir>]``

Commands: ``simulate`` (one closed-loop run -> trajectory CSV + summary
JSON), ``verify`` (all certificate checks -> combined JSON, exit 0 iff all
pass), ``predictor-study`` (step-count vs error CSV), ``sweep`` (one run
per partition seed, exit 0 iff all meet the decay bar), ``tune`` (grid
search for workable loop parameters).

Exit codes: 0 success / all-pass, 1 a check or criterion failed,
2 configuration problem, 3 runtime failure.  Outputs depend only on the
configuration, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import (ConfigurationError, CoverageError, DegenerateGradientError,
                     InsufficientDataError, NonFiniteError)
from .model import SimConfig
from .planar import build_planar_example
from .predictor import predictor_convergence_study
from .simulator import (InitialData, generate_partition, pilot_tune, run_summary,
                        simulate_closed_loop, sweep)
from .verification import (SampleSpec, check_absorbing_dissipation,
                           check_corrected_contraction, check_corrected_dissipation,
                           check_growth_bound, check_local_controller,
                           check_observer_contraction, _run_checks)

DEFAULTS: dict = {
    "zeta": 0.01,
    "b": 1.5,
    "c": 0.5,
    "r": 0.25,
    "tau": 0.25,
    "T_s": 0.01,
    "T_H": 0.05,
    "N": 64,
    "horizon": 40.0,
    "dt_max": 1e-3,
    "record_dt": 0.05,
    "seed": 0,
    "x0": (1.0, -1.0),
    "z0": (0.0, 0.0),
    "u0_segments": (),
    "min_frac": 0.5,
}

SWEEP_SEEDS = 20  # partition seeds per `sweep`, counting up from `seed`

# the default grid for `tune`: coarser and finer sampling/hold periods
# crossed with cheap and accurate predictor step counts
TUNE_GRID = [(T_s, T_H, N)
             for T_s in (0.01, 0.02)
             for T_H in (0.05, 0.1)
             for N in (16, 64)]


def _parse_vector(raw: str) -> tuple:
    body = raw.strip().strip("()[]")
    if not body:
        raise ConfigurationError("empty vector value")
    try:
        return tuple(float(part) for part in body.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad vector {raw!r}: {exc}") from None


def _parse_segments(raw: str) -> tuple:
    segments = []
    for piece in raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ConfigurationError(
                f"bad input segment {piece!r}, expected 'start:value'"
            )
        t_str, v_str = piece.split(":", 1)
        try:
            t_start = float(t_str)
        except ValueError as exc:
            raise ConfigurationError(f"bad segment start {t_str!r}: {exc}") from None
        segments.append((t_start, _parse_vector(v_str)))
    return tuple(segments)


def _parse_value(key: str, raw: str):
    """Parse ``raw`` as the type of the key's default value."""
    raw = raw.strip()
    if key == "u0_segments":
        return _parse_segments(raw)
    default = DEFAULTS[key]
    if isinstance(default, tuple):
        return _parse_vector(raw)
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r} expects a {type(default).__name__}: "
                                 f"{exc}") from None


def _apply_assignment(settings: dict, line: str, origin: str) -> None:
    if "=" not in line:
        raise ConfigurationError(f"{origin}: expected 'key = value', got {line!r}")
    key, raw = line.split("=", 1)
    key = key.strip()
    if key not in DEFAULTS:
        raise ConfigurationError(f"{origin}: unknown configuration key: {key!r}")
    settings[key] = _parse_value(key, raw)


def load_settings(config_path: str, overrides: list[str]) -> dict:
    """Defaults, then the config file, then ``--set`` flags."""
    settings = dict(DEFAULTS)
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{config_path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        _apply_assignment(settings, line, f"{config_path}:{lineno}")
    for item in overrides:
        _apply_assignment(settings, item, f"--set {item!r}")
    return settings


def _build_model(settings: dict):
    """``(plant, assm)``; the example's third item only repeats ``assm``'s ramp."""
    return build_planar_example(settings["zeta"], b_level=settings["b"],
                                c_frac=settings["c"], r=settings["r"],
                                tau=settings["tau"])[:2]


def _sim_config(settings: dict) -> SimConfig:
    return SimConfig(T_H=settings["T_H"], N=settings["N"],
                     horizon=settings["horizon"], dt_max=settings["dt_max"],
                     seed=settings["seed"], record_dt=settings["record_dt"])


def _initial_data(settings: dict) -> InitialData:
    return InitialData(x0=settings["x0"], z0=settings["z0"],
                       u0_segments=settings["u0_segments"])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(settings: dict, out_dir: Path) -> int:
    plant, assm = _build_model(settings)
    config = _sim_config(settings)
    init = _initial_data(settings)
    partition = generate_partition(settings["T_s"], config.horizon, config.seed,
                                   settings["min_frac"])
    traj = simulate_closed_loop(plant, assm, partition, config, init)
    traj.write_csv(out_dir / "trajectory.csv")
    _write_json(out_dir / "summary.json", run_summary(traj, config))
    return 0


def cmd_verify(settings: dict, out_dir: Path) -> int:
    plant, assm = _build_model(settings)
    # named here, per call, so that a check patched on this module is the one run
    checks = [check_absorbing_dissipation, check_local_controller, check_observer_contraction,
              check_growth_bound, check_corrected_contraction, check_corrected_dissipation]
    reports = _run_checks(checks, plant, assm, SampleSpec(seed=settings["seed"]))
    all_pass = all(rep.passed for rep in reports)
    _write_json(out_dir / "verification.json", {
        "zeta": settings["zeta"],
        "zeta_bound_pass": True,  # _build_model refuses a zeta beyond the bound
        "checks": [rep.to_dict() for rep in reports],
        "all_pass": all_pass,
    })
    return 0 if all_pass else 1


def cmd_predictor_study(settings: dict, out_dir: Path) -> int:
    plant, _assm = _build_model(settings)
    xhist, hist = _initial_data(settings).histories(plant)
    study = predictor_convergence_study(plant, xhist.value(0.0), hist, N_list=[8, 16, 32, 64])
    with open(out_dir / "predictor_study.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "error"])
        for N, err in study:
            writer.writerow([N, f"{err:.17g}"])
    return 0


def cmd_sweep(settings: dict, out_dir: Path) -> int:
    plant, assm = _build_model(settings)
    seeds = range(settings["seed"], settings["seed"] + SWEEP_SEEDS)
    configs = [(settings["T_s"], replace(_sim_config(settings), seed=seed)) for seed in seeds]
    results = sweep(plant, assm, _initial_data(settings), configs, settings["min_frac"])
    runs = [{"seed": summary["partition_seed"], "terminal_ratio": ratio, "passed": ok,
             **summary} for _traj, summary, ratio, ok in results]
    all_pass = all(run["passed"] for run in runs)
    _write_json(out_dir / "sweep.json", {"runs": runs, "all_pass": all_pass})
    return 0 if all_pass else 1


def cmd_tune(settings: dict, out_dir: Path) -> int:
    plant, assm = _build_model(settings)
    result = pilot_tune(plant, assm, _initial_data(settings), TUNE_GRID,
                        _sim_config(settings), settings["min_frac"])
    _write_json(out_dir / "tune.json", asdict(result))
    return 0 if result.passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "predictor-study": cmd_predictor_study,
    "sweep": cmd_sweep,
    "tune": cmd_tune,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorbctl",
        description="Simulate and verify sampled-data stabilization of "
                    "delayed nonlinear plants with an absorbing set.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="key = value settings file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one setting (repeatable)")
        cmd.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = load_settings(args.config, args.set)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](settings, out_dir)
    except (ConfigurationError, OSError) as exc:
        print(f"absorbctl: configuration error: {exc}", file=sys.stderr)
        return 2
    except (CoverageError, DegenerateGradientError, InsufficientDataError,
            NonFiniteError) as exc:
        print(f"absorbctl: runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""absorbctl benchmark.

    python3 bench/run.py --workload simulate --seed 0 --seconds 30 --trace 0

Each workload is a closed loop of one caller: one process and one thread run
one ``absorbctl`` command after another through ``absorbctl.cli.main``.
The ``--seed`` value picks the workload seed (the partition seed for the
``simulate`` runs, the Halton seed for ``verify``) among the seeds with a
committed reference in ``reference.json``; every command's outputs are
checked against it.

With ``--trace 0`` the end-to-end metrics are reported, measured with no
tracing; command times are given at the reference speed of
``speedprobe.py``, because the host's speed drifts too much for raw times
to compare across runs (their medians are printed as comments).  With
``--trace 1`` the per-layer metrics of ``tracing.py`` are reported, raw.
``--workload all`` runs every workload in its own process and prints all
of their metrics.  Every metric is printed as ``<workload> <name> = <value>
<unit>``; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported at run time only after THREAD_ENV is set
    from speedprobe import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# one thread: keep numpy's BLAS from starting a pool of its own
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

FAST_HOLD = ("T_H=0.01", "dt_max=0.01", "N=256", "horizon=20")
# workload -> (command, extra --set overrides, simulated seconds per run)
WORKLOADS = {
    "simulate": ("simulate", (), 40.0),
    "fast_hold": ("simulate", FAST_HOLD, 20.0),
    "verify": ("verify", (), None),
}
REFERENCE_SEEDS = 16
REL_TOL = 1e-12        # ROADMAP's bound for arithmetic-order changes
MIN_TIMED = 2          # timed commands per untraced run, however short --seconds is
SETUP_REPEATS = 5

# fresh interpreter start, the CLI import and the default example's build
SETUP_SNIPPET = (
    "import absorbctl, absorbctl.cli\n"
    "from absorbctl.planar import build_planar_example\n"
    "build_planar_example(0.01, b_level=1.5, c_frac=0.5, r=0.25, tau=0.25)\n"
    "print(absorbctl.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here, for instance because the checkout
    holds no absorbctl sources."""


def import_cli():
    """Import ``absorbctl.cli`` from this checkout's ``src`` directory."""
    if not (SRC / "absorbctl" / "__init__.py").is_file():
        raise BenchError(f"no absorbctl package under {SRC}")
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import absorbctl
    from absorbctl import cli
    if Path(absorbctl.__file__).resolve().parent != SRC / "absorbctl":
        raise BenchError(f"absorbctl was imported from {absorbctl.__file__}")
    return cli


def workload_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def command_args(workload: str, wseed: int, out_dir: Path) -> list[str]:
    command, overrides, _ = WORKLOADS[workload]
    args = [command, "--config", str(out_dir / "bench.cfg"), "--out", str(out_dir),
            "--set", f"seed={wseed}"]
    for item in overrides:
        args += ["--set", item]
    return args


def prepare(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench.cfg").write_text("")


def run_command(cli, workload: str, wseed: int, out_dir: Path,
                probe: SpeedProbe | None = None) -> tuple[float, dict]:
    """Run one command; return its wall time and the digest of its outputs.
    With a ``probe`` the machine's speed is sampled while the command runs,
    and the time returned is the command's own at the reference speed."""
    for name in ("trajectory.csv", "summary.json", "verification.json"):
        (out_dir / name).unlink(missing_ok=True)
    args = command_args(workload, wseed, out_dir)
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    try:
        rc = cli.main(args)
    finally:
        wall = time.perf_counter() - t0
        if probe is not None:
            probe.stop()
    if probe is not None:
        wall = probe.at_reference_speed(wall)
    return wall, digest(workload, out_dir, rc)


def digest(workload: str, out_dir: Path, rc: int) -> dict:
    """The parts of a command's outputs that the reference pins."""
    if WORKLOADS[workload][0] == "verify":
        data = json.loads((out_dir / "verification.json").read_text())
        return {"rc": rc, "all_pass": data["all_pass"],
                "checks": [{key: check[key] for key in
                            ("name", "pass", "points_tested", "skipped", "worst_margin")}
                           for check in data["checks"]]}
    raw = (out_dir / "trajectory.csv").read_bytes()
    lines = raw.decode().splitlines()
    return {"rc": rc, "rows": len(lines) - 1,
            "terminal": [float(v) for v in lines[-1].split(",")],
            "summary": json.loads((out_dir / "summary.json").read_text()),
            "csv_sha256": hashlib.sha256(raw).hexdigest()}


def work_done(workload: str, got: dict) -> float:
    """Simulated seconds, or sampled candidates (tested plus skipped)."""
    horizon = WORKLOADS[workload][2]
    if horizon is not None:
        return horizon
    return float(sum(c["points_tested"] + c["skipped"] for c in got["checks"]))


def mismatches(got, ref, path: str = "") -> list[str]:
    """Where ``got`` differs from ``ref``: integers, flags and strings
    exactly, floats within ``REL_TOL`` relative.  The CSV digest is
    informational only."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for key in ref if key != "csv_sha256"
                for m in mismatches(got[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in mismatches(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        if got == ref or abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)):
            return []
    elif type(got) is type(ref) and got == ref:
        return []
    return [f"{path}: {got!r} != {ref!r}"]


class Loop:
    """One caller running commands back to back, with every output checked."""

    def __init__(self, cli, workload: str, seed: int, reference: dict,
                 probe: SpeedProbe | None = None):
        self.cli = cli
        self.probe = probe
        self.workload = workload
        self.wseed = workload_seed(seed)
        self.ref = reference[workload][str(self.wseed)]
        self.out_dir = OUT / workload
        self.attempted = 0
        self.failed = 0
        prepare(self.out_dir)

    def run(self):
        """Run one command; return ``(wall, work)``, or ``None`` if it failed."""
        self.attempted += 1
        try:
            wall, got = run_command(self.cli, self.workload, self.wseed, self.out_dir,
                                    self.probe)
        except Exception:  # a failed command is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        bad = mismatches(got, self.ref)
        if bad:
            print(f"{self.workload} seed {self.wseed}: reference mismatch: "
                  + "; ".join(bad[:5]), file=sys.stderr)
            self.failed += 1
            return None
        return wall, work_done(self.workload, got)


def _keep_going(started: float, seconds: float, done: int, last_wall: float,
                minimum: int = MIN_TIMED) -> bool:
    """Start another command only if it should end within the run's budget."""
    if done < minimum:
        return True
    return time.perf_counter() - started + last_wall <= seconds


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building
    the default example.  It is raw: scaled by kernel samples taken around
    each start it spread more, not less (see README.md)."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        if Path(proc.stdout.strip()).resolve().parent != SRC / "absorbctl":
            raise BenchError(f"set-up imported {proc.stdout.strip()}")
    return statistics.median(times)


def end_to_end(loop: Loop, seconds: float) -> dict:
    started = time.perf_counter()
    loop.run()  # warm-up: checked, not timed
    samples, raw = [], []
    last_wall = time.perf_counter() - started
    while _keep_going(started, seconds, len(raw), last_wall):
        t0 = time.perf_counter()
        result = loop.run()
        last_wall = time.perf_counter() - t0
        raw.append(last_wall)
        if result is not None:
            samples.append(result)
    if not samples:
        return {}
    wall = statistics.median(w for w, _ in samples)
    rate = statistics.median(work / w for w, work in samples)
    print(f"# {loop.workload}: {len(samples)} timed commands after one warm-up; "
          f"raw median wall {statistics.median(raw):.4f} s")
    return {"wall_s": (wall, "s"), "work_per_s": (rate, "work/s")}


def per_layer(loop: Loop, seconds: float) -> dict:
    from tracing import Tracer, traced

    started = time.perf_counter()
    loop.run()  # warm-up
    plain, layer_runs, timed, last_wall = [], [], 0, 0.0
    # counts repeat exactly, so one traced command is enough when time is short
    while _keep_going(started, seconds, timed, last_wall, minimum=1):
        t0 = time.perf_counter()
        base = loop.run()
        tracer = Tracer()
        with traced(tracer):
            result = loop.run()
        last_wall = time.perf_counter() - t0
        timed += 1
        if base is not None and result is not None:
            plain.append(base[0])
            layer_runs.append((result[0], tracer.metrics()))
    if not layer_runs:
        return {}
    print(f"# {loop.workload}: {len(layer_runs)} traced commands, each after an "
          "untraced one")
    metrics = {name: (statistics.median_low(run[name][0] for _, run in layer_runs), unit)
               for name, (_, unit) in layer_runs[0][1].items()}
    overhead = statistics.median(w for w, _ in layer_runs) / statistics.median(plain)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    cli = import_cli()
    from speedprobe import SpeedProbe
    setup = None if trace else measure_setup()
    loop = Loop(cli, workload, seed, reference, None if trace else SpeedProbe())
    try:
        if trace:
            metrics = per_layer(loop, seconds)
        else:
            metrics = end_to_end(loop, seconds)
            metrics["setup_s"] = (setup, "s")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss_mb, "MB")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    fail_frac = loop.failed / loop.attempted
    print(f"{workload} fail_frac = {fail_frac:.6g} ratio "
          f"({loop.failed} of {loop.attempted} commands)")
    return {"correct": loop.failed == 0 and bool(metrics),
            "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in a fresh process of its own; metrics prefixed by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            for name, metric in result["metrics"].items():
                print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

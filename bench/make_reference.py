"""Write ``reference.json``: the pinned outputs of every workload for every
workload seed the benchmark can pick.

    python3 bench/make_reference.py

Regenerate only in a change that alters the program's arithmetic on
purpose, and record the measured deviation from the old reference there.
"""

from __future__ import annotations

import json
import shutil

import run


def main() -> int:
    cli = run.import_cli()
    reference = {}
    try:
        for workload in run.WORKLOADS:
            out_dir = run.OUT / workload
            run.prepare(out_dir)
            reference[workload] = {}
            for wseed in range(run.REFERENCE_SEEDS):
                wall, got = run.run_command(cli, workload, wseed, out_dir)
                reference[workload][str(wseed)] = got
                print(f"{workload} seed {wseed}: {wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

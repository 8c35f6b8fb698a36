"""Golden record of the default ``simulate`` and ``verify`` runs.

The sha256 of ``trajectory.csv`` and ``summary.json`` for partition seeds
0-2 of the default configuration, and of ``verification.json`` for sample
seeds 0-2.  A refactor must keep these bytes; a change that alters the
arithmetic order on purpose updates the digests in the same change and
records the measured deviation of the terminal state.
"""

import hashlib

import pytest

from absorbctl.cli import main

GOLDEN = {
    0: ("af13a7f9bde8396b32ccbe50405ae7a2a2da15968281f6b505cbd4d1d41614a3",
        "2addd9a416ad710f81bf651baee62dcb1e5e4d9ba871c53c21f5d177120dd764"),
    1: ("c760e6313f272a538071a877c77e38e5bd53476359b34533541b5ee099fd47f6",
        "ceb010c6a787af1e2fb973a026304931452690dba84cf00acc32cf66658e6764"),
    2: ("5e57888dd70bde190c7d68da17d092630bd14edcf0c6e2f4b9c7970336778062",
        "24b93e7edd2c40057428ba83c7f2b41ca2bb7919c303c046009f649726d41f5c"),
}

GOLDEN_VERIFY = {
    0: "e2cea55fe73e4c5da7f3b91f48d4cf47434c82e82d2fa70a92b3092859aa868b",
    1: "1a1ccc0c22e3c462984d8021e5e66f80d0b1b6c93b8f0e330351e7b13cdcabd6",
    2: "825e2465473d34c325b85326f96cf72fae74ed08731cfc60027e4a84ac8ff6d9",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_default_run_matches_golden_digest(tmp_path, seed):
    config = tmp_path / "default.cfg"
    config.write_text("")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--set", f"seed={seed}",
                 "--out", str(out)]) == 0
    csv_digest, summary_digest = GOLDEN[seed]
    assert _sha256(out / "trajectory.csv") == csv_digest
    assert _sha256(out / "summary.json") == summary_digest


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY))
def test_default_verify_matches_golden_digest(tmp_path, seed):
    config = tmp_path / "default.cfg"
    config.write_text("")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--set", f"seed={seed}",
                 "--out", str(out)]) == 0
    assert _sha256(out / "verification.json") == GOLDEN_VERIFY[seed]

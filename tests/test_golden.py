"""Golden record of the default ``simulate`` and ``verify`` runs.

The sha256 of ``trajectory.csv`` and ``summary.json`` for partition seeds
0-2 of the default configuration and for seed 0 of a fast-hold
configuration, and of ``verification.json`` for sample seeds 0-2.  A
refactor must keep these bytes; a change that alters the arithmetic order
on purpose updates the digests in the same change and records the
measured deviation of the terminal state.
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

# a hold every 0.01 s with N=256: most Euler steps of the predictor straddle
# or end on an input segment start, unlike the default configuration's
FAST_HOLD = ("T_H=0.01", "dt_max=0.01", "N=256", "horizon=20")
GOLDEN_FAST_HOLD = {
    0: ("34e236412ff9afadc0b23dcb460e8d19a7e8b7139919e61cc1b7cf752ff4e0d8",
        "f6cfc923ea06a5a40151e16688bbd45c88f8db35cfc7a1ca497e5157b9f16d38"),
}

GOLDEN_VERIFY = {
    0: "e2cea55fe73e4c5da7f3b91f48d4cf47434c82e82d2fa70a92b3092859aa868b",
    1: "1a1ccc0c22e3c462984d8021e5e66f80d0b1b6c93b8f0e330351e7b13cdcabd6",
    2: "825e2465473d34c325b85326f96cf72fae74ed08731cfc60027e4a84ac8ff6d9",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_simulate(tmp_path, seed, overrides, digests):
    config = tmp_path / "default.cfg"
    config.write_text("")
    out = tmp_path / "out"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["simulate", "--config", str(config), "--set", f"seed={seed}",
                 *sets, "--out", str(out)]) == 0
    csv_digest, summary_digest = digests
    assert _sha256(out / "trajectory.csv") == csv_digest
    assert _sha256(out / "summary.json") == summary_digest


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_default_run_matches_golden_digest(tmp_path, seed):
    _check_simulate(tmp_path, seed, (), GOLDEN[seed])


@pytest.mark.parametrize("seed", sorted(GOLDEN_FAST_HOLD))
def test_fast_hold_run_matches_golden_digest(tmp_path, seed):
    _check_simulate(tmp_path, seed, FAST_HOLD, GOLDEN_FAST_HOLD[seed])


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY))
def test_default_verify_matches_golden_digest(tmp_path, seed):
    config = tmp_path / "default.cfg"
    config.write_text("")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--set", f"seed={seed}",
                 "--out", str(out)]) == 0
    assert _sha256(out / "verification.json") == GOLDEN_VERIFY[seed]

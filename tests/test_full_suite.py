"""Argument checks of ``scripts/run_full_suite.py``."""

from pathlib import Path

import pytest

from helpers import run_python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_suite.py"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "argument --seed: must be >= 0 and < 2**64, got -1"),
        ("--seed", str(2**64), f"argument --seed: must be >= 0 and < 2**64, got {2**64}"),
        ("--jobs", "0", "argument --jobs: must be >= 1, got 0"),
    ],
    ids=["seed-negative", "seed-2**64", "jobs-0"],
)
def test_bad_seed_or_jobs_is_a_usage_error_before_any_output(tmp_path, flag, value, message):
    out = tmp_path / "results"
    proc = run_python([str(SCRIPT), "--out", str(out), flag, value], timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.rstrip().endswith(message)
    assert proc.stdout == ""
    assert not out.exists()

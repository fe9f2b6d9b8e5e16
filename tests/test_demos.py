"""Every demo script runs to completion against the package in ``src`` and
prints exactly its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  A construction refactor must leave these
# unchanged; update one only for a deliberate change to that demo's output.
STDOUT_SHA256 = {
    "01_equal_cache_tradeoff.py":
        "5109b57d9b46ddd09afcde7c3a12f74a4e56501fda619a7b2ced56a1d7ab2cdf",
    "02_worked_example.py":
        "eecbc2eb67d5b2b970e863574c431c0b5571fd55a1b7ff72f086b872d8ad6f4f",
    "03_two_level_sweep.py":
        "55a372daa08c376cf0f52afa87af07f54ec59361f3985375600c461383930ee3",
    "04_bit_exact_verification.py":
        "65f9432df23dc8abd2b8c72dc013cf4d9b535c22c48678ce5ce7e1e0b04a1ff6",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]

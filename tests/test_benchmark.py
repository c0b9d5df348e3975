"""The benchmark's own self-test, run against the program under test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # the output checks must pass on true outputs and catch corrupted ones,
    # and every hook the traced runs attach must be removable
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: all cases behave" in proc.stdout

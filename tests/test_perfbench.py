"""The benchmark harness's self-tests, run as its own script.

They pin the per-record call counts of a traced `ipt` request, so a change
to how often the IPT layer builds or solves fails here too.
"""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftests_pass():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

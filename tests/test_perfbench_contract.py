"""The benchmark traces the program from outside, by module attribute.

perfbench/selftest.py runs a few epoch-one and shared steps under that
trace and checks that every stage it names is still traced inside its
step and that its oracle accepts the steps.  Renaming a traced function
or dropping a stage fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

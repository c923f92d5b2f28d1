"""The benchmark traces the program from outside, by module attribute.

perfbench/selftest.py runs a few epoch-one and shared steps under that
trace and checks that every stage it names is still traced inside its
step and that its oracle accepts the steps.  Renaming a traced function
or dropping a stage fails here, not only when the benchmark runs.  One
untraced run of the smallest workload covers what its end-to-end
metrics rely on: loading the config and data, building the network,
training, and reading the coefficient table back.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_untraced_run_completes_without_failures():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mlp-b128",
                           "--seed", "1", "--seconds", "0", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result
    assert result["attempted"] > 0, result

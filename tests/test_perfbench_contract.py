"""The benchmark traces the program from outside, by module attribute.

perfbench/selftest.py runs a few epoch-one and shared steps under that
trace and checks that every stage it names is still traced inside its
step and that its oracle accepts the steps.  Renaming a traced function
or dropping a stage fails here, not only when the benchmark runs.  One
untraced run of the smallest workload covers what its end-to-end
metrics rely on: loading the config and data, building the network,
training, and reading the coefficient table back.  One traced run of it
covers what the traced route reads from a loaded config and checks
against its oracle on every epoch-one step.
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


def _run_smallest_workload(trace: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mlp-b128",
                           "--seed", "1", "--seconds", "0", "--trace", trace], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_perfbench_untraced_run_completes_without_failures():
    result = _run_smallest_workload("0")
    assert result["failed"] == 0, result
    assert result["attempted"] > 0, result


def test_perfbench_traced_run_is_correct_with_no_late_gram_or_solve():
    result = _run_smallest_workload("1")
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["metrics"]["trace.late_gram_solve_calls"]["value"] == 0, result

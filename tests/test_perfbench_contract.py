"""The benchmark traces the program from outside, by module attribute.

perfbench/selftest.py runs a few epoch-one and shared steps under that
trace and checks that every stage it names is still traced inside its
step and that its oracle accepts the steps.  Renaming a traced function
or dropping a stage fails here, not only when the benchmark runs.  One
untraced run of the smallest workload covers what its end-to-end
metrics rely on: loading the config and data, building the network,
training, and reading the coefficient table back.  One traced run of it
and one of the conv workload cover what the traced route reads from a
loaded config and check against its oracle on every epoch-one step,
the conv run through im2col, the conv Gram and the explicit-U step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The children write no bytecode into the checkout: a later benchmark run
# there would otherwise load it and read a different peak_rss_mb.
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _run_workload(trace: str, workload: str = "mlp-b128") -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", trace], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_perfbench_untraced_run_completes_without_failures():
    result = _run_workload("0")
    assert result["failed"] == 0, result
    assert result["attempted"] > 0, result


@pytest.mark.parametrize("workload", ["mlp-b128", "conv-b64"])
def test_perfbench_traced_run_is_correct_with_no_late_gram_or_solve(workload):
    result = _run_workload("1", workload)
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["metrics"]["trace.late_gram_solve_calls"]["value"] == 0, result
    assert result["metrics"]["nn.weight_gradients_n"]["value"] > 0, result

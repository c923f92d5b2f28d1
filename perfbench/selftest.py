"""Self-test of the benchmark's oracle and trace, on tiny shapes.

    python3 perfbench/selftest.py

Shows that the oracle accepts the program's epoch-one and shared steps
and rejects them once the coefficients are perturbed by one part in a
million; that in each step kind every stage named in README.md is traced,
nested in order inside the step, and how much of the step they cover;
and that no Gram or solve runs inside a shared step.
Prints one PASS/FAIL line per check; exits 1 if any fails.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

from measure import Tally
from run import import_program
from tracing import STEP_KINDS, Follower, Tracer, enclosing_step

PERTURB = 1e-6
# On these tiny shapes the step's own Python (argument checks, dict
# lookups) weighs more than on the workloads, where the traced run reports
# the coverage; this floor only catches a stage that went missing.
MIN_COVERAGE = 0.8
# Steps per phase; coverage is summed over them, so one step that the host
# interrupts cannot fail the check.
STEPS = 8
EPOCH_ONE_STAGES = {"nn.forward", "nn.backward", "persample.gram_dense",
                    "persample.build_u_conv", "persample.gram_conv", "core.damping_lambda",
                    "core.coefficients", "core.precondition", "core._apply_update"}
SHARED_STAGES = {"nn.forward", "nn.backward", "core.precondition", "core._apply_update"}


def tiny_network(nn):
    """conv 1->2 k3 same on 1x5x5, relu, dense 50->3: both capture kinds."""
    rng = np.random.default_rng(7)
    conv = nn.Conv2d.create(1, 2, 3, "same", 5, 5, rng)
    dense = nn.Dense.create(conv.flat_out, 3, rng)
    return nn.Network([conv, nn.Relu(), dense], "cross_entropy")


def run_steps(program: dict, perturb: float) -> tuple[Tally, Tracer]:
    """STEPS epoch-one steps and STEPS shared steps under the tracer, followed
    by the oracle as in a traced run; coefficients scaled by (1 + perturb)."""
    core = program["core"]
    net = tiny_network(program["nn"])
    rng = np.random.default_rng(11)
    batches = [(rng.random((25, 8)), rng.integers(0, 3, 8)) for _ in range(2 * STEPS)]
    rule = core.DampingRule(alpha=0.05)
    table = core.CoefficientTable()
    tally = Tally()
    shape = SimpleNamespace(steps_per_epoch=STEPS, epochs=2)
    follower = Follower(shape, SimpleNamespace(optim=SimpleNamespace(
        alpha=rule.alpha, lam_floor=rule.floor)), tally)
    original = core.coefficients
    tracer = Tracer(program)
    core.coefficients = lambda stats, lam: original(stats, lam) * (1.0 + perturb)
    try:
        with tracer.installed():
            tracer.run = 0
            tracer.step_hook = follower
            for x, y in batches[:STEPS]:
                core.epoch_one_step(net, x, y, table, 0.1, rule)
            table.finalize()
            for x, y in batches[STEPS:]:
                core.shared_step(net, x, y, table, 0.1)
    finally:
        core.coefficients = original
    follower.finish(SimpleNamespace(table=table))
    return tally, tracer


def main() -> int:
    program = import_program()
    results = []

    good, tracer = run_steps(program, 0.0)
    results.append(("oracle accepts unperturbed steps", good.failed == 0,
                    f"{good.failed} of {good.attempted} checks failed"))
    bad, _ = run_steps(program, PERTURB)
    results.append(("oracle rejects coefficients perturbed by 1e-6",
                    bad.failed == bad.attempted,
                    f"{bad.failed} of {bad.attempted} checks failed"))

    spans = tracer.spans
    for step_name, stages in (("core.epoch_one_step", EPOCH_ONE_STAGES),
                              ("core.shared_step", SHARED_STAGES)):
        steps = [idx for idx, s in enumerate(spans) if s.name == step_name]
        covered = total = 0.0
        complete = True
        for idx in steps:
            step = spans[idx]
            children = [s for s in spans if s.parent == idx]
            covered += sum(s.seconds for s in children)
            total += step.seconds
            complete &= (stages <= {s.name for s in children}
                         and all(step.start <= c.start <= c.end <= step.end for c in children)
                         and all(a.end <= b.start for a, b in zip(children, children[1:])))
        results.append((
            f"{STEP_KINDS[step_name]} step stages cover the step",
            complete and covered >= MIN_COVERAGE * total,
            f"{len(steps)} steps: every stage traced, in order inside its step; "
            f"stages {covered * 1e3:.3f} of {total * 1e3:.3f} ms ({covered / total:.0%})",
        ))
    late = [s.name for s in spans if s.name.startswith(("persample.", "linalg."))
            and enclosing_step(spans, s) == "core.shared_step"]
    results.append(("no Gram or solve inside a shared step", not late, f"{late}"))

    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())

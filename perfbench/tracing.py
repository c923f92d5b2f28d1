"""Outside-in layer trace of fngd training, and the per-layer metrics.

The program is not edited: `Tracer.installed()` replaces attributes of
the modules data, nn, persample, linalg, core and train with wrappers that
record a span (name, parent, start, end) around each call, and restores
them afterwards.  The program calls these functions through their modules
(`nn.forward`, `core.epoch_one_step`, ...), or as globals of the module
that defines them, so the wrappers see every call.  The one private
function wrapped is `core._apply_update`, the parameter update, so that
the update is a stage of its own rather than part of a step's self time.
The coefficient table
is traced by replacing `core.CoefficientTable` with a subclass whose
`save` is wrapped.

A span's self time is its duration minus that of its direct children.
Work the benchmark does between spans (the oracle, weight snapshots) is
timed separately as `untimed` and subtracted wherever an epoch or a run
time is compared with span times.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from contextlib import contextmanager

from measure import FNGD_CHECKS, Tally, check_fngd, train_once
from oracle import RTOL, LayerStep, Oracle

STEP_KINDS = {"core.epoch_one_step": "coeff", "core.shared_step": "shared"}
WRAPPED = (
    ("data", "load_idx"),
    ("nn", "forward"), ("nn", "backward"), ("nn", "weight_gradients"),
    ("persample", "gram_dense"), ("persample", "build_u_conv"), ("persample", "gram_conv"),
    ("linalg", "solve_spd"),
    ("core", "damping_lambda"), ("core", "coefficients"), ("core", "precondition"),
    ("core", "_apply_update"), ("core", "epoch_one_step"), ("core", "shared_step"),
    ("train", "evaluate"),
)
GRAM_SPANS = ("persample.gram_dense", "persample.build_u_conv", "persample.gram_conv")
# A p90 needs at least this many samples; the traced run keeps going until
# the epoch-one steps reach it.
P90_MIN_SAMPLES = 100


class Span:
    __slots__ = ("name", "parent", "run", "start", "end", "untimed", "note")

    def __init__(self, name: str, parent: int, run: int):
        self.name, self.parent, self.run = name, parent, run
        self.start = self.end = self.untimed = 0.0
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of every wrapped call, in start order, grouped by run id."""

    def __init__(self, modules: dict):
        self.modules = modules         # module name -> module, as import_program gives
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = -1
        self.step_hook = None          # (name, args) -> callable(fwd) or None
        self.last_forward = None

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            hook, untimed = None, 0.0
            if name in STEP_KINDS and tracer.step_hook is not None:
                t = time.perf_counter()
                hook = tracer.step_hook(name, args)
                untimed = time.perf_counter() - t
            span = Span(name, tracer.stack[-1] if tracer.stack else -1, tracer.run)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if name == "nn.forward":
                tracer.last_forward = result
            elif name == "train.evaluate":
                span.note = args[1].n
            if hook is not None:
                t = time.perf_counter()
                hook(tracer.last_forward)
                untimed += time.perf_counter() - t
            span.untimed = untimed
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr in WRAPPED:
                module = self.modules[mod_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))
            core = self.modules["core"]
            table = core.CoefficientTable
            saved.append((core, "CoefficientTable", table))
            traced_table = type(table.__name__, (table,),
                                {"save": self._wrap("core.table_save", table.save)})
            core.CoefficientTable = traced_table
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def gram_cost(fwd, layers: list[int]) -> tuple[float, float]:
    """(MFLOP of the program's Gram route per step, largest conv U in MB)."""
    flop, u_mb = 0.0, 0.0
    for i in layers:
        x, z = fwd.captures[i].x, fwd.captures[i].z
        m = z.shape[-1]
        if z.ndim == 2:        # (Z^T Z) * (X^T X)
            flop += 2.0 * m * m * (z.shape[0] + x.shape[0]) + m * m
        else:                  # U = sum_s z_s x_s^T per sample, then U^T U
            o, s, _ = z.shape
            p = o * x.shape[0]
            flop += 2.0 * p * s * m + 2.0 * m * m * p
            u_mb = max(u_mb, p * m * 8 / 1e6)
    return flop / 1e6, u_mb


class Follower:
    """Step hook for one fngd run: feeds every epoch-one step to the oracle
    and checks the weight change of the sampled steps."""

    def __init__(self, wl, cfg, tally: Tally):
        spe = wl.steps_per_epoch
        self.sampled = {0, spe // 2, spe - 1, spe, wl.epochs * spe - 1}
        self.oracle = Oracle(cfg.optim.alpha, cfg.optim.lam_floor)
        self.tally = tally
        self.step = 0
        self.checked = 0
        self.cost = None

    def __call__(self, name: str, args):
        net, eta = args[0], args[4]
        index = self.step
        self.step += 1
        layers = net.preconditioned()
        before = None
        if index in self.sampled:
            before = {i: net.layers[i].weight.copy() for i in layers}
        elif name == "core.shared_step":
            return None

        def after(fwd):
            if self.cost is None:
                self.cost = gram_cost(fwd, layers)
            steps = {i: LayerStep(fwd.captures[i].x, fwd.captures[i].z) for i in layers}
            delta = None
            if before is not None:
                delta = {i: net.layers[i].weight - before[i] for i in layers}
            if name == "core.epoch_one_step":
                err = self.oracle.epoch_one(steps, eta, delta)
            else:
                err = self.oracle.check_shared(steps, eta, delta)
            if delta is not None:
                self.checked += 1
                self.tally.check(err <= RTOL,
                                 f"{name} {index}: weight change off the oracle by {err:.3e}")

        return after

    def finish(self, result) -> None:
        """Count sampled checks a raising run never reached, then check the table."""
        self.tally.steps(len(self.sampled) - self.checked, ok=False)
        err = float("inf") if result is None else self.oracle.check_table(result.table.shared)
        self.tally.check(err <= RTOL, f"coefficient table off the oracle mean by {err:.3e}")


def traced(program, wl, datasets, seconds: float) -> tuple[Tally, dict]:
    config, core, train = program["config"], program["core"], program["train"]
    tracer = Tracer(program)
    tally = Tally()
    fngd_runs: list[dict] = []
    cost = (0.0, 0.0)
    deadline = time.perf_counter() + seconds
    with tracer.installed():
        for r in itertools.count():
            inputs = datasets[r % len(datasets)]
            fngd_cfg = config.load_train_config(inputs.fngd_config)
            sgd_cfg = config.load_train_config(inputs.sgd_config)
            tracer.run += 1
            follower = Follower(wl, fngd_cfg, tally)
            tracer.step_hook = follower
            first_span = len(tracer.spans)
            run = train_once(train, fngd_cfg, wl, inputs.metrics["fngd"], tally)
            tracer.step_hook = None
            follower.finish(None if run is None else run[0])
            if run is None:
                tally.steps(FNGD_CHECKS + 1, ok=False)
            else:
                result, train_s, train_rows, test_rows = run
                check_fngd(core, result, test_rows, wl, inputs.coeffs, tally)
                spans = tracer.spans[first_span:]
                late = sum(1 for s in spans if s.name in GRAM_SPANS + ("linalg.solve_spd",)
                           and enclosing_step(tracer.spans, s) != "core.epoch_one_step")
                tally.check(late == 0, f"{late} Gram or solve calls after epoch one")
                fngd_runs.append({
                    "run": tracer.run,
                    "walls": [r["wall_ms"] / 1e3 for r in train_rows],
                    "train_s": train_s - sum(s.untimed for s in spans),
                    "late": late,
                })
                cost = follower.cost

            tracer.run += 1
            train_once(train, sgd_cfg, wl, inputs.metrics["sgd"], tally)
            coeff_steps = sum(1 for s in tracer.spans if s.name == "core.epoch_one_step")
            if time.perf_counter() >= deadline and coeff_steps >= P90_MIN_SAMPLES:
                break
    print(f"# rounds={len(fngd_runs)}", file=sys.stderr)
    return tally, layer_metrics(tracer, fngd_runs, wl, cost)


def enclosing_step(spans: list[Span], span: Span) -> str | None:
    """Name of the step span that `span` runs inside, if any."""
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name in STEP_KINDS:
            return span.name
    return None


def layer_metrics(tracer: Tracer, fngd_runs: list[dict], wl, cost) -> dict:
    spans = tracer.spans
    child = [0.0] * len(spans)
    kind: list[str | None] = [None] * len(spans)      # step kind of the enclosing step
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.seconds
            kind[idx] = kind[s.parent]
        if s.name in STEP_KINDS:
            kind[idx] = STEP_KINDS[s.name]
    fngd_ids = {r["run"] for r in fngd_runs}

    def ms(name, *, step=None, parent_not=None, self_time=False, runs=None):
        out = []
        for idx, s in enumerate(spans):
            if s.name != name or (step is not None and kind[idx] != step):
                continue
            if runs is not None and s.run not in runs:
                continue
            if parent_not is not None and s.parent >= 0 and spans[s.parent].name == parent_not:
                continue
            out.append((s.seconds - (child[idx] if self_time else 0.0)) * 1e3)
        return out

    # Per-step Gram: gram_dense, or build_u_conv plus the gram_conv after it.
    gram, pending = [], 0.0
    for s in spans:
        if s.name == "persample.build_u_conv":
            pending = s.seconds
        elif s.name in ("persample.gram_dense", "persample.gram_conv"):
            gram.append((pending + s.seconds) * 1e3)
            pending = 0.0

    def per_step(name):
        """Time of all `name` calls inside each step, summed per step."""
        sums: dict[int, float] = {}
        for idx, s in enumerate(spans):
            if s.name == name and s.parent >= 0 and spans[s.parent].name in STEP_KINDS:
                sums[s.parent] = sums.get(s.parent, 0.0) + s.seconds * 1e3
        return list(sums.values())

    # Whole-file loads: the four load_idx calls of one dataset load add up.
    loads: dict[int, float] = {}
    for s in spans:
        if s.name == "data.load_idx":
            loads[s.run] = loads.get(s.run, 0.0) + s.seconds * 1e3

    evaluate = [s for s in spans if s.name == "train.evaluate" and s.run in fngd_ids]
    steps = [s for s in spans if s.name in STEP_KINDS]
    loop = []
    for r in fngd_runs:
        mine = [s for s in steps if s.run == r["run"]]
        for e, wall in enumerate(r["walls"]):
            chunk = mine[e * wl.steps_per_epoch:(e + 1) * wl.steps_per_epoch]
            loop.append((wall - sum(s.seconds + s.untimed for s in chunk)) * 1e3)

    def coverage(step_kind):
        idx = [i for i, s in enumerate(spans) if kind[i] == step_kind and s.name in STEP_KINDS]
        return sum(child[i] for i in idx) / sum(spans[i].seconds for i in idx)

    n_fngd = len(fngd_runs)
    out: dict[str, tuple[float, str]] = {}

    def timing(name, values, p90=False):
        out[f"{name}_ms"] = (statistics.median(values), "ms")
        if p90:
            out[f"{name}_p90_ms"] = (statistics.quantiles(values, n=10)[-1], "ms")
        out[f"{name}_n"] = (len(values), "count")

    timing("data.load_idx", list(loads.values()))
    timing("nn.forward", ms("nn.forward", parent_not="train.evaluate"))
    timing("nn.backward", ms("nn.backward"))
    timing("nn.weight_gradients", ms("nn.weight_gradients"))
    timing("persample.gram", gram)
    out["persample.gram_mflop"] = (cost[0], "MFLOP")
    out["persample.u_mb"] = (cost[1], "MB")
    timing("linalg.solve_spd", ms("linalg.solve_spd"))
    out["linalg.solve_calls"] = (len(ms("linalg.solve_spd", runs=fngd_ids)) / n_fngd, "count")
    timing("core.damping", ms("core.damping_lambda"))
    timing("core.coefficients_self", ms("core.coefficients", self_time=True))
    timing("core.precondition_coeff", ms("core.precondition", step="coeff"))
    timing("core.precondition_shared", ms("core.precondition", step="shared"))
    timing("core.epoch_one_step", ms("core.epoch_one_step"), p90=True)
    timing("core.shared_step", ms("core.shared_step"), p90=True)
    timing("core.update", per_step("core._apply_update"))
    timing("core.step_self", [v for name in STEP_KINDS for v in ms(name, self_time=True)])
    timing("core.table_save", ms("core.table_save"))
    timing("train.evaluate", [s.seconds * 1e3 for s in evaluate if s.note == wl.n_train])
    out["train.evaluate_test_ms"] = (
        statistics.median(s.seconds * 1e3 for s in evaluate if s.note == wl.n_test), "ms")
    out["train.evaluate_calls"] = (len(evaluate) / n_fngd, "count")
    timing("train.loop_overhead", loop)
    out["trace.coverage_coeff"] = (coverage("coeff"), "ratio")
    out["trace.coverage_shared"] = (coverage("shared"), "ratio")
    out["trace.train_s"] = (statistics.median(r["train_s"] for r in fngd_runs), "s")
    out["trace.late_gram_solve_calls"] = (float(sum(r["late"] for r in fngd_runs)), "count")
    return out

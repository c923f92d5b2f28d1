"""Training, evaluation, and the bench driver that compares optimizers.

Metrics land in a versioned CSV (schema fngd-metrics-v2): one train row
and, when a test split exists, one test row per epoch.  A train row's
loss and accuracy are both running means over that epoch's steps, each
taken from the step's own forward pass at the weights before its
update; a test row evaluates the test split at the epoch's end.  The
training split is evaluated once, after the last epoch, for the final
train accuracy.  Every column except wall_ms is deterministic for a
fixed config, seed, and numpy build; wall_ms is wall-clock and marked
non-deterministic in the header.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import core, data, nn, optim
from .config import SHARING, ConfigError, ModelSpec, TrainConfig

__all__ = [
    "METRICS_VERSION",
    "METRICS_COLUMNS",
    "TrainResult",
    "TrainingError",
    "build_network",
    "load_datasets",
    "evaluate",
    "run_train",
    "run_bench",
]

METRICS_VERSION = "fngd-metrics-v2"
METRICS_COLUMNS = ("epoch", "step", "split", "loss", "accuracy", "wall_ms", "optimizer")

BENCH_VERSION = "fngd-bench-v2"


def build_network(model: ModelSpec, seed: int) -> nn.Network:
    """Instantiate the layer stack with He-normal seeded weights.

    The shape each layer gets starts as model.input_shape and becomes
    (out,) after a dense layer, (out_ch, out_h, out_w) after a conv;
    dense layers flatten it.  Each weighted layer is checked against it
    as it is built, so a chain is refused at its first fault.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = model.input_shape
    layers = []
    for i, spec in enumerate(model.layers):
        if spec.kind == "relu":
            layers.append(nn.Relu())
            continue
        if spec.kind == "dense":
            in_dim, out_dim = spec.dims
            if in_dim != math.prod(shape):
                raise ConfigError(f"model.layer[{i}]: dense expects {in_dim} inputs but "
                                  f"the previous layer provides {math.prod(shape)}")
            layers.append(nn.Dense.create(in_dim, out_dim, rng, bias=spec.bias))
            shape = (out_dim,)
            continue
        in_ch, out_ch, kernel = spec.dims
        if len(shape) != 3:
            raise ConfigError(
                f"model.layer[{i}]: conv needs a spatial input; give model.input "
                f"as '<channels> <height> <width>'"
            )
        if in_ch != shape[0]:
            raise ConfigError(
                f"model.layer[{i}]: conv expects {in_ch} channels but the previous "
                f"layer provides {shape[0]}"
            )
        try:
            layer = nn.Conv2d.create(in_ch, out_ch, kernel, spec.padding,
                                     shape[1], shape[2], rng, bias=spec.bias)
        except ValueError as exc:  # an unsupported kernel size, or one the input cannot fit
            raise ConfigError(f"model.layer[{i}]: {exc}") from exc
        layers.append(layer)
        shape = (out_ch, layer.out_h, layer.out_w)
    try:
        return nn.Network(layers)
    except ValueError as exc:  # no dense or conv layer at all
        raise ConfigError(f"model.{exc}") from exc


def load_datasets(cfg: TrainConfig) -> tuple[data.Dataset, data.Dataset | None]:
    """Training split plus an optional held-out split.

    Synthetic data draws n + test_n samples in one seeded pass (shared
    cluster means) and cuts off the tail as the test set.
    """
    ds = cfg.dataset
    if ds.kind == "synthetic":
        total = ds.n + ds.test_n
        full = data.synthetic_classification(total, ds.features, ds.classes, cfg.seed)
        if ds.test_n == 0:
            return full, None
        return data.split(full, ds.n)
    train = _load_idx_split(ds.images, ds.labels, ds.classes, "")
    test = (_load_idx_split(ds.test_images, ds.test_labels, ds.classes, "test_")
            if ds.test_images else None)
    return train, test


def _load_idx_split(images, labels, classes: int, prefix: str) -> data.Dataset:
    """One IDX split; a file that does not fit is refused by key and file:
    an images file that holds labels or no images at all under
    dataset.<prefix>images, labels that do not fit the images under
    dataset.<prefix>labels."""
    inputs, targets = data.load_idx(images), data.load_idx(labels)
    if inputs.ndim != 2:
        raise ConfigError(f"dataset.{prefix}images: {images}: holds IDX labels, "
                          f"not images")
    if inputs.shape[1] == 0:
        raise ConfigError(f"dataset.{prefix}images: {images}: holds no images")
    try:
        return data.Dataset(inputs, targets, num_classes=classes)
    except ValueError as exc:
        raise ConfigError(f"dataset.{prefix}labels: {labels}: {exc}") from exc


def evaluate(net: nn.Network, ds: data.Dataset, batch: int) -> tuple[float, float]:
    """Loss and top-1 accuracy over the whole split.

    The forward pass runs over consecutive column slices of `batch`
    samples, each read through `Dataset.columns`, so evaluation holds no
    more float64 inputs, activations (or conv im2col patches) than a
    training step does; loss and accuracy are computed once over the
    concatenated outputs.
    """
    outputs = np.concatenate(
        [nn.forward(net, ds.columns(slice(s, s + batch))).outputs
         for s in range(0, ds.n, batch)],
        axis=1,
    )
    # Outputs that overflowed have no loss; nan leaves the report to the caller.
    loss = nn.loss_value(outputs, ds.targets) if np.isfinite(outputs).all() else math.nan
    return loss, float((outputs.argmax(axis=0) == ds.targets).mean())


class TrainingError(RuntimeError):
    """A training step or evaluation failed; the message says which."""


def _evaluate(net: nn.Network, ds: data.Dataset, batch: int, where: str) -> tuple[float, float]:
    """evaluate, with a loss that is not finite refused as a TrainingError
    whose message starts with `where`, the epoch and the split.  As in a
    training step, numpy's overflow warnings are off: the check reports it."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss, acc = evaluate(net, ds, batch)
    if not math.isfinite(loss):
        raise TrainingError(f"{where}: loss is {loss}")
    return loss, acc


# A step loss above this multiple of max(1, the run's first step loss) means
# a finite blow-up, which the non-finite check misses; on the shipped configs
# and the benchmark workloads, under every optimizer, the ratio stays below 100.
DIVERGENCE_FACTOR = 1e6


class _Runner:
    """One optimizer kind, its state, and the training split: trains one
    epoch at a time, for `run_train` and for every `run_bench` variant."""

    def __init__(self, cfg: TrainConfig, net: nn.Network, train_ds: data.Dataset):
        self.net = net
        self.train_ds = train_ds
        self.batch_size, self.seed = cfg.batch_size, cfg.seed
        self.kind = cfg.optim.kind
        o = cfg.optim
        self.rule = core.DampingRule(alpha=o.alpha, fixed=o.fixed_damping)
        self.table = core.CoefficientTable() if self.kind in SHARING else None
        self.momentum: dict[str, np.ndarray] = {}  # sgd_momentum's buffers
        self.steps = 0
        self.first_loss = None

    def step(self, x: np.ndarray, y, lr: float) -> nn.BackwardPass:
        if self.kind == "fngd":
            if not self.table.finalized:
                return core.epoch_one_step(self.net, x, y, self.table, lr, self.rule)
            return core.shared_step(self.net, x, y, self.table, lr)
        if self.kind in ("ngd_smw", "fngd_explicit"):
            return core.preconditioned_step(self.net, x, y, lr, self.rule, self.table,
                                            self.kind == "fngd_explicit")
        fwd = nn.forward(self.net, x)
        bwd = nn.backward(self.net, fwd, y)
        params = self.net.parameters()
        if self.kind == "sgd":
            # lr is folded into the gradient GEMM, so each weight gets one
            # step-sized array and one pass to subtract it.
            for name, step in nn.weight_gradients(self.net, fwd, lr).items():
                params[name] -= step
            for name, grad in bwd.bias_grads.items():
                params[name] -= lr * grad
            return bwd
        grads = nn.weight_gradients(self.net, fwd)
        grads.update(bwd.bias_grads)
        optim.sgd_momentum_step(self.momentum, params, grads, lr)
        return bwd

    def epoch(self, epoch: int, lr: float) -> tuple[float, float, float]:
        """Train epoch `epoch` (0-based) at rate lr; finalize the table after
        epoch one.  Returns (mean step loss, step accuracy, wall ms), the
        wall time covering the steps and the finalize, not evaluation."""
        ds = self.train_ds
        plan = data.batches(ds.n, self.batch_size, self.seed + epoch)
        start = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        blow_up = None
        for idx in plan:
            try:
                # A diverging step overflows; the loss checks below report it.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    bwd = self.step(ds.columns(idx), ds.targets[idx], lr)
                if not np.isfinite(bwd.loss):
                    raise RuntimeError(f"loss is {bwd.loss}")
            except RuntimeError as exc:
                raise TrainingError(
                    f"epoch {epoch + 1}, step {self.steps + 1}: {exc}"
                ) from exc
            if self.first_loss is None:
                self.first_loss = bwd.loss
            if blow_up is None and bwd.loss > DIVERGENCE_FACTOR * max(1.0, self.first_loss):
                blow_up = (self.steps + 1, bwd.loss)
            loss_sum += bwd.loss
            correct += bwd.correct
            self.steps += 1
        # A finite blow-up is reported at the end of its epoch, naming its
        # first step over the bound, so that a failed solve or a non-finite
        # loss later in that epoch keeps its more specific report.
        if blow_up is not None:
            raise TrainingError(
                f"epoch {epoch + 1}, step {blow_up[0]}: loss {blow_up[1]:.3g} exceeds "
                f"{DIVERGENCE_FACTOR:g} x max(1, first step loss {self.first_loss:.3g}); "
                f"the run diverged")
        if self.table is not None and not self.table.finalized:
            self.table.finalize()
        wall_ms = (time.perf_counter() - start) * 1e3
        return loss_sum / len(plan), correct / (len(plan) * self.batch_size), wall_ms


class _MetricsWriter:
    def __init__(self, path: Path, kind: str):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.kind = kind
        self.fh = open(path, "w", newline="")
        self.fh.write(f"# {METRICS_VERSION} wall_ms=nondeterministic\n")
        self.fh.write(",".join(METRICS_COLUMNS) + "\n")
        self.fh.flush()

    def row(self, epoch: int, step: int, split: str, loss: float,
            accuracy: float, wall_ms: float) -> None:
        self.fh.write(
            f"{epoch},{step},{split},{float(loss)!r},{float(accuracy)!r},"
            f"{float(wall_ms)!r},{self.kind}\n"
        )
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


@dataclass
class TrainResult:
    metrics_path: Path
    final: dict[str, float]
    net: nn.Network
    table: core.CoefficientTable | None


def _check_splits(cfg: TrainConfig, net: nn.Network, train_ds: data.Dataset,
                  test_ds: data.Dataset | None) -> None:
    """Refuse splits that do not fit the network or the batch size, before
    any output is opened; each message starts with the key to change."""
    for key, name, ds in (("model.input", "dataset", train_ds),
                          ("dataset.test_images", "test split", test_ds)):
        if ds is not None and ds.feature_dim != net.in_dim:
            raise ConfigError(f"{key}: network expects {net.in_dim} features, {name} "
                              f"provides {ds.feature_dim}")
    if cfg.batch_size > train_ds.n:
        raise ConfigError(f"train.batch_size: {cfg.batch_size} exceeds the training "
                          f"split's {train_ds.n} samples")
    if cfg.dataset.classes > net.out_dim:
        raise ConfigError(f"dataset.classes: {cfg.dataset.classes} classes, but the "
                          f"last layer has {net.out_dim} outputs")


def _check_output(key: str, path: Path) -> None:
    """Refuse, as output.<key>, a path that cannot be written as a file:
    an existing directory, or one under an existing path that is not a
    directory.  Makes no file or directory itself."""
    if path.is_dir():
        raise ConfigError(f"output.{key}: {path} is a directory")
    for parent in path.parents:
        if parent.exists() and not parent.is_dir():
            raise ConfigError(f"output.{key}: {path} lies under {parent}, "
                              f"which is not a directory")


def run_train(cfg: TrainConfig, log=None) -> TrainResult:
    """Train once per the config; write metrics and optional coefficients.

    The network and the splits are checked against each other, and an
    output.coeffs for an optimizer that builds no table, or one that is
    the metrics file or a path inside or above it, is refused, as is an
    output path that cannot be written as a file, before the network is
    built and the metrics file is opened.  The test split, when there is
    one, is evaluated after every epoch; the training split once, at
    the end.
    """
    if cfg.coeffs_path is not None:
        if cfg.optim.kind not in SHARING:
            raise ConfigError(f"output.coeffs: {cfg.optim.kind} builds no coefficient table")
        coeffs, metrics = cfg.coeffs_path.resolve(), cfg.metrics_path.resolve()
        if coeffs == metrics or coeffs in metrics.parents or metrics in coeffs.parents:
            raise ConfigError(f"output.coeffs: {cfg.coeffs_path} is the metrics file "
                              f"{cfg.metrics_path} or a path inside or above it")
    _check_output("metrics", cfg.metrics_path)
    if cfg.coeffs_path is not None:
        _check_output("coeffs", cfg.coeffs_path)
    net = build_network(cfg.model, cfg.seed)
    train_ds, test_ds = load_datasets(cfg)
    _check_splits(cfg, net, train_ds, test_ds)
    runner = _Runner(cfg, net, train_ds)
    final: dict[str, float] = {}
    writer = _MetricsWriter(cfg.metrics_path, cfg.optim.kind)
    try:
        for epoch, lr in enumerate(optim.lr_schedule(cfg.optim.lr, cfg.epochs)):
            mean_loss, train_acc, wall_ms = runner.epoch(epoch, lr)
            final["train_loss"] = mean_loss
            writer.row(epoch + 1, runner.steps, "train", mean_loss, train_acc, wall_ms)
            line = f"epoch {epoch + 1}/{cfg.epochs} loss={mean_loss:.6f}"
            if test_ds is not None:
                t0 = time.perf_counter()
                test_loss, test_acc = _evaluate(net, test_ds, cfg.batch_size,
                                                f"epoch {epoch + 1}, test split")
                eval_ms = (time.perf_counter() - t0) * 1e3
                final["test_loss"] = test_loss
                final["test_accuracy"] = test_acc
                writer.row(epoch + 1, runner.steps, "test", test_loss, test_acc, eval_ms)
                line += f" test_acc={test_acc:.4f}"
            if log is not None:
                log(line + f" ({wall_ms:.1f} ms)")
        final["train_accuracy"] = _evaluate(net, train_ds, cfg.batch_size,
                                            f"epoch {cfg.epochs}, train split")[1]
    finally:
        writer.close()

    if cfg.coeffs_path is not None:
        runner.table.save(cfg.coeffs_path)
        if log is not None:
            log(f"coefficients saved to {cfg.coeffs_path}")
    if log is not None:
        log("final: " + " ".join(f"{k}={v:.6f}" for k, v in sorted(final.items())))
    return TrainResult(cfg.metrics_path, final, net, runner.table)


# (variant, optimizer, optim overrides), in table order; sgd first because
# every row's time ratio is against it.
BENCH_VARIANTS = (
    ("sgd", "sgd", {}),
    ("fngd", "fngd", {}),
    ("ngd_smw", "ngd_smw", {}),
    ("fngd_explicit", "fngd_explicit", {}),
    ("fixed_damping", "fngd", {"fixed_damping": 0.3}),
)


def run_bench(cfg: TrainConfig, log=None) -> Path:
    """Train every variant on identical data and init: sgd, fngd,
    recompute ngd, the explicit-U route, and fngd at a fixed damping.

    The variants run in lockstep: epoch e of every variant before epoch
    e + 1 of any, so that a burst of host load slows every variant's
    epoch alike rather than one variant's run.  A failing step or
    evaluation is reported with its variant's name.  Bench writes no
    coefficient table, so it refuses output.coeffs; it sets each
    variant's damping itself, so it refuses train.fixed_damping.  An
    output.bench that cannot be written as a file is refused before
    any variant trains.

    Writes schema fngd-bench-v2: variant, optimizer, phase, epochs_timed,
    median_epoch_ms, ratio_vs_sgd, final_test_accuracy.  A sharing
    variant gets one row for its coefficient-building first epoch and
    one for its shared phase; the accuracy is the test split's, or the
    training split's when there is no test split, evaluated once after
    the last epoch.
    """
    if cfg.coeffs_path is not None:
        raise ConfigError("output.coeffs: bench writes no coefficient table")
    if cfg.optim.fixed_damping is not None:
        raise ConfigError("train.fixed_damping: bench sets each variant's damping itself")
    if cfg.epochs < 4:
        raise ConfigError(f"train.epochs: bench needs at least 4 epochs for stable "
                          f"medians, got {cfg.epochs}")
    if cfg.batch_size < 2:
        raise ConfigError(f"train.batch_size: bench trains natural-gradient variants, "
                          f"which need at least 2 samples per batch, got {cfg.batch_size}")
    _check_output("bench", cfg.bench_path)
    nets = [build_network(cfg.model, cfg.seed) for _ in BENCH_VARIANTS]
    train_ds, test_ds = load_datasets(cfg)
    _check_splits(cfg, nets[0], train_ds, test_ds)
    runners = [_Runner(replace(cfg, optim=replace(cfg.optim, kind=kind, **fields)), net,
                       train_ds) for (_, kind, fields), net in zip(BENCH_VARIANTS, nets)]
    times: list[list[float]] = [[] for _ in runners]
    for epoch, lr in enumerate(optim.lr_schedule(cfg.optim.lr, cfg.epochs)):
        for (variant, _, _), runner, walls in zip(BENCH_VARIANTS, runners, times):
            try:
                walls.append(runner.epoch(epoch, lr)[2])
            except TrainingError as exc:
                raise TrainingError(f"{variant}: {exc}") from exc
    scored, split = (test_ds, "test") if test_ds is not None else (train_ds, "train")
    rows = []
    for (variant, kind, _), net, walls in zip(BENCH_VARIANTS, nets, times):
        acc = _evaluate(net, scored, cfg.batch_size,
                        f"{variant}: epoch {cfg.epochs}, {split} split")[1]
        if kind in SHARING:
            phases = [("epoch1", walls[:1]), ("shared", walls[1:])]
        else:
            phases = [("all", walls)]
        for phase, sample in phases:
            rows.append([variant, kind, phase, len(sample), statistics.median(sample), acc])
    sgd_median = rows[0][4]
    out = cfg.bench_path
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write(f"# {BENCH_VERSION} median_epoch_ms=nondeterministic\n")
        fh.write("variant,optimizer,phase,epochs_timed,median_epoch_ms,ratio_vs_sgd,"
                 "final_test_accuracy\n")
        for variant, kind, phase, n_timed, med, acc in rows:
            ratio = med / sgd_median
            fh.write(f"{variant},{kind},{phase},{n_timed},{med:.3f},{ratio:.3f},{acc:.4f}\n")
            if log is not None:
                log(f"{variant:14s} {phase:7s} median {med:9.2f} ms  {ratio:5.2f}x sgd"
                    f"  acc={acc:.4f}")
    return out

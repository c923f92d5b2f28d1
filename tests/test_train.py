"""Split evaluation, and what the training loop reports from its steps.

Chunked forward passes are checked against one whole-split pass; the
train rows' running accuracy is recounted from the steps' own forwards,
and the training split is evaluated once per run.  A run on IDX splits,
which stay uint8 and are scaled per batch, is checked against a run on
the same pixels scaled once at load time, and the IDX load against the
size of the pixels.  On every shipped config, fngd with each layer's
shared coefficients flattened to their mean is checked against fngd
with the table as built.
"""

import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from fngd import core, data, nn, train
from fngd.config import OPTIMIZERS, load_train_config
from fngd.train import evaluate

ROOT = Path(__file__).resolve().parents[1]
N = 17


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_net(rng):
    return nn.Network([nn.Dense.create(6, 5, rng), nn.Relu(), nn.Dense.create(5, 3, rng)])


def _conv_net(rng, padding):
    conv = nn.Conv2d.create(2, 3, 3, padding, 5, 5, rng)
    return nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)])


def _split(net, n, rng):
    return data.Dataset(rng.standard_normal((net.in_dim, n)), rng.integers(0, 3, n),
                        num_classes=3)


@pytest.mark.parametrize("make", [
    _dense_net,
    lambda rng: _conv_net(rng, "same"),
    lambda rng: _conv_net(rng, "valid"),
], ids=["dense", "conv-same", "conv-valid"])
@pytest.mark.parametrize("batch", [1, 3, N, N + 5])
def test_chunked_evaluate_matches_one_pass(make, batch):
    rng = _rng(4)
    net = make(rng)
    ds = _split(net, N, rng)
    outputs = nn.forward(net, ds.inputs).outputs
    want_loss = nn.loss_value(outputs, ds.targets)
    want_acc = float((outputs.argmax(axis=0) == ds.targets).mean())
    loss, acc = evaluate(net, ds, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert acc == want_acc


def test_evaluate_leaves_the_split_untouched():
    # The loaders' sample-major inputs reach a layer-0 ReLU as views.
    rng = _rng(5)
    net = nn.Network([nn.Relu(), nn.Dense.create(6, 3, rng)])
    ds = data.Dataset(np.asfortranarray(rng.standard_normal((6, N))),
                      rng.integers(0, 3, N), num_classes=3)
    before = ds.inputs.tobytes()
    evaluate(net, ds, 4)
    assert ds.inputs.tobytes() == before


def _eval_peak(net, ds, batch):
    tracemalloc.start()
    try:
        evaluate(net, ds, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_tracks_the_batch_not_the_split():
    # A conv layer's im2col patches dominate a forward pass; evaluating a
    # split of eight batches must not hold eight batches of them at once.
    rng = _rng(7)
    batch = 32
    conv = nn.Conv2d.create(4, 8, 3, "same", 8, 8, rng)
    net = nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)])
    one = _split(net, batch, rng)
    eight = _split(net, 8 * batch, rng)
    assert _eval_peak(net, eight, batch) <= 2 * _eval_peak(net, one, batch)


# 44 samples at batch 8: five steps per epoch, the last four samples dropped
RUN = """\
[dataset]
kind = synthetic
n = 44
features = 5
classes = 3
test_n = 20

[model]
input = 5
layer = dense 5 6
layer = relu
layer = dense 6 3
loss = cross_entropy

[train]
optimizer = {kind}
lr = 0.3
epochs = 4
batch_size = 8
seed = 5

[output]
metrics = {out}/metrics.csv
bench = {out}/bench.csv
"""
STEPS, BATCH, EPOCHS = 5, 8, 4


def _load(tmp_path, kind="fngd"):
    path = tmp_path / f"{kind}.cfg"
    path.write_text(RUN.format(kind=kind, out=tmp_path / "out"))
    return load_train_config(path)


def _rows(cfg, split):
    lines = cfg.metrics_path.read_text().splitlines()[1:]
    return [r for r in csv.DictReader(lines) if r["split"] == split]


def _count_evaluate(monkeypatch):
    sizes = []
    real = train.evaluate

    def counting(net, ds, batch):
        sizes.append(ds.n)
        return real(net, ds, batch)

    monkeypatch.setattr(train, "evaluate", counting)
    return sizes


# train writes a test row every epoch and evaluates the training split
# once, after the last; bench reads only each variant's final accuracy,
# from the test split, or from the training split when there is none.
@pytest.mark.parametrize("entry, train_evals, test_evals", [
    (lambda cfg: train.run_train(cfg), 1, EPOCHS),
    (lambda cfg: train.run_bench(cfg), 0, len(train.BENCH_VARIANTS)),
    (lambda cfg: train.run_bench(replace(cfg, dataset=replace(cfg.dataset, test_n=0))),
     len(train.BENCH_VARIANTS), 0),
], ids=["train", "bench", "bench-no-test-split"])
def test_training_split_is_evaluated_once_per_training_run(tmp_path, monkeypatch,
                                                           entry, train_evals, test_evals):
    cfg = _load(tmp_path)
    sizes = _count_evaluate(monkeypatch)
    entry(cfg)
    assert sizes.count(44) == train_evals
    assert sizes.count(20) == test_evals
    assert len(sizes) == train_evals + test_evals


def test_bench_runs_epoch_e_of_every_variant_before_epoch_e_plus_1(tmp_path, monkeypatch):
    cfg = _load(tmp_path)
    order = []
    real = train._Runner.epoch

    def recording(runner, epoch, lr):
        order.append((runner.kind, runner.rule.fixed, epoch))
        return real(runner, epoch, lr)

    monkeypatch.setattr(train._Runner, "epoch", recording)
    train.run_bench(cfg)
    assert order == [(kind, fields.get("fixed_damping"), epoch)
                     for epoch in range(EPOCHS)
                     for _, kind, fields in train.BENCH_VARIANTS]


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_train_row_accuracy_recounts_the_steps_own_forwards(tmp_path, monkeypatch, kind):
    cfg = _load(tmp_path, kind)
    steps = []
    real = nn.backward

    def recording(net, fwd, targets):
        steps.append((fwd.outputs.copy(), np.array(targets)))
        return real(net, fwd, targets)

    monkeypatch.setattr(nn, "backward", recording)
    train.run_train(cfg)
    rows = _rows(cfg, "train")
    assert len(rows) == EPOCHS and len(steps) == EPOCHS * STEPS
    for e, row in enumerate(rows):
        hits = sum(int(np.argmax(out[:, j]) == labels[j])
                   for out, labels in steps[e * STEPS:(e + 1) * STEPS]
                   for j in range(BATCH))
        assert float(row["accuracy"]) == hits / (STEPS * BATCH)


def test_final_train_accuracy_evaluates_the_trained_weights(tmp_path):
    cfg = _load(tmp_path)
    result = train.run_train(cfg)
    train_ds, _ = train.load_datasets(cfg)
    assert result.final["train_accuracy"] == evaluate(result.net, train_ds, BATCH)[1]


IDX_RUN = """\
[dataset]
kind = idx
images = {tmp}/images.idx
labels = {tmp}/labels.idx
test_images = {tmp}/test_images.idx
test_labels = {tmp}/test_labels.idx
classes = 3

[model]
input = {input}
{layers}

[train]
optimizer = fngd
lr = 0.3
epochs = 3
batch_size = 8
seed = 5

[output]
metrics = {out}/metrics.csv
coeffs = {out}/coeffs.csv
"""
IDX_MODELS = {
    "dense": ("36", "layer = dense 36 6\nlayer = relu\nlayer = dense 6 3"),
    "conv": ("1 6 6", "layer = conv 1 2 3 same\nlayer = relu\nlayer = dense 72 3"),
}


def _idx_config(tmp_path, model, n=44, test_n=20, side=6, out="out"):
    rng = _rng(9)
    for prefix, count in (("", n), ("test_", test_n)):
        write_idx_images(tmp_path / f"{prefix}images.idx",
                         rng.integers(0, 256, (count, side, side), dtype=np.uint8))
        write_idx_labels(tmp_path / f"{prefix}labels.idx", rng.integers(0, 3, count))
    path = tmp_path / f"{out}.cfg"
    input_, layers = IDX_MODELS[model]
    path.write_text(IDX_RUN.format(tmp=tmp_path, input=input_, layers=layers,
                                   out=tmp_path / out))
    return load_train_config(path)


def test_idx_load_allocates_little_beyond_the_pixels(tmp_path):
    # 1000 + 200 images of 28x28: the pixels stay uint8, one byte each
    cfg = _idx_config(tmp_path, "dense", n=1000, test_n=200, side=28)
    pixel_bytes = (1000 + 200) * 28 * 28
    tracemalloc.start()
    try:
        train_ds, test_ds = train.load_datasets(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train_ds.inputs.dtype == test_ds.inputs.dtype == np.uint8
    assert peak <= 1.25 * pixel_bytes, peak / pixel_bytes


def _without_wall_ms(path):
    rows = list(csv.reader(path.read_text().splitlines()[1:]))
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1:] for row in rows]


@pytest.mark.parametrize("model", sorted(IDX_MODELS))
def test_idx_run_matches_pixels_scaled_at_load(tmp_path, monkeypatch, model):
    # The same pixels, scaled once into float64 splits as a loader that
    # converts at load time would hold them, train to the same bytes.
    cfg = _idx_config(tmp_path, model, out="uint8")
    train.run_train(cfg)
    real = train.load_datasets

    def scaled(cfg):
        return tuple(data.Dataset(ds.inputs / 255.0, ds.targets, ds.num_classes)
                     for ds in real(cfg))

    monkeypatch.setattr(train, "load_datasets", scaled)
    pre = _idx_config(tmp_path, model, out="float64")
    train.run_train(pre)
    assert _without_wall_ms(cfg.metrics_path) == _without_wall_ms(pre.metrics_path)
    assert cfg.coeffs_path.read_bytes() == pre.coeffs_path.read_bytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")))
def test_flat_shared_coefficients_train_like_the_table(name, tmp_path, monkeypatch):
    # Each epoch shuffles the batches, so slot i's shared coefficient is a
    # mean over epoch one's batches that does not depend on i: on every
    # shipped config, fngd trained with each layer's v_tilde replaced by
    # mean(v_tilde) * 1 ends at the same test accuracy and nearly the same weights.
    real_finalize = core.CoefficientTable.finalize

    def flat_finalize(table):
        real_finalize(table)
        for layer, (v, lam) in table.shared.items():
            table.shared[layer] = (np.full_like(v, v.mean()), lam)

    def run(out):
        cfg = load_train_config(ROOT / "configs" / f"{name}.cfg", out_dir=tmp_path / out)
        result = train.run_train(replace(cfg, optim=replace(cfg.optim, kind="fngd")))
        net = result.net
        weights = np.concatenate([net.layers[i].weight.ravel() for i in net.preconditioned()])
        return result.final["test_accuracy"], weights

    acc, weights = run("table")
    monkeypatch.setattr(core.CoefficientTable, "finalize", flat_finalize)
    flat_acc, flat_weights = run("flat")
    assert flat_acc == acc
    assert np.linalg.norm(flat_weights - weights) <= 1e-3 * np.linalg.norm(weights)

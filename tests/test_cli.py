"""End-to-end runs through the command-line entry point.

Everything goes through main(argv) in process so monkeypatching and
capsys work, except one run in a child process that checks stderr as a
user sees it; FNGD_OUTPUT_DIR keeps artifacts inside tmp_path.
"""

import argparse
import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from fngd import core, data, nn, persample, theory, train
from fngd.cli import _build_parser, main
from fngd.train import METRICS_COLUMNS, METRICS_VERSION

ROOT = Path(__file__).resolve().parents[1]

CFG = """\
[dataset]
kind = synthetic
n = 40
features = 5
classes = 2
test_n = 16

[model]
input = 5
layer = dense 5 4
layer = relu
layer = dense 4 2

[train]
optimizer = fngd
lr = 0.5
epochs = 2
batch_size = 8
seed = 3
"""


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    d = tmp_path / "out"
    monkeypatch.setenv("FNGD_OUTPUT_DIR", str(d))
    return d


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _read_metrics(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {METRICS_VERSION} wall_ms=nondeterministic"
    rows = list(csv.DictReader(lines[1:]))
    assert tuple(rows[0].keys()) == METRICS_COLUMNS
    return rows


def test_train_writes_metrics(tmp_path, out_dir, capsys):
    cfg = _write_cfg(tmp_path, CFG)
    assert main(["train", "--config", str(cfg)]) == 0
    rows = _read_metrics(out_dir / "metrics.csv")
    # one train and one test row per epoch
    assert [(r["epoch"], r["split"]) for r in rows] == [
        ("1", "train"), ("1", "test"), ("2", "train"), ("2", "test")]
    assert all(r["optimizer"] == "fngd" for r in rows)
    losses = [float(r["loss"]) for r in rows]
    assert all(l > 0 for l in losses)
    accs = [float(r["accuracy"]) for r in rows]
    assert all(0.0 <= a <= 1.0 for a in accs)
    # training on separable clusters must beat coin flipping by epoch 2
    assert accs[-1] > 0.5
    out = capsys.readouterr().out
    assert "metrics written to" in out


def test_verify_passes_and_prints_one_line_per_check(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = [l for l in out if l.startswith(("PASS", "FAIL"))]
    assert len(checks) == 9
    assert all(l.startswith("PASS") for l in checks)
    assert all("measured=" in l and "threshold=" in l for l in checks)
    assert out[-1] == "all checks passed"


def test_verify_with_a_failing_check_prints_it_and_exits_1(capsys, monkeypatch):
    # the identity's error reads far over its 1e-9 threshold
    monkeypatch.setattr(theory, "smw_identity_check", lambda *args: 1.0)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l.split()[:2] for l in out if l.startswith("FAIL")] == [["FAIL", "smw_identity"]]
    assert out[-1] == "1 check(s) failed"


def test_verify_verbose_adds_detail(capsys):
    assert main(["verify", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "(" in out


def test_coefficient_table_round_trip(tmp_path, out_dir):
    cfg = _write_cfg(tmp_path, CFG + "\n[output]\ncoeffs = coeffs.csv\n")
    table_path = out_dir / "coeffs.csv"
    assert main(["train", "--config", str(cfg)]) == 0
    head = table_path.read_text().splitlines()[0]
    assert head == "fngd-coefficients,1"
    table = core.CoefficientTable.load(table_path)
    assert sorted(table.shared) == [0, 2]
    assert all(c.shape == (8,) for c, _ in table.shared.values())


def test_output_dir_redirect_keeps_names(tmp_path, monkeypatch):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("FNGD_OUTPUT_DIR", str(target))
    cfg = _write_cfg(tmp_path, CFG + "\n[output]\nmetrics = nested/dir/custom.csv\n")
    assert main(["train", "--config", str(cfg)]) == 0
    assert (target / "custom.csv").exists()


def test_config_error_exits_2(tmp_path, out_dir, capsys):
    cfg = _write_cfg(tmp_path, CFG.replace("lr = 0.5", "lr = -1"))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train.lr")


def test_conv_layer_over_one_u_block_trains(tmp_path, out_dir, monkeypatch):
    # 128 * 64 * 3^2 rows by 128 samples of float64 is 75497472 bytes,
    # over the 64 MiB U budget, so the Gram is built in two channel blocks
    text = CFG.replace(
        "input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
        "input = 64 8 8\nlayer = conv 64 128 3 same\nlayer = relu\nlayer = dense 8192 2",
    ).replace("batch_size = 8", "batch_size = 128")
    text = text.replace("n = 40", "n = 256").replace("features = 5", "features = 4096")
    blocks, copies = [], []
    real = persample.build_u_conv

    def recording(capture, channels=slice(None), xm=None):
        blocks.append((channels.start, channels.stop))
        copies.append(None if xm is None else id(xm))
        return real(capture, channels, xm)

    monkeypatch.setattr(persample, "build_u_conv", recording)
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 0
    # two epoch-one steps, each over blocks of 113 channels (the most
    # whose rows fit the budget) and then the last 15
    assert blocks == [(0, 113), (113, 226)] * 2
    # each step copies X to sample-major once and hands both blocks that copy
    assert None not in copies and copies[0] == copies[1] and copies[2] == copies[3]
    rows = _read_metrics(out_dir / "metrics.csv")
    assert [(r["epoch"], r["split"]) for r in rows] == [
        ("1", "train"), ("1", "test"), ("2", "train"), ("2", "test")]
    for r in rows:
        assert math.isfinite(float(r["loss"]))


@pytest.mark.parametrize("line", ["fixed_damping = -1.0"])
def test_nonpositive_damping_exits_2_before_any_output(line, tmp_path, out_dir, capsys,
                                                      monkeypatch):
    def no_data(cfg):
        raise AssertionError("data was read before the damping check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    cfg = _write_cfg(tmp_path, CFG + line + "\n")
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: train.{line.split()[0]}: must be positive")
    assert not out_dir.exists()


def test_unknown_key_exits_2_before_any_output(tmp_path, out_dir, capsys, monkeypatch):
    def no_data(cfg):
        raise AssertionError("data was read before the key check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    cfg = _write_cfg(tmp_path, CFG.replace("lr = 0.5", "lr = 0.5\nalpah = 0.5"))
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: train.alpah: unknown key\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["sgd", "sgd_momentum", "ngd_smw"])
def test_coeffs_for_an_optimizer_without_a_table_exits_2_before_any_output(
        kind, tmp_path, out_dir, capsys, monkeypatch):
    def no_data(cfg):
        raise AssertionError("data was read before the output.coeffs check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    text = CFG.replace("optimizer = fngd", f"optimizer = {kind}")
    cfg = _write_cfg(tmp_path, text + "\n[output]\ncoeffs = coeffs.csv\n")
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output.coeffs: {kind} builds no coefficient table\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("metrics, coeffs, output_dir, shown", [
    ("out/run.csv", "out/run.csv", None, ("out/run.csv", "out/run.csv")),
    ("a/run.csv", "b/run.csv", "o", ("o/run.csv", "o/run.csv")),
    ("out/m.csv", "out/m.csv/t.csv", None, ("out/m.csv/t.csv", "out/m.csv")),
    ("out/c.csv/m.csv", "out/c.csv", None, ("out/c.csv", "out/c.csv/m.csv")),
], ids=["same-path", "same-name-under-output-dir", "coeffs-under-metrics",
        "metrics-under-coeffs"])
def test_coeffs_at_or_around_the_metrics_file_exits_2_before_any_output(
        metrics, coeffs, output_dir, shown, tmp_path, capsys, monkeypatch):
    # the table would overwrite the metrics file, or one path would need
    # the other to be a directory after the run had trained
    def no_data(cfg):
        raise AssertionError("data was read before the output.coeffs check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    monkeypatch.chdir(tmp_path)
    if output_dir is None:
        monkeypatch.delenv("FNGD_OUTPUT_DIR", raising=False)
    else:
        monkeypatch.setenv("FNGD_OUTPUT_DIR", output_dir)
    cfg = _write_cfg(tmp_path, CFG + f"\n[output]\nmetrics = {metrics}\ncoeffs = {coeffs}\n")
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output.coeffs: {shown[0]} is the metrics file "
                            f"{shown[1]} or a path inside or above it\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command, key", [
    ("train", "metrics"), ("train", "coeffs"), ("bench", "bench")])
@pytest.mark.parametrize("layout, reason", [
    ("directory", "out/t.csv is a directory"),
    ("under-file", "a.cfg/t.csv lies under a.cfg, which is not a directory"),
], ids=["directory", "under-file"])
def test_unwritable_output_path_exits_2_before_the_network_is_built(
        command, key, layout, reason, tmp_path, capsys, monkeypatch):
    # such a path fails only when its file is opened, after training,
    # so it is refused by key before anything is built or read
    def no_network(model, seed):
        raise AssertionError("the network was built before the output path check")

    monkeypatch.setattr(train, "build_network", no_network)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FNGD_OUTPUT_DIR", raising=False)
    if layout == "directory":
        (tmp_path / "out" / "t.csv").mkdir(parents=True)
        path = "out/t.csv"
    else:
        (tmp_path / "a.cfg").write_text("")
        path = "a.cfg/t.csv"
    text = CFG.replace("epochs = 2", "epochs = 4") + f"\n[output]\n{key} = {path}\n"
    cfg = _write_cfg(tmp_path, text)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output.{key}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_idx_dataset_with_synthetic_keys_exits_2_before_any_output(tmp_path, out_dir,
                                                                  capsys, monkeypatch):
    imgs, labs = tmp_path / "images.idx", tmp_path / "labels.idx"
    rng = np.random.Generator(np.random.PCG64(0))
    write_idx_images(imgs, rng.integers(0, 255, (64, 2, 2)).astype(np.uint8))
    write_idx_labels(labs, rng.integers(0, 2, 64).astype(np.uint8))
    text = CFG.replace(
        "kind = synthetic\nn = 40\nfeatures = 5\nclasses = 2\ntest_n = 16",
        f"kind = idx\nimages = {imgs}\nlabels = {labs}\nclasses = 2\n"
        f"n = 16\nfeatures = 3\ntest_n = 7",
    ).replace("input = 5", "input = 4").replace("dense 5 4", "dense 4 4")

    def no_data(cfg):
        raise AssertionError("data was read before the dataset key check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dataset.n: not read for idx datasets\n"
    assert not out_dir.exists()


def test_test_split_feature_mismatch_exits_2_before_any_step(tmp_path, out_dir, capsys):
    rng = np.random.Generator(np.random.PCG64(0))
    paths = {name: tmp_path / f"{name}.idx"
             for name in ("images", "labels", "test_images", "test_labels")}
    write_idx_images(paths["images"], rng.integers(0, 255, (40, 4, 4)).astype(np.uint8))
    write_idx_labels(paths["labels"], rng.integers(0, 2, 40).astype(np.uint8))
    write_idx_images(paths["test_images"], rng.integers(0, 255, (16, 5, 5)).astype(np.uint8))
    write_idx_labels(paths["test_labels"], rng.integers(0, 2, 16).astype(np.uint8))
    text = CFG.replace(
        "kind = synthetic\nn = 40\nfeatures = 5\nclasses = 2\ntest_n = 16",
        "kind = idx\nclasses = 2\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()),
    ).replace("input = 5", "input = 16").replace("dense 5 4", "dense 16 4")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: dataset.test_images: network expects 16 features, "
                            "test split provides 25\n")
    assert not out_dir.exists()


MODEL = "input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2"

SETUP_REFUSALS = {
    "model.layer[2]": ("layer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
                       "layer = dense 5 8\nlayer = relu\nlayer = dense 9 2"),
    "model.input": ("features = 5", "features = 6"),
    "train.batch_size": ("batch_size = 8", "batch_size = 500"),
    "train.milestones": ("seed = 3", "seed = 3\nmilestones = 0.75 0.5"),
    "dataset.classes": ("classes = 2", "classes = 4"),
    "model.loss": ("layer = dense 4 2", "layer = dense 4 2\nloss = squared_error"),
    "train.lr": ("lr = 0.5", "lr = nan"),
    # the damping floor is a constant, not a key
    "train.lam_floor": ("lr = 0.5", "lr = 0.5\nlam_floor = 1e-12"),
}


@pytest.mark.parametrize("key, command, changes", [
    *(pytest.param(key, "train", [change], id=f"{key}-train")
      for key, change in SETUP_REFUSALS.items()),
    pytest.param("train.batch_size", "bench", [SETUP_REFUSALS["train.batch_size"]],
                 id="train.batch_size-bench"),
    # the loader allows one sample per batch for sgd, but bench also
    # trains the natural-gradient variants
    pytest.param("train.batch_size", "bench",
                 [("optimizer = fngd", "optimizer = sgd"), ("batch_size = 8", "batch_size = 1")],
                 id="train.batch_size-bench-sgd"),
    pytest.param("dataset.features", "train", [("features = 5", "features = 0")],
                 id="dataset.features-train"),
    # more classes than the n + test_n = 56 samples drawn
    pytest.param("dataset.classes", "train", [("classes = 2", "classes = 57")],
                 id="dataset.classes-samples-train"),
    # layers that the network itself refuses, named by the layer's key
    pytest.param("model.layer[0]", "train",
                 [(MODEL, "input = 1 3 3\nlayer = conv 1 2 4 same\nlayer = relu\n"
                          "layer = dense 18 2"), ("features = 5", "features = 9")],
                 id="model.layer-kernel-size-train"),
    pytest.param("model.layer[0]", "train",
                 [(MODEL, "input = 1 3 3\nlayer = conv 1 2 5 valid\nlayer = relu\n"
                          "layer = dense 2 2"), ("features = 5", "features = 9")],
                 id="model.layer-kernel-fit-train"),
    pytest.param("model.layer", "train", [(MODEL, "input = 5\nlayer = relu")],
                 id="model.layer-no-weights-train"),
    # IDX files that hold no images; the changes write the files first
    pytest.param("dataset.images", "train",
                 lambda tmp: _idx_changes(tmp, _labels(0), _labels(16), images=0)[0],
                 id="dataset.images-empty-train"),
    pytest.param("dataset.test_images", "train",
                 lambda tmp: _idx_changes(tmp, _labels(40), _labels(0), test_images=0)[0],
                 id="dataset.test_images-empty-train"),
])
def test_setup_refusal_names_the_key_before_any_output(key, command, changes, tmp_path,
                                                        out_dir, capsys):
    if callable(changes):
        changes = changes(tmp_path)
    # four epochs, so that bench gets past its own epoch minimum
    text = CFG.replace("epochs = 2", "epochs = 4")
    for change in changes:
        text = text.replace(*change)
    assert main([command, "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {key}: ")
    assert not out_dir.exists()


CONV_MODEL = "input = 1 3 3\nlayer = conv 1 2 3 same\nlayer = relu\nlayer = dense 18 2"
CONV_DATA = ("features = 5", "features = 9")


def _conv_line(line):
    """Changes that turn CFG into CONV_MODEL over 9 features, its conv line
    replaced by `line`."""
    return [(MODEL, CONV_MODEL.replace("conv 1 2 3 same", line)), CONV_DATA]


# A width beyond numpy's index range, which it refuses before allocating.
TOO_WIDE = "99999999999999999999"

# Every refusal of the model and the loader's range refusals, by the exact
# line each prints; the ids name the refused key.
EXACT_REFUSALS = [
    pytest.param([("layer = relu", "layer =")], "model.layer[1]: empty layer line",
                 id="model.layer-empty"),
    pytest.param([("layer = relu", "layer = relu 3")],
                 "model.layer[1]: relu takes no arguments, got 'relu 3'",
                 id="model.layer-relu-argument"),
    pytest.param([("layer = relu", "layer = relu nobias")],
                 "model.layer[1]: relu takes no arguments, got 'relu nobias'",
                 id="model.layer-relu-nobias"),
    pytest.param([("layer = relu", "layer = tanh")],
                 "model.layer[1]: unknown layer kind 'tanh'", id="model.layer-unknown-kind"),
    pytest.param([("dense 4 2", "dense 4 2 2")],
                 "model.layer[2]: expected 'dense <in> <out> [nobias]', got 'dense 4 2 2'",
                 id="model.layer-dense-arguments"),
    pytest.param([("dense 4 2", "dense 4 two")],
                 "model.layer[2]: bad dimension in 'dense 4 two'",
                 id="model.layer-dense-non-integer"),
    pytest.param([("dense 4 2", "dense 4 0")],
                 "model.layer[2]: dimensions must be positive, got (4, 0)",
                 id="model.layer-dense-non-positive"),
    pytest.param(_conv_line("conv 1 2"),
                 "model.layer[0]: expected 'conv <in_ch> <out_ch> <kernel> [same|valid] "
                 "[nobias]', got 'conv 1 2'", id="model.layer-conv-arguments"),
    pytest.param(_conv_line("conv 1 2 3 full"),
                 "model.layer[0]: padding must be same or valid, got 'full'",
                 id="model.layer-conv-padding"),
    pytest.param(_conv_line("conv 1 2 x"), "model.layer[0]: bad dimension in 'conv 1 2 x'",
                 id="model.layer-conv-non-integer"),
    pytest.param(_conv_line("conv 1 -2 3"),
                 "model.layer[0]: dimensions must be positive, got (1, -2, 3)",
                 id="model.layer-conv-non-positive"),
    pytest.param([(f"[model]\n{MODEL}\n", "")], "model: section is missing",
                 id="model-missing"),
    pytest.param([("input = 5", "input = five")], "model.input: bad shape 'five'",
                 id="model.input-non-integer"),
    pytest.param([(MODEL, MODEL + "\nlayer = conv 2 2 1")],
                 "model.layer[3]: conv needs a spatial input; give model.input as "
                 "'<channels> <height> <width>'", id="model.layer-conv-after-dense"),
    pytest.param([(MODEL, CONV_MODEL.replace("dense 18 2", "conv 3 2 3\nlayer = dense 18 2")),
                  CONV_DATA],
                 "model.layer[2]: conv expects 3 channels but the previous layer provides 2",
                 id="model.layer-conv-channels"),
    pytest.param([("dense 5 4", "dense 5 8"), ("dense 4 2", "dense 9 2")],
                 "model.layer[2]: dense expects 9 inputs but the previous layer provides 8",
                 id="model.layer-dense-width"),
    pytest.param([(MODEL, "input = 5\nlayer = relu")],
                 "model.layer: network has no parameterized layers",
                 id="model.layer-no-weights"),
    pytest.param([("dense 5 4", "dense 6 4")],
                 "model.layer[0]: dense expects 6 inputs but the previous layer provides 5",
                 id="model.input-first-dense-5-features"),
    pytest.param([("dense 5 4", "dense 6 4"), ("features = 5", "features = 6")],
                 "model.layer[0]: dense expects 6 inputs but the previous layer provides 5",
                 id="model.input-first-dense-6-features"),
    # a chain with two faults is refused at the first
    pytest.param([("dense 5 4", "dense 6 4"), ("dense 4 2", "dense 5 2")],
                 "model.layer[0]: dense expects 6 inputs but the previous layer provides 5",
                 id="model.input-before-dense-width"),
    pytest.param([(MODEL, "input = 1 2 2\nlayer = conv 1 2 1\nlayer = dense 7 4\n"
                          "layer = conv 4 2 1\nlayer = dense 2 2"),
                  ("features = 5", "features = 4")],
                 "model.layer[1]: dense expects 7 inputs but the previous layer provides 8",
                 id="model.layer-dense-width-before-conv-after-dense"),
    pytest.param([("n = 40", "n = 0")], "dataset.n: must be positive, got 0",
                 id="dataset.n"),
    pytest.param([("test_n = 16", "test_n = -1")],
                 "dataset.test_n: must be non-negative, got -1", id="dataset.test_n"),
    pytest.param([("batch_size = 8", "batch_size = 0")],
                 "train.batch_size: must be positive, got 0", id="train.batch_size"),
    # sizes numpy refuses before it allocates anything, named by their keys
    pytest.param([("dense 5 4", f"dense 5 {TOO_WIDE}")],
                 "model.layer[0]: Maximum allowed dimension exceeded",
                 id="model.layer-dense-too-wide"),
    pytest.param([("n = 40", f"n = {TOO_WIDE}")],
                 f"dataset.n: n + test_n = {int(TOO_WIDE) + 16} samples of 5 features: "
                 f"Maximum allowed dimension exceeded", id="dataset.n-too-wide"),
    pytest.param([("features = 5", f"features = {TOO_WIDE}")],
                 f"dataset.features: n + test_n = 56 samples of {TOO_WIDE} features: "
                 f"Maximum allowed dimension exceeded", id="dataset.features-too-wide"),
    # output paths that name no file; an empty one would otherwise be
    # redirected to FNGD_OUTPUT_DIR itself, or leave the table unsaved
    pytest.param([("seed = 3", "seed = 3\n\n[output]\nmetrics =")],
                 "output.metrics: must name a file, got ''", id="output.metrics-empty"),
    pytest.param([("seed = 3", "seed = 3\n\n[output]\nmetrics = ..")],
                 "output.metrics: must name a file, got '..'", id="output.metrics-parent"),
    pytest.param([("seed = 3", "seed = 3\n\n[output]\ncoeffs =")],
                 "output.coeffs: must name a file, got ''", id="output.coeffs-empty"),
]


@pytest.mark.parametrize("changes, message", EXACT_REFUSALS)
def test_refusal_prints_its_exact_line_before_any_output(changes, message, tmp_path,
                                                          out_dir, capsys):
    # four epochs, so that bench gets past its own epoch minimum
    text = CFG.replace("epochs = 2", "epochs = 4")
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    cfg = _write_cfg(tmp_path, text)
    for command in ("train", "bench"):
        assert main([command, "--config", str(cfg)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out_dir.exists()


def _idx_changes(tmp_path, labels, test_labels=None, images=40, test_images=16):
    """Changes that turn CFG into a config over `images` 2x2 IDX images (and
    `test_images` test images) with the given labels, and the files' paths."""
    rng = np.random.Generator(np.random.PCG64(0))
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    write_idx_images(paths["images"],
                     rng.integers(0, 255, (images, 2, 2)).astype(np.uint8))
    write_idx_labels(paths["labels"], labels)
    if test_labels is not None:
        paths["test_images"] = tmp_path / "test_images.idx"
        paths["test_labels"] = tmp_path / "test_labels.idx"
        write_idx_images(paths["test_images"],
                         rng.integers(0, 255, (test_images, 2, 2)).astype(np.uint8))
        write_idx_labels(paths["test_labels"], test_labels)
    changes = [
        ("kind = synthetic\nn = 40\nfeatures = 5\nclasses = 2\ntest_n = 16",
         "kind = idx\nclasses = 2\n" + "".join(f"{k} = {v}\n" for k, v in paths.items())),
        ("input = 5", "input = 4"),
        ("dense 5 4", "dense 4 4"),
    ]
    return changes, paths


def _idx_config(tmp_path, labels, test_labels=None):
    """CFG over 40 2x2 IDX images (and 16 test images) with the given labels."""
    changes, paths = _idx_changes(tmp_path, labels, test_labels)
    text = CFG
    for change in changes:
        text = text.replace(*change)
    return text, paths


def _labels(n, bad_index=None):
    labels = np.arange(n) % 2
    if bad_index is not None:
        labels[bad_index] = 5
    return labels


@pytest.mark.parametrize("labels, test_labels, key, reason", [
    pytest.param(_labels(40, bad_index=7), None, "labels",
                 "class index out of range: saw 5 with 2 classes", id="label-range"),
    pytest.param(_labels(20), None, "labels", "20 targets for 40 samples", id="short-labels"),
    pytest.param(_labels(40), _labels(8), "test_labels", "8 targets for 16 samples",
                 id="short-test-labels"),
])
def test_label_file_refusal_names_the_key_and_file_before_any_output(
        labels, test_labels, key, reason, tmp_path, out_dir, capsys):
    text, paths = _idx_config(tmp_path, labels, test_labels)
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: dataset.{key}: {paths[key]}: {reason}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value", [
    pytest.param("test_images", "", id="dataset.test_images-empty"),
    pytest.param("images", "{tmp}", id="dataset.images-directory"),
])
def test_idx_path_that_is_no_file_prints_its_exact_line_before_any_output(
        key, value, tmp_path, out_dir, capsys):
    text, paths = _idx_config(tmp_path, _labels(40), _labels(16))
    value = value.format(tmp=tmp_path)
    text = text.replace(f"\n{key} = {paths[key]}\n", f"\n{key} = {value}\n")
    # four epochs, so that bench gets past its own epoch minimum
    cfg = _write_cfg(tmp_path, text.replace("epochs = 2", "epochs = 4"))
    for command in ("train", "bench"):
        assert main([command, "--config", str(cfg)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: dataset.{key}: file not found, got {value!r}"]
        assert not out_dir.exists()


@pytest.mark.parametrize("key, cut, reason", [
    pytest.param("images", None, "unsupported IDX magic 0x5b646174",
                 id="dataset.images-bad-magic"),
    pytest.param("labels", 10, "truncated IDX payload: header promises 40 bytes, file holds 30",
                 id="dataset.labels-truncated"),
    pytest.param("test_images", 10,
                 "truncated IDX payload: header promises 64 bytes, file holds 54",
                 id="dataset.test_images-truncated"),
    pytest.param("test_labels", None, "unsupported IDX magic 0x5b646174",
                 id="dataset.test_labels-bad-magic"),
])
def test_idx_file_that_does_not_parse_names_its_key_and_file_before_any_output(
        key, cut, reason, tmp_path, out_dir, capsys):
    # cut drops that many bytes from the file's end; None writes the
    # config text in its place, whose "[dat" reads as the magic number
    text, paths = _idx_config(tmp_path, _labels(40), _labels(16))
    path = paths[key]
    if cut is None:
        path.write_text(text)
    else:
        path.write_bytes(path.read_bytes()[:-cut])
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: dataset.{key}: {path}: {reason}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("split", ["", "test_"])
def test_swapped_images_and_labels_name_the_images_key_and_file_before_any_output(
        split, tmp_path, out_dir, capsys):
    text, paths = _idx_config(tmp_path, _labels(40), _labels(16))
    images, labels = paths[f"{split}images"], paths[f"{split}labels"]
    image_bytes = images.read_bytes()
    images.write_bytes(labels.read_bytes())
    labels.write_bytes(image_bytes)
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: dataset.{split}images: {images}: holds IDX labels, not images"]
    assert not out_dir.exists()


def test_non_finite_loss_names_epoch_and_step_and_exits_3(tmp_path, out_dir, capsys):
    # a step of 1e30 overflows the weights within the first epoch, and
    # the next forward pass meets inf - inf in the softmax
    text = (ROOT / "configs" / "mlp_synth.cfg").read_text()
    text = text.replace("optimizer = fngd", "optimizer = sgd").replace("lr = 0.1", "lr = 1e30")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    err = capsys.readouterr().err
    assert err == "error: epoch 1, step 9: loss is nan\n"


def test_diverging_run_prints_one_error_line_and_no_warnings(tmp_path):
    # pytest diverts numpy's RuntimeWarnings away from capsys, so only a
    # separate process shows what a user sees on stderr
    text = (ROOT / "configs" / "mlp_synth.cfg").read_text()
    text = text.replace("optimizer = fngd", "optimizer = sgd").replace("lr = 0.1", "lr = 1e30")
    cfg = _write_cfg(tmp_path, text)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, FNGD_OUTPUT_DIR=str(tmp_path / "out"), PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "fngd.cli", "train", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: epoch 1, step")


# a conv run that a huge step sends to overflow within a few steps
CONV_BLOW_UP = (
    CFG.replace("n = 40", "n = 256").replace("features = 5", "features = 72")
    .replace("input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
             "input = 2 6 6\nlayer = conv 2 4 3 same\nlayer = relu\nlayer = dense 144 2")
    .replace("batch_size = 8", "batch_size = 32")
)


@pytest.mark.parametrize("lr, extra, message", [
    # the weights overflow, and the conv layer's per-sample gradients with them
    ("1e150", "fixed_damping = 1e-12",
     "epoch 1, step 3: layer 0: matrix entries must all be finite"),
    # the Gram stays finite, but its Frobenius norm, and lambda with it, overflow
    ("1e100", "", "epoch 1, step 2: layer 0: damping must be positive and finite, got inf"),
], ids=["gram", "damping"])
def test_non_finite_layer_state_names_the_layer_and_exits_3(lr, extra, message, tmp_path,
                                                            out_dir, capsys):
    text = CONV_BLOW_UP.replace("lr = 0.5", f"lr = {lr}\n{extra}")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert "metrics written to" not in captured.out
    assert captured.err == f"error: {message}\n"


def test_finite_blow_up_names_epoch_and_step_and_exits_3(tmp_path, out_dir, capsys):
    # with almost no damping a huge step blows the conv run up by many
    # orders of magnitude while every loss stays finite
    text = CONV_BLOW_UP.replace("lr = 0.5", "lr = 1e6\nfixed_damping = 1e-12")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert "metrics written to" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: epoch \d+, step \d+: loss \S+ exceeds 1e\+06 x max\(1, "
                        r"first step loss \S+\); the run diverged", err[0])


def test_diverging_bench_variant_is_named_and_exits_3(tmp_path, out_dir, capsys):
    # at lr 1e6 sgd, the first variant to train each epoch, blows up in epoch one
    text = (ROOT / "configs" / "mlp_synth.cfg").read_text()
    text = text.replace("lr = 0.1", "lr = 1e6").replace("epochs = 15", "epochs = 4")
    assert main(["bench", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: sgd: epoch 1, step \d+: loss \S+ exceeds 1e\+06 x max\(1, "
                        r"first step loss \S+\); the run diverged", err[0])
    assert not out_dir.exists()


# One step per epoch: its update overflows the pass that evaluates it, at
# 1e160 with finite weights and at 1e300 with infinite ones.
ONE_STEP = (CFG.replace("n = 40", "n = 16").replace("test_n = 16", "test_n = 8")
            .replace("batch_size = 8", "batch_size = 16").replace("seed = 3\n", ""))


# numpy's overflow warnings raise here, so none may reach the user
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["sgd", "fngd"])
@pytest.mark.parametrize("lr", ["1e160", "1e300"])
def test_evaluation_overflow_names_epoch_and_split_and_exits_3(kind, lr, tmp_path, out_dir,
                                                               capsys):
    text = ONE_STEP.replace("optimizer = fngd", f"optimizer = {kind}")
    text = text.replace("lr = 0.5", f"lr = {lr}")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epoch 1, test split: loss is nan\n"


@pytest.mark.filterwarnings("error")
def test_huge_epoch_count_reaches_its_first_step(tmp_path, out_dir, capsys):
    # each epoch's rate is worked out as that epoch starts, so a 20-digit
    # epoch count trains at once; this run ends in its first epoch
    text = ONE_STEP.replace("lr = 0.5", "lr = 1e300")
    text = text.replace("epochs = 2", "epochs = 99999999999999999999")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epoch 1, test split: loss is nan\n"


# What numpy says when an array does not fit, as at a batch_size of 40000,
# whose fngd Gram is 40000 x 40000; the tests raise it, allocating nothing.
NO_MEMORY = ("Unable to allocate 11.9 GiB for an array with shape (40000, 40000) "
             "and data type float64")


def _out_of_memory(*args, **kwargs):
    raise MemoryError(NO_MEMORY)


@pytest.mark.parametrize("command, where, prefix", [
    ("train", (persample, "gram"), "epoch 1, step 1"),
    ("bench", (persample, "gram"), "fngd: epoch 1, step 1"),
    ("train", (train, "evaluate"), "epoch 1, test split"),
    ("bench", (train, "evaluate"), "sgd: epoch 4, test split"),
], ids=["train-step", "bench-step", "train-evaluation", "bench-evaluation"])
def test_out_of_memory_in_training_names_where_and_exits_3(command, where, prefix, tmp_path,
                                                           out_dir, capsys, monkeypatch):
    monkeypatch.setattr(*where, _out_of_memory)
    text = CFG.replace("epochs = 2", "epochs = 4").replace("lr = 0.5", "lr = 0.1")
    assert main([command, "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {prefix}: {NO_MEMORY}\n"


@pytest.mark.parametrize("command", ["train", "bench"])
@pytest.mark.parametrize("where, key", [
    ((data, "synthetic_classification"), "dataset.n: n + test_n = 56 samples of 5 features"),
    ((nn.Dense, "create"), "model.layer[0]"),
], ids=["data", "dense-layer"])
def test_out_of_memory_at_set_up_exits_2_before_any_output(command, where, key, tmp_path,
                                                           out_dir, capsys, monkeypatch):
    monkeypatch.setattr(*where, _out_of_memory)
    text = CFG.replace("epochs = 2", "epochs = 4").replace("lr = 0.5", "lr = 0.1")
    assert main([command, "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}: {NO_MEMORY}\n"
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
def test_final_training_pass_overflow_names_epoch_and_split_and_exits_3(tmp_path, out_dir,
                                                                       capsys):
    # without a test split, the training split's one pass after the last
    # epoch is the first to see the overflowed weights
    text = ONE_STEP.replace("test_n = 8", "test_n = 0").replace("epochs = 2", "epochs = 1")
    text = text.replace("optimizer = fngd", "optimizer = sgd").replace("lr = 0.5", "lr = 1e160")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert "metrics written to" not in captured.out
    assert captured.err == "error: epoch 1, train split: loss is nan\n"


@pytest.mark.filterwarnings("error")
def test_bench_evaluation_overflow_names_the_variant_and_exits_3(tmp_path, out_dir, capsys,
                                                                 monkeypatch):
    # no config overflows the evaluation after bench's last epoch without
    # diverging in a step first, so the weights are scaled just before it
    real = train.evaluate

    def overflowing(net, ds, batch):
        for i in net.preconditioned():
            net.layers[i].weight *= 1e300
        return real(net, ds, batch)

    monkeypatch.setattr(train, "evaluate", overflowing)
    text = CFG.replace("epochs = 2", "epochs = 4").replace("lr = 0.5", "lr = 0.1")
    assert main(["bench", "--config", str(_write_cfg(tmp_path, text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sgd: epoch 4, test split: loss is nan\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["fngd", "sgd"])
def test_bench_refuses_coeffs_before_any_output(kind, tmp_path, out_dir, capsys,
                                                monkeypatch):
    def no_data(cfg):
        raise AssertionError("data was read before the output.coeffs check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    text = CFG.replace("epochs = 2", "epochs = 4").replace("optimizer = fngd",
                                                           f"optimizer = {kind}")
    cfg = _write_cfg(tmp_path, text + "\n[output]\ncoeffs = coeffs.csv\n")
    assert main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output.coeffs: bench writes no coefficient table\n"
    assert not out_dir.exists()


def test_bench_refuses_fixed_damping_before_any_output(tmp_path, out_dir, capsys,
                                                       monkeypatch):
    # every variant but fixed_damping runs the damping rule; a config's
    # fixed value would run them all at one lambda under their own names
    def no_data(cfg):
        raise AssertionError("data was read before the train.fixed_damping check")

    monkeypatch.setattr(train, "load_datasets", no_data)
    text = CFG.replace("epochs = 2", "epochs = 4").replace("lr = 0.5",
                                                           "lr = 0.5\nfixed_damping = 0.3")
    assert main(["bench", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: train.fixed_damping: bench sets each variant's "
                            "damping itself\n")
    assert not out_dir.exists()


def test_failed_solve_names_epoch_and_step_and_exits_3(tmp_path, out_dir, capsys):
    # a huge step with almost no damping drives the weights to overflow
    # within a few steps, and the coefficient solve then fails
    text = CFG.replace("n = 40", "n = 256").replace("features = 5", "features = 20")
    text = text.replace("input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
                        "input = 20\nlayer = dense 20 32\nlayer = relu\nlayer = dense 32 2")
    text = text.replace("lr = 0.5", "lr = 1e6\nfixed_damping = 1e-12")
    text = text.replace("batch_size = 8", "batch_size = 32")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: epoch \d+, step \d+: coefficient solve failed "
                        r"at layer \d+ \(pivot \d+\)", err[0])


@pytest.mark.parametrize("argv, message", [
    # a run builds its coefficient table in its own first epoch; none is loaded
    (["train", "--config", "run.cfg", "--load-coeffs", "coeffs.csv"],
     "error: unrecognized arguments: --load-coeffs coeffs.csv"),
    (["verify", "--seed", "-1"],
     "error: argument --seed: expected a non-negative integer, got '-1'"),
    (["verify", "--seed", "abc"],
     "error: argument --seed: expected a non-negative integer, got 'abc'"),
], ids=["load-coeffs", "verify-seed", "verify-seed-not-integer"])
def test_refused_arguments_exit_2_before_any_output(argv, message, tmp_path, out_dir,
                                                    capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_cfg(tmp_path, CFG)

    def no_data(cfg):
        raise AssertionError("data was read before the arguments were refused")

    monkeypatch.setattr(train, "load_datasets", no_data)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert not out_dir.exists()


def test_truncated_gzip_idx_exits_2_before_any_output(tmp_path, out_dir, capsys):
    rng = np.random.Generator(np.random.PCG64(0))
    imgs, labs = tmp_path / "images.idx.gz", tmp_path / "labels.idx"
    write_idx_images(imgs, rng.integers(0, 255, (40, 2, 2)).astype(np.uint8))
    write_idx_labels(labs, rng.integers(0, 2, 40).astype(np.uint8))
    imgs.write_bytes(imgs.read_bytes()[:-10])
    text = CFG.replace(
        "kind = synthetic\nn = 40\nfeatures = 5\nclasses = 2\ntest_n = 16",
        f"kind = idx\nimages = {imgs}\nlabels = {labs}\nclasses = 2",
    ).replace("input = 5", "input = 4").replace("dense 5 4", "dense 4 4")
    assert main(["train", "--config", str(_write_cfg(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: dataset.images: {imgs}: corrupt gzip stream")
    assert not out_dir.exists()


def test_readme_cli_block_names_every_subcommand():
    # and each subcommand's flags, so that a deleted flag cannot stay documented
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    named = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
             for line in block.splitlines() if line.startswith("fngd ")}
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in parser._actions for s in a.option_strings
                    if s.startswith("--") and s != "--help"}
             for name, parser in sub.choices.items()}
    assert named == flags


def test_readme_verify_bullet_names_every_check():
    # in the order verify prints them
    readme = (ROOT / "README.md").read_text()
    bullet = re.search(r"\n\* `verify` runs (.*?)\n\* ", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", bullet) == [r.name for r in theory.run_checks()]


def test_readme_layout_table_names_every_module_once():
    # each module of the package but __init__, and no other
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"## Package layout\n\n(.*?)\n\n", readme, re.S).group(1)
    named = re.findall(r"^\| `fngd\.(\w+)` \|", table, re.M)
    modules = [p.stem for p in (ROOT / "src" / "fngd").glob("*.py") if p.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_missing_config_exits_2(tmp_path, out_dir, capsys):
    assert main(["train", "--config", str(tmp_path / "ghost.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_runs_are_reproducible_modulo_wall_time(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, CFG)

    def run(name):
        monkeypatch.setenv("FNGD_OUTPUT_DIR", str(tmp_path / name))
        assert main(["train", "--config", str(cfg)]) == 0
        rows = _read_metrics(tmp_path / name / "metrics.csv")
        for r in rows:
            r["wall_ms"] = ""
        return rows

    assert run("a") == run("b")


def test_bench_writes_phase_table(tmp_path, out_dir):
    text = CFG.replace("epochs = 2", "epochs = 4").replace("n = 40", "n = 24")
    text = text.replace("batch_size = 8", "batch_size = 6")
    cfg = _write_cfg(tmp_path, text)
    assert main(["bench", "--config", str(cfg)]) == 0
    lines = (out_dir / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("# fngd-bench-v2")
    rows = list(csv.DictReader(lines[1:]))
    assert tuple(rows[0].keys()) == (
        "variant", "optimizer", "phase", "epochs_timed", "median_epoch_ms",
        "ratio_vs_sgd", "final_test_accuracy")
    assert [(r["variant"], r["optimizer"], r["phase"]) for r in rows] == [
        ("sgd", "sgd", "all"),
        ("fngd", "fngd", "epoch1"), ("fngd", "fngd", "shared"),
        ("ngd_smw", "ngd_smw", "all"),
        ("fngd_explicit", "fngd_explicit", "epoch1"),
        ("fngd_explicit", "fngd_explicit", "shared"),
        ("fixed_damping", "fngd", "epoch1"), ("fixed_damping", "fngd", "shared"),
    ]
    sgd = next(r for r in rows if r["variant"] == "sgd")
    assert float(sgd["ratio_vs_sgd"]) == 1.0
    assert all(float(r["median_epoch_ms"]) > 0 for r in rows)
    assert all(0.0 <= float(r["final_test_accuracy"]) <= 1.0 for r in rows)


def test_bench_needs_four_epochs(tmp_path, out_dir, capsys):
    cfg = _write_cfg(tmp_path, CFG.replace("epochs = 2", "epochs = 3"))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert "at least 4 epochs" in capsys.readouterr().err


DEGENERATE = """\
[dataset]
kind = synthetic
n = 32
features = 4
classes = 2
test_n = 8

[model]
input = 4
layer = dense 4 2 nobias

[train]
optimizer = {kind}
lr = {lr}
epochs = 3
batch_size = 8
seed = 7
{extra}
"""


def test_huge_fixed_damping_collapses_to_sgd(tmp_path, monkeypatch):
    # with lam fixed at 1e12 the coefficients flatten to 1/M and the
    # update is (lr/lam) times the batch gradient; lr = lam * 0.05
    # must therefore track plain sgd at 0.05
    lam = 1e12
    fngd_cfg = _write_cfg(
        tmp_path,
        DEGENERATE.format(kind="fngd", lr=repr(lam * 0.05),
                          extra=f"fixed_damping = {lam!r}"),
        name="fngd.cfg")
    sgd_cfg = _write_cfg(
        tmp_path, DEGENERATE.format(kind="sgd", lr="0.05", extra=""),
        name="sgd.cfg")

    def final_losses(cfg, name):
        monkeypatch.setenv("FNGD_OUTPUT_DIR", str(tmp_path / name))
        assert main(["train", "--config", str(cfg)]) == 0
        rows = _read_metrics(tmp_path / name / "metrics.csv")
        return {(r["epoch"], r["split"]): float(r["loss"]) for r in rows}

    a = final_losses(fngd_cfg, "fngd_run")
    b = final_losses(sgd_cfg, "sgd_run")
    assert a.keys() == b.keys()
    for key in a:
        assert abs(a[key] - b[key]) <= 1e-4 * max(1.0, abs(b[key]))

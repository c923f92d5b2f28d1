"""Config grammar and the typed loader."""

import operator
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from fngd import config, train
from fngd.config import ConfigError, load_train_config, parse_config

ROOT = Path(__file__).resolve().parents[1]

BASE = """\
[dataset]
kind = synthetic
n = 60
features = 5
classes = 2
test_n = 20

[model]
input = 5
layer = dense 5 4
layer = relu
layer = dense 4 2

[train]
optimizer = fngd
lr = 0.5
epochs = 3
batch_size = 10
seed = 1
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- grammar

def test_parse_sections_keys_and_comments():
    text = """
    # a comment
    ; another comment
    [alpha]
    x = 1
    y = a = b

    [beta]
    x = 2
    x = 3
    """
    got = parse_config(text)
    assert got == {
        "alpha": {"x": ["1"], "y": ["a = b"]},
        "beta": {"x": ["2", "3"]},
    }


def test_parse_errors_carry_location():
    with pytest.raises(ConfigError, match=r"spot:1: key outside any \[section\]"):
        parse_config("x = 1", where="spot")
    with pytest.raises(ConfigError, match="spot:2: empty section name"):
        parse_config("# ok\n[  ]", where="spot")
    with pytest.raises(ConfigError, match="spot:3: expected 'key = value'"):
        parse_config("\n[a]\nnonsense", where="spot")


def test_parse_blank_values_and_whitespace():
    got = parse_config("[s]\n  padded   =   v  \nempty =")
    assert got == {"s": {"padded": ["v"], "empty": [""]}}


# ----------------------------------------------------------------- loader

def test_full_config_loads(tmp_path):
    cfg = load_train_config(_write(tmp_path, BASE))
    assert cfg.dataset.kind == "synthetic"
    assert cfg.dataset.n == 60
    assert cfg.model.input_shape == (5,)
    assert [l.kind for l in cfg.model.layers] == ["dense", "relu", "dense"]
    assert cfg.model.layers[0].dims == (5, 4)
    assert cfg.optim.kind == "fngd"
    assert cfg.optim.lr == 0.5
    assert cfg.optim.alpha == 0.005
    assert cfg.epochs == 3
    assert cfg.batch_size == 10
    assert cfg.seed == 1
    assert str(cfg.metrics_path) == "out/metrics.csv"
    assert cfg.coeffs_path is None


def test_out_dir_redirects_outputs(tmp_path):
    text = BASE + "\n[output]\nmetrics = deep/custom.csv\ncoeffs = table.csv\n"
    cfg = load_train_config(_write(tmp_path, text), out_dir=tmp_path / "redirect")
    assert cfg.metrics_path == tmp_path / "redirect" / "custom.csv"
    assert cfg.coeffs_path == tmp_path / "redirect" / "table.csv"
    assert cfg.bench_path == tmp_path / "redirect" / "bench.csv"


def test_conv_layer_grammar(tmp_path):
    text = BASE.replace(
        "input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
        "input = 1 4 4\nlayer = conv 1 2 3 valid nobias\nlayer = relu\n"
        "layer = dense 8 2",
    )
    cfg = load_train_config(_write(tmp_path, text))
    conv = cfg.model.layers[0]
    assert conv.kind == "conv"
    assert conv.dims == (1, 2, 3)
    assert conv.padding == "valid"
    assert not conv.bias
    assert cfg.model.input_shape == (1, 4, 4)


def test_nobias_dense(tmp_path):
    text = BASE.replace("layer = dense 4 2", "layer = dense 4 2 nobias")
    cfg = load_train_config(_write(tmp_path, text))
    assert not cfg.model.layers[2].bias
    assert cfg.model.layers[0].bias


@pytest.mark.parametrize(
    "mangle,message",
    [
        (("epochs = 3", "# gone"), r"train\.epochs: required key is missing"),
        (("optimizer = fngd", "optimizer = warp"), r"train\.optimizer: unknown optimizer"),
        (("lr = 0.5", "lr = 0"), r"train\.lr: must be positive"),
        (("lr = 0.5", "lr = fast"), r"train\.lr: bad value 'fast'"),
        (("epochs = 3", "epochs = 0"), r"train\.epochs: must be positive"),
        (("batch_size = 10", "batch_size = 1"), r"fngd needs at least 2 samples"),
        (("epochs = 3", "epochs = 1"), r"fngd needs at least 2 epochs"),
        (("seed = 1", "seed = 1\nmilestones = 0.5 1.5"), r"train\.milestones: unknown key"),
        (("seed = 1", "seed = 1\nlr_decay = 0"), r"train\.lr_decay: unknown key"),
        (("seed = 1", "seed = 1\nalpha = -1"), r"train\.alpha: must be positive"),
        (("classes = 2", "classes = 1"), r"dataset\.classes: need at least 2"),
        (("kind = synthetic", "kind = parquet"), r"dataset\.kind: expected synthetic or idx"),
        (("seed = 1", "seed = 1\nfixed_damping = -1"),
         r"train\.fixed_damping: must be positive"),
        (("seed = 1", "seed = 1\nlam_floor = 1e-12"), r"^train\.lam_floor: unknown key$"),
        (("seed = 1", "seed = 1\nmomentum = -3"), r"train\.momentum: unknown key"),
        (("seed = 1", "seed = 1\nbeta1 = 0.9"), r"train\.beta1: unknown key"),
        (("seed = 1", "seed = 1\nbeta2 = 0.999"), r"train\.beta2: unknown key"),
        (("seed = 1", "seed = 1\neps = 1e-8"), r"train\.eps: unknown key"),
        (("seed = 1", "seed = 1\nweight_decay = 0.01"), r"train\.weight_decay: unknown key"),
        (("seed = 1", "seed = 1\nmilestones = 0.75 0.5"), r"train\.milestones: unknown key"),
        (("optimizer = fngd", "optimizer = adamw"),
         r"train\.optimizer: unknown optimizer 'adamw'"),
        (("seed = 1", "seed = -1"), r"train\.seed: must be non-negative"),
    ] + [
        # Cases with ids named after the refused key; cases move here from
        # the end of the list above, which renames none of the cases before them.
        pytest.param(("lr = 0.5", "lr = nan"),
                     r"^train\.lr: must be positive and finite, got nan$", id="train.lr-nan"),
        pytest.param(("lr = 0.5", "lr = inf"),
                     r"^train\.lr: must be positive and finite, got inf$", id="train.lr-inf"),
        pytest.param(("seed = 1", "seed = 1\nalpha = nan"),
                     r"^train\.alpha: must be positive and finite, got nan$",
                     id="train.alpha-nan"),
        pytest.param(("seed = 1", "seed = 1\nfixed_damping = inf"),
                     r"^train\.fixed_damping: must be positive and finite, got inf$",
                     id="train.fixed_damping-inf"),
        pytest.param(("seed = 1", "seed = 1\nalpha = inf"),
                     r"^train\.alpha: must be positive and finite, got inf$",
                     id="train.alpha-inf"),
        pytest.param(("seed = 1", "seed = 1\nfixed_damping = nan"),
                     r"^train\.fixed_damping: must be positive and finite, got nan$",
                     id="train.fixed_damping-nan"),
        pytest.param(("features = 5", "features = 0"),
                     r"^dataset\.features: must be positive, got 0$",
                     id="dataset.features-zero"),
        pytest.param(("classes = 2", "classes = 81"),
                     r"^dataset\.classes: need at least one sample per class, got 81 "
                     r"classes for n \+ test_n = 80$",
                     id="dataset.classes-above-samples"),
        pytest.param(("kind = synthetic\nn = 60\nfeatures = 5\nclasses = 2\ntest_n = 20",
                      "kind = idx\nimages = images.idx\nlabels = labels.idx\nclasses = 1"),
                     r"^dataset\.classes: need at least 2, got 1$",
                     id="dataset.classes-one-idx"),
    ],
)
def test_loader_errors_name_section_and_key(tmp_path, mangle, message, monkeypatch):
    # every case fails in the loader; the config also goes to run_train, so
    # that a check moved out of the loader must still come before any data
    # is read and any file is written
    old, new = mangle
    assert old in BASE

    def no_data(cfg):
        raise AssertionError("data was read before the config was refused")

    monkeypatch.setattr(train, "load_datasets", no_data)
    with pytest.raises(ConfigError, match=message):
        cfg = load_train_config(_write(tmp_path, BASE.replace(old, new)),
                                out_dir=tmp_path / "out")
        train.run_train(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key",
    [
        "train.fngd_momentum",
        "train.fngd_weight_decay",
        "output.gram_dump",
        "dataset.limit",
        "train.alpah",
        "ouput.metrics",
        "train.momentum",
        "train.milestones",
        "train.lr_decay",
    ],
)
def test_unknown_keys_are_refused(tmp_path, key):
    section, name = key.split(".")
    text = BASE + f"\n[{section}]\n{name} = 1\n"
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: unknown key$"):
        load_train_config(_write(tmp_path, text))


def test_readme_config_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = load_train_config(_write(tmp_path, block))
    assert cfg.dataset.kind == "synthetic"
    assert cfg.optim.kind == "fngd"
    assert cfg.optim.alpha == 0.5
    assert str(cfg.coeffs_path) == "out/coeffs.csv"


def _readme_key_rows():
    """(section, keys, default cell) for each row of README's config table."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| section | key | default |\n| --- | --- | --- |\n")[1]
    section = None
    for row in table.split("\n\n")[0].splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        section = cells[0].strip("`") or section
        yield section, re.findall(r"`(\w+)`", cells[1]), cells[2]


def test_readme_key_table_matches_loader(tmp_path, monkeypatch):
    named = {(section, key) for section, keys, _ in _readme_key_rows() for key in keys}

    # every key the loader takes out of a section, by _one or directly
    read = set()
    real_parse = config.parse_config

    class Recording(dict):
        def __init__(self, name, keys):
            super().__init__(keys)
            self.name = name

        def pop(self, key, *default):
            read.add((self.name, key))
            return super().pop(key, *default)

    def recording(text, where):
        return {name: Recording(name, keys) for name, keys in real_parse(text, where).items()}

    monkeypatch.setattr(config, "parse_config", recording)
    load_train_config(_write(tmp_path, BASE + "[output]\nmetrics = m.csv\n"))
    # an idx dataset reads its own keys before it finds the images missing
    idx = BASE.replace("kind = synthetic\nn = 60\nfeatures = 5\nclasses = 2\ntest_n = 20",
                       "kind = idx")
    with pytest.raises(ConfigError, match=r"^dataset\.images: required"):
        load_train_config(_write(tmp_path, idx))
    assert sorted(named - read) == [], "README names keys the loader refuses"
    assert sorted(read - named) == [], "README leaves out keys the loader reads"


# Where the loaded config holds each key that has a default; model.loss is
# held nowhere, since cross_entropy is the one value the loader takes.
DEFAULT_FIELDS = {
    ("dataset", "kind"): "dataset.kind",
    ("dataset", "classes"): "dataset.classes",
    ("dataset", "n"): "dataset.n",
    ("dataset", "features"): "dataset.features",
    ("dataset", "test_n"): "dataset.test_n",
    ("dataset", "test_images"): "dataset.test_images",
    ("dataset", "test_labels"): "dataset.test_labels",
    ("model", "loss"): None,
    ("train", "optimizer"): "optim.kind",
    ("train", "lr"): "optim.lr",
    ("train", "seed"): "seed",
    ("train", "alpha"): "optim.alpha",
    ("train", "fixed_damping"): "optim.fixed_damping",
    ("output", "metrics"): "metrics_path",
    ("output", "coeffs"): "coeffs_path",
    ("output", "bench"): "bench_path",
}


def test_readme_key_table_defaults_match_loader(tmp_path):
    # a config of the required keys alone, so every other key takes its default
    cfg = load_train_config(_write(tmp_path, "[model]\ninput = 20\nlayer = dense 20 2\n"
                                             "[train]\nepochs = 2\nbatch_size = 4\n"))
    checked = set()
    for section, keys, cell in _readme_key_rows():
        default = cell.split(";")[0]
        if default.startswith("required"):
            continue
        values = [value.strip() for value in default.split(",")]
        if len(values) == 1:
            values *= len(keys)
        assert len(values) == len(keys), f"{section}: {cell!r} gives no default per key"
        for key, value in zip(keys, values):
            assert re.fullmatch(r"none|`[^`]+`", value), f"{section}.{key}: {value!r}"
            checked.add((section, key))
            field = DEFAULT_FIELDS[(section, key)]
            if field is None:
                continue
            loaded = operator.attrgetter(field)(cfg)
            shown = None if loaded is None else str(loaded)
            assert shown == (None if value == "none" else value.strip("`")), f"{section}.{key}"
    assert checked == set(DEFAULT_FIELDS)


def test_shipped_configs_load():
    paths = sorted((ROOT / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        load_train_config(path)


def test_loader_model_errors(tmp_path):
    bad_input = BASE.replace("input = 5", "input = 5 5")
    with pytest.raises(ConfigError, match=r"model\.input: expected"):
        load_train_config(_write(tmp_path, bad_input))
    bad_layer = BASE.replace("layer = dense 5 4", "layer = dense 5")
    with pytest.raises(ConfigError, match=r"model\.layer\[0\]: expected 'dense"):
        load_train_config(_write(tmp_path, bad_layer))
    bad_kind = BASE.replace("layer = relu", "layer = pool 2")
    with pytest.raises(ConfigError, match=r"model\.layer\[1\]: unknown layer kind"):
        load_train_config(_write(tmp_path, bad_kind))
    bad_loss = BASE.replace("[train]", "loss = hinge\n[train]")
    with pytest.raises(ConfigError, match=r"model\.loss: only cross_entropy trains"):
        load_train_config(_write(tmp_path, bad_loss))
    no_layers = BASE.replace("layer = dense 5 4\nlayer = relu\nlayer = dense 4 2", "")
    with pytest.raises(ConfigError, match=r"model\.layer: need at least one"):
        load_train_config(_write(tmp_path, no_layers))
    bad_pad = BASE.replace("layer = relu", "layer = conv 1 2 3 wide")
    with pytest.raises(ConfigError, match="padding must be same or valid"):
        load_train_config(_write(tmp_path, bad_pad))


def test_repeated_scalar_key_rejected(tmp_path):
    text = BASE.replace("lr = 0.5", "lr = 0.5\nlr = 0.6")
    with pytest.raises(ConfigError, match=r"train\.lr: given 2 times"):
        load_train_config(_write(tmp_path, text))


def test_sgd_allows_single_sample_batches(tmp_path):
    text = BASE.replace("optimizer = fngd", "optimizer = sgd")
    text = text.replace("batch_size = 10", "batch_size = 1")
    text = text.replace("epochs = 3", "epochs = 1")
    cfg = load_train_config(_write(tmp_path, text))
    assert cfg.batch_size == 1


def test_idx_dataset_requires_existing_files(tmp_path):
    imgs = tmp_path / "train.idx"
    labs = tmp_path / "labels.idx"
    rng = np.random.Generator(np.random.PCG64(0))
    write_idx_images(imgs, rng.integers(0, 255, (6, 4, 4)).astype(np.uint8))
    write_idx_labels(labs, np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8))
    text = BASE.replace(
        "kind = synthetic\nn = 60\nfeatures = 5\nclasses = 2\ntest_n = 20",
        f"kind = idx\nimages = {imgs}\nlabels = {labs}",
    ).replace("input = 5", "input = 16").replace("dense 5 4", "dense 16 4")
    cfg = load_train_config(_write(tmp_path, text))
    assert cfg.dataset.images == str(imgs)

    with pytest.raises(ConfigError, match=r"dataset\.labels: required"):
        load_train_config(_write(tmp_path, text.replace(f"labels = {labs}\n", ""),
                                 name="a.cfg"))
    with pytest.raises(ConfigError, match="file not found"):
        load_train_config(
            _write(tmp_path, text.replace(str(imgs), str(tmp_path / "ghost.idx")),
                   name="b.cfg"))
    with pytest.raises(ConfigError, match="give both or neither"):
        lopsided = text.replace(f"labels = {labs}",
                                f"labels = {labs}\ntest_images = {imgs}")
        load_train_config(_write(tmp_path, lopsided, name="c.cfg"))


@pytest.mark.parametrize("line", ["n = 16", "features = 3", "test_n = 7"])
def test_idx_dataset_refuses_synthetic_keys(tmp_path, line):
    imgs = tmp_path / "train.idx"
    labs = tmp_path / "labels.idx"
    rng = np.random.Generator(np.random.PCG64(0))
    write_idx_images(imgs, rng.integers(0, 255, (6, 4, 4)).astype(np.uint8))
    write_idx_labels(labs, np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8))
    text = BASE.replace(
        "kind = synthetic\nn = 60\nfeatures = 5\nclasses = 2\ntest_n = 20",
        f"kind = idx\nimages = {imgs}\nlabels = {labs}\nclasses = 2\n{line}",
    ).replace("input = 5", "input = 16").replace("dense 5 4", "dense 16 4")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: not read for idx datasets$"):
        load_train_config(_write(tmp_path, text))


@pytest.mark.parametrize("key", ["images", "labels", "test_images", "test_labels"])
def test_synthetic_dataset_refuses_idx_keys(tmp_path, key):
    text = BASE.replace("test_n = 20", f"test_n = 20\n{key} = data.idx")
    with pytest.raises(ConfigError,
                       match=rf"^dataset\.{key}: not read for synthetic datasets$"):
        load_train_config(_write(tmp_path, text))

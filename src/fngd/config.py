"""Run configuration: a line-oriented text format and its typed form.

Grammar, in full:

* blank lines and lines starting with ``#`` or ``;`` are ignored;
* ``[section]`` opens a section; every key needs one;
* everything else must be ``key = value`` (first ``=`` splits);
* repeating a key appends, so list-valued keys (``layer``) just repeat.

Values are plain strings until the typed loader casts them; errors out
of the loader always name ``section.key``, and the loader refuses any
key it does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import core

__all__ = [
    "ConfigError",
    "parse_config",
    "LayerSpec",
    "ModelSpec",
    "DatasetSpec",
    "OptimSpec",
    "TrainConfig",
    "load_train_config",
]

OPTIMIZERS = ("sgd", "sgd_momentum", "ngd_smw", "fngd", "fngd_explicit")
# Optimizers whose steps build each layer's per-sample gradient Gram.
PRECONDITIONED = ("ngd_smw", "fngd", "fngd_explicit")
# Optimizers that build a coefficient table in epoch one and share it after.
SHARING = ("fngd", "fngd_explicit")


class ConfigError(ValueError):
    pass


def parse_config(text: str, where: str = "<config>") -> dict[str, dict[str, list[str]]]:
    sections: dict[str, dict[str, list[str]]] = {}
    current: dict[str, list[str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{where}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{where}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        current.setdefault(key.strip(), []).append(value.strip())
    return sections


@dataclass(frozen=True)
class LayerSpec:
    kind: str                        # dense | conv | relu
    dims: tuple[int, ...] = ()       # dense: (in, out); conv: (in_ch, out_ch, kernel)
    padding: str = "same"
    bias: bool = True


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple[int, ...]     # (features,) or (channels, height, width)
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class DatasetSpec:
    kind: str                        # synthetic | idx
    n: int = 2000
    features: int = 20
    classes: int = 2
    test_n: int = 400
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None


@dataclass(frozen=True)
class OptimSpec:
    kind: str
    lr: float = 0.1
    alpha: float = core.DampingRule.alpha
    fixed_damping: float | None = None
    lam_floor = core.DampingRule.floor  # not a key; perfbench/tracing.py reads it


@dataclass(frozen=True)
class TrainConfig:
    dataset: DatasetSpec
    model: ModelSpec
    optim: OptimSpec
    epochs: int
    batch_size: int
    seed: int
    metrics_path: Path = Path("out/metrics.csv")
    coeffs_path: Path | None = None
    bench_path: Path = Path("out/bench.csv")


_REQUIRED = object()


def _one(sections, section: str, key: str, default=_REQUIRED, cast=str):
    """Take one key out of `sections`, so that what is left unread at
    the end is refused as unknown."""
    values = sections.get(section, {}).pop(key, None)
    if values is None:
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required key is missing")
        return default
    if len(values) > 1:
        raise ConfigError(f"{section}.{key}: given {len(values)} times, expected once")
    try:
        return cast(values[0])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: bad value {values[0]!r} ({exc})") from exc


# Each weighted layer kind's usage and the count of integers it starts with.
_LAYER_USAGE = {
    "dense": ("dense <in> <out> [nobias]", 2),
    "conv": ("conv <in_ch> <out_ch> <kernel> [same|valid] [nobias]", 3),
}


def _parse_layer(raw: str, index: int) -> LayerSpec:
    where = f"model.layer[{index}]"
    parts = raw.split()
    if not parts:
        raise ConfigError(f"{where}: empty layer line")
    kind = parts[0]
    rest = parts[1:]
    if kind == "relu":
        if rest:
            raise ConfigError(f"{where}: relu takes no arguments, got {raw!r}")
        return LayerSpec("relu")
    bias = True
    if rest and rest[-1] == "nobias":
        bias = False
        rest = rest[:-1]
    if kind not in _LAYER_USAGE:
        raise ConfigError(f"{where}: unknown layer kind {kind!r}")
    usage, count = _LAYER_USAGE[kind]
    padding = LayerSpec.padding
    if kind == "conv" and len(rest) == count + 1:
        padding = rest.pop()
        if padding not in ("same", "valid"):
            raise ConfigError(f"{where}: padding must be same or valid, got {padding!r}")
    if len(rest) != count:
        raise ConfigError(f"{where}: expected '{usage}', got {raw!r}")
    try:
        dims = tuple(int(p) for p in rest)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad dimension in {raw!r}") from exc
    if min(dims) < 1:
        raise ConfigError(f"{where}: dimensions must be positive, got {dims}")
    return LayerSpec(kind, dims, padding=padding, bias=bias)


def _parse_model(sections) -> ModelSpec:
    model = sections.get("model")
    if not model:
        raise ConfigError("model: section is missing")
    raw_input = _one(sections, "model", "input")
    try:
        shape = tuple(int(p) for p in raw_input.split())
    except ValueError as exc:
        raise ConfigError(f"model.input: bad shape {raw_input!r}") from exc
    if len(shape) not in (1, 3) or min(shape) < 1:
        raise ConfigError(
            f"model.input: expected '<features>' or '<channels> <height> <width>', "
            f"got {raw_input!r}"
        )
    raw_layers = model.pop("layer", None)
    if not raw_layers:
        raise ConfigError("model.layer: need at least one layer")
    layers = tuple(_parse_layer(raw, i) for i, raw in enumerate(raw_layers))
    # Both dataset kinds give class labels, so cross-entropy is the one loss
    # a run trains with; configs may still spell it out.
    loss = _one(sections, "model", "loss", default="cross_entropy")
    if loss != "cross_entropy":
        raise ConfigError(f"model.loss: only cross_entropy trains on class labels, "
                          f"got {loss!r}")
    return ModelSpec(shape, layers)


# The dataset keys each kind reads.  A key that only the other kind reads
# is refused by name, so it cannot look as if it had been applied.
DATASET_KEYS = {
    "synthetic": ("n", "features", "classes", "test_n"),
    "idx": ("images", "labels", "test_images", "test_labels", "classes"),
}


def _parse_dataset(sections) -> DatasetSpec:
    kind = _one(sections, "dataset", "kind", default="synthetic")
    if kind not in DATASET_KEYS:
        raise ConfigError(f"dataset.kind: expected synthetic or idx, got {kind!r}")
    read = DATASET_KEYS[kind]
    for key in sections.get("dataset", {}):
        if key not in read and any(key in keys for keys in DATASET_KEYS.values()):
            raise ConfigError(f"dataset.{key}: not read for {kind} datasets")
    classes = _one(sections, "dataset", "classes", default=DatasetSpec.classes, cast=int)
    if classes < 2:
        raise ConfigError(f"dataset.classes: need at least 2, got {classes}")
    cast = int if kind == "synthetic" else str
    values = {key: _one(sections, "dataset", key, default=getattr(DatasetSpec, key), cast=cast)
              for key in read if key != "classes"}
    spec = DatasetSpec(kind=kind, classes=classes, **values)
    if kind == "synthetic":
        if spec.n < 1:
            raise ConfigError(f"dataset.n: must be positive, got {spec.n}")
        if spec.features < 1:
            raise ConfigError(f"dataset.features: must be positive, got {spec.features}")
        if spec.test_n < 0:
            raise ConfigError(f"dataset.test_n: must be non-negative, got {spec.test_n}")
        if spec.classes > spec.n + spec.test_n:
            raise ConfigError(f"dataset.classes: need at least one sample per class, got "
                              f"{spec.classes} classes for n + test_n = {spec.n + spec.test_n}")
    else:
        if not spec.images:
            raise ConfigError("dataset.images: required for idx datasets")
        if not spec.labels:
            raise ConfigError("dataset.labels: required for idx datasets")
        for key, value in values.items():
            if value and not Path(value).exists():
                raise ConfigError(f"dataset.{key}: file not found: {value}")
        if (spec.test_images is None) != (spec.test_labels is None):
            raise ConfigError("dataset.test_images/test_labels: give both or neither")
    return spec


def load_train_config(path, out_dir=None) -> TrainConfig:
    """Parse and validate a full training config.

    out_dir, when given, redirects every output path into that
    directory (file names kept).  A key that no part of the loader reads
    is refused, so that a misspelled key or section cannot silently fall
    back to a default.  Checks that need the built network or the data
    are made by the training entry points, before their first output.
    """
    path = Path(path)
    sections = parse_config(path.read_text(), where=str(path))
    dataset = _parse_dataset(sections)
    model = _parse_model(sections)

    kind = _one(sections, "train", "optimizer", default="fngd")
    if kind not in OPTIMIZERS:
        raise ConfigError(f"train.optimizer: unknown optimizer {kind!r}")
    optim = OptimSpec(
        kind=kind,
        lr=_one(sections, "train", "lr", default=OptimSpec.lr, cast=float),
        alpha=_one(sections, "train", "alpha", default=OptimSpec.alpha, cast=float),
        fixed_damping=_one(sections, "train", "fixed_damping", default=None, cast=float),
    )
    for key in ("lr", "alpha", "fixed_damping"):
        value = getattr(optim, key)
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"train.{key}: must be positive and finite, got {value}")

    epochs = _one(sections, "train", "epochs", default=_REQUIRED, cast=int)
    batch_size = _one(sections, "train", "batch_size", default=_REQUIRED, cast=int)
    seed = _one(sections, "train", "seed", default=0, cast=int)
    if epochs < 1:
        raise ConfigError(f"train.epochs: must be positive, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"train.batch_size: must be positive, got {batch_size}")
    if seed < 0:
        raise ConfigError(f"train.seed: must be non-negative, got {seed}")

    if kind in PRECONDITIONED and batch_size < 2:
        raise ConfigError(
            f"train.batch_size: {kind} needs at least 2 samples per batch, got {batch_size}"
        )
    if kind in SHARING and epochs < 2:
        raise ConfigError(
            f"train.epochs: {kind} needs at least 2 epochs (epoch one computes "
            f"the shared coefficients), got {epochs}"
        )

    metrics_path = Path(_one(sections, "output", "metrics", default=TrainConfig.metrics_path))
    bench_path = Path(_one(sections, "output", "bench", default=TrainConfig.bench_path))
    raw_coeffs = _one(sections, "output", "coeffs", default=None)
    coeffs_path = Path(raw_coeffs) if raw_coeffs else None
    unknown = [f"{section}.{key}" for section, keys in sections.items() for key in keys]
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")
    if out_dir is not None:
        out_dir = Path(out_dir)
        metrics_path = out_dir / metrics_path.name
        bench_path = out_dir / bench_path.name
        if coeffs_path is not None:
            coeffs_path = out_dir / coeffs_path.name

    return TrainConfig(
        dataset=dataset,
        model=model,
        optim=optim,
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        metrics_path=metrics_path,
        coeffs_path=coeffs_path,
        bench_path=bench_path,
    )

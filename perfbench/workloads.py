"""The three training workloads and the inputs the benchmark makes for them.

Every workload trains a 10-class classifier on synthetic images with
cross-entropy.  The images are written as IDX files and the program reads
them through its own `kind = idx` dataset route, so the data load is part
of what is measured.

Class templates come from a fixed generator, so the geometry of the
problem (how far apart the classes sit) is the same for every seed; the
seed draws the labels and the pixel noise.  The network init and the batch
order use a fixed training seed.  Both choices, and averaging over
DATASETS datasets, keep the final test loss from moving with the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 10
TEMPLATE_SEED = 20240305
TRAIN_SEED = 0
NOISE_SIGMA = 0.25
# Each run draws this many datasets from its seed and trains on them in
# turn, one per round.  The final test loss is averaged over them: one
# small dataset moves the conv workload's loss by about 15% from seed to
# seed, which would swamp any bound on it.
DATASETS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    image: tuple[int, int, int]        # channels, height, width
    layers: tuple[str, ...]            # config `layer =` lines
    batch: int
    n_train: int
    n_test: int
    epochs: int
    lr: float
    separation: float                  # template distance in noise units

    @property
    def features(self) -> int:
        c, h, w = self.image
        return c * h * w

    @property
    def steps_per_epoch(self) -> int:
        return self.n_train // self.batch


# Why each workload is in the set: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-b128",
            image=(1, 28, 28),
            layers=("dense 784 256", "relu", "dense 256 10"),
            batch=128, n_train=2560, n_test=512, epochs=6, lr=1.0, separation=20.0,
        ),
        Workload(
            name="conv-b64",
            image=(3, 12, 12),
            layers=("conv 3 8 3 same", "relu", "conv 8 16 3 valid", "relu",
                    "dense 1600 10"),
            batch=64, n_train=1280, n_test=1024, epochs=6, lr=0.3, separation=30.0,
        ),
        Workload(
            name="mlp-b512",
            image=(1, 14, 14),
            layers=("dense 196 128", "relu", "dense 128 10"),
            batch=512, n_train=10240, n_test=2048, epochs=6, lr=1.0, separation=25.0,
        ),
    )
}


def make_images(wl: Workload, n: int, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """n uint8 images shaped (n, channels*height, width) and their labels.

    Classes are balanced to within one image, so the class mix does not
    move with the seed.
    Pixel m of class k is base + eps * pattern_k + noise, with eps chosen
    so that two class templates sit `separation` noise widths apart.
    """
    d = wl.features
    fixed = np.random.default_rng(TEMPLATE_SEED)
    base = fixed.uniform(0.3, 0.7, d)
    patterns = fixed.standard_normal((CLASSES, d))
    eps = wl.separation * NOISE_SIGMA / np.sqrt(2.0 * d)
    rng = np.random.default_rng([seed, index])
    labels = rng.permutation(np.arange(n) % CLASSES)
    pixels = base + eps * patterns[labels] + NOISE_SIGMA * rng.standard_normal((n, d))
    c, h, w = wl.image
    images = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    return images.reshape(n, c * h, w), labels


def write_idx(path: Path, array: np.ndarray) -> None:
    """Plain IDX file: magic 0x0803 for (n, rows, cols) images, 0x0801 for labels."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    magic = 0x00000803 if arr.ndim == 3 else 0x00000801
    path.write_bytes(struct.pack(f">I{arr.ndim}I", magic, *arr.shape) + arr.tobytes())


@dataclass(frozen=True)
class Inputs:
    fngd_config: Path
    sgd_config: Path
    metrics: dict[str, Path]           # optimizer -> metrics CSV
    coeffs: Path


def write_inputs(wl: Workload, seed: int, work: Path) -> list[Inputs]:
    """The DATASETS datasets of one seed, each in its own directory under `work`."""
    return [write_dataset(wl, seed, index, work / f"data{index}") for index in range(DATASETS)]


def write_dataset(wl: Workload, seed: int, index: int, work: Path) -> Inputs:
    """Write the IDX files and one config per optimizer into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    images, labels = make_images(wl, wl.n_train + wl.n_test, seed, index)
    files = {
        "images": (images[: wl.n_train], labels[: wl.n_train]),
        "test_images": (images[wl.n_train:], labels[wl.n_train:]),
    }
    for key, (img, lab) in files.items():
        write_idx(work / f"{key}.idx", img)
        write_idx(work / f"{key}-labels.idx", lab)
    c, h, w = wl.image
    model_input = f"{c} {h} {w}" if wl.layers[0].startswith("conv") else str(wl.features)
    metrics = {kind: work / f"metrics-{kind}.csv" for kind in ("fngd", "sgd")}
    coeffs = work / "coeffs.csv"
    configs = {}
    for kind in ("fngd", "sgd"):
        lines = [
            "[dataset]",
            "kind = idx",
            f"images = {work / 'images.idx'}",
            f"labels = {work / 'images-labels.idx'}",
            f"test_images = {work / 'test_images.idx'}",
            f"test_labels = {work / 'test_images-labels.idx'}",
            f"classes = {CLASSES}",
            "[model]",
            f"input = {model_input}",
            *(f"layer = {layer}" for layer in wl.layers),
            "loss = cross_entropy",
            "[train]",
            f"optimizer = {kind}",
            f"lr = {wl.lr!r}",
            f"epochs = {wl.epochs}",
            f"batch_size = {wl.batch}",
            f"seed = {TRAIN_SEED}",
            "[output]",
            f"metrics = {metrics[kind]}",
        ]
        if kind == "fngd":
            lines.append(f"coeffs = {coeffs}")
        configs[kind] = work / f"{kind}.cfg"
        configs[kind].write_text("\n".join(lines) + "\n")
    return Inputs(configs["fngd"], configs["sgd"], metrics, coeffs)

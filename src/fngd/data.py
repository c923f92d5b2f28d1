"""Datasets and deterministic batching.

Two sources are supported: IDX files (the MNIST container format,
optionally gzip-compressed) and synthetic Gaussian-cluster
classification problems.  Shuffling is driven by numpy's PCG64
generator seeded per epoch with base_seed + epoch_index, so a (seed,
epoch) pair pins the whole batch sequence for a given numpy build.
Bit-equality across different builds is not promised.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "IdxFormatError",
    "Dataset",
    "load_idx",
    "synthetic_classification",
    "batches",
    "split",
]

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

# Any header whose element count exceeds this is treated as corrupt.
_MAX_IDX_ELEMENTS = 1 << 40


class IdxFormatError(ValueError):
    """Malformed IDX content: bad magic, corrupt dims, or short payload."""


@dataclass
class Dataset:
    """Feature matrix (features x samples) plus a 1-D integer vector of
    class indices, one per sample.

    The matrix is held as its loader made it: IDX images as the file's
    uint8 pixels, synthetic data as float64.  Training and evaluation read
    samples through `columns`, which hands back float64 features.  Both
    loaders build the matrix sample-major, each sample's features
    contiguous (F order).  A batch `columns(idx)` and an evaluation slice
    `columns(slice(a, b))` are then F-contiguous too, and `nn.forward`
    hands them to BLAS as they are, without a transposing copy.
    """

    inputs: np.ndarray
    targets: np.ndarray
    num_classes: int | None = None

    def __post_init__(self):
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.inputs.dtype not in (np.uint8, np.float64):
            raise ValueError(f"inputs must be uint8 pixels or float64, "
                             f"got {self.inputs.dtype}")
        if self.inputs.dtype == np.float64 and not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be finite")
        n = self.inputs.shape[1]
        t = self.targets
        if t.ndim != 1:
            raise ValueError(f"targets must be a 1-D vector of class indices, "
                             f"got shape {t.shape}")
        if t.shape[0] != n:
            raise ValueError(f"{t.shape[0]} targets for {n} samples")
        if self.num_classes is not None and t.size:
            if int(t.min()) < 0 or int(t.max()) >= self.num_classes:
                raise ValueError(
                    f"class index out of range: saw {int(t.max())} "
                    f"with {self.num_classes} classes"
                )

    def columns(self, cols) -> np.ndarray:
        """float64 features of the samples `cols`, an index array or a slice.

        uint8 pixels are scaled to [0, 1] here, bit for bit the value
        `pixels.astype(np.float64) / 255.0` gives; float64 inputs come
        back as they are, a view for a slice.
        """
        x = self.inputs[:, cols]
        return x / 255.0 if x.dtype == np.uint8 else x

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.inputs.shape[0]


def load_idx(path) -> np.ndarray:
    """Read one IDX file.

    Images (magic 0x00000803) come back as the file's uint8 pixels, a
    (rows*cols, n) read-only view of the bytes read: the transpose of a
    C-contiguous (n, rows*cols) array, so each image's pixels stay
    contiguous and every batch of columns is F-contiguous.  `Dataset.columns`
    scales them to [0, 1] for the samples a step or an evaluation chunk
    reads.  Labels (magic 0x00000801) come back as a 1-D int64 vector.
    Gzip payloads are detected by their two-byte prefix.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip stream ({exc})") from exc
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated IDX header")
    magic = int.from_bytes(raw[:4], "big")
    if magic == IDX_MAGIC_LABELS:
        ndim = 1
    elif magic == IDX_MAGIC_IMAGES:
        ndim = 3
    else:
        raise IdxFormatError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_IDX_ELEMENTS:
        raise IdxFormatError(f"{path}: IDX dimensions overflow: {dims}")
    if len(raw) - header < count:
        raise IdxFormatError(
            f"{path}: truncated IDX payload: header promises {count} bytes, "
            f"file holds {len(raw) - header}"
        )
    data = np.frombuffer(raw, np.uint8, count, offset=header)
    if magic == IDX_MAGIC_LABELS:
        return data.astype(np.int64)
    n, rows, cols = dims
    return data.reshape(n, rows * cols).T


def synthetic_classification(n: int, d: int, k: int, seed: int) -> Dataset:
    """Gaussian clusters around k unit-norm random means, fully seeded.

    The cluster spread sigma is capped at a quarter of the smallest
    pairwise mean distance (so the means sit at least 4 sigma apart and
    the classes stay linearly separable), and class counts are balanced
    to within one sample.  Column order is shuffled; the shuffle leaves
    the matrix sample-major (F-contiguous), the layout `Dataset` keeps.
    """
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if n < k:
        raise ValueError(f"need at least one sample per class: n={n}, k={k}")
    if d < 1:
        raise ValueError(f"need at least one feature, got {d}")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = rng.standard_normal((k, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    gaps = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    min_gap = float(gaps[~np.eye(k, dtype=bool)].min())
    if min_gap <= 0.0:
        raise ValueError(f"degenerate cluster means for seed {seed}")
    sigma = min(0.2, min_gap / 4.0)

    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    inputs = np.empty((d, n))
    targets = np.empty(n, dtype=np.int64)
    pos = 0
    for c, cnt in enumerate(counts):
        inputs[:, pos : pos + cnt] = means[c][:, None] + sigma * rng.standard_normal((d, cnt))
        targets[pos : pos + cnt] = c
        pos += cnt
    perm = rng.permutation(n)
    return Dataset(inputs[:, perm], targets[perm], num_classes=k)


def batches(n: int, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Index arrays for one epoch: a PCG64(epoch_seed) permutation of the
    n samples cut into batches of batch_size.  The trailing partial batch
    is dropped, so every batch holds exactly batch_size samples.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")
    order = np.random.Generator(np.random.PCG64(epoch_seed)).permutation(n)
    return [order[b * batch_size:(b + 1) * batch_size] for b in range(n // batch_size)]


def split(ds: Dataset, n_first: int) -> tuple[Dataset, Dataset]:
    """Cut a dataset into its first n_first columns and the rest."""
    if not 0 < n_first < ds.n:
        raise ValueError(f"split point {n_first} outside (0, {ds.n})")
    first = Dataset(ds.inputs[:, :n_first], ds.targets[:n_first], ds.num_classes)
    rest = Dataset(ds.inputs[:, n_first:], ds.targets[n_first:], ds.num_classes)
    return first, rest

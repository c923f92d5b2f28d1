"""Shared numeric helpers and IDX fixture writers for the test suite."""

import gzip
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

# The suite leaves no bytecode beside the package sources, so a tested
# checkout runs the same files as a fresh one.
sys.dont_write_bytecode = True

from fngd.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS


def _rel_err(got, want):
    """Max-norm relative error with a floor against zero references."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(float(np.abs(want).max(initial=0.0)), 1e-30)
    return float(np.abs(got - want).max(initial=0.0)) / denom


def _fd_grad(loss_fn, param):
    """Central finite differences of a scalar function w.r.t. one array.

    The array is perturbed in place entry by entry with a step scaled to
    the entry's magnitude, and restored exactly afterwards.
    """
    g = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = float(param[ix])
        h = 1e-6 * (1.0 + abs(orig))
        param[ix] = orig + h
        hi = loss_fn()
        param[ix] = orig - h
        lo = loss_fn()
        param[ix] = orig
        g[ix] = (hi - lo) / (2.0 * h)
    return g


def _per_sample_grad_dense(capture, m):
    """Weight gradient of sample m of a dense layer, outer(z_m, x_m): an
    oracle for the dense Gram and preconditioning routes, which never
    form it."""
    batch = capture.z.shape[1]
    if not 0 <= m < batch:
        raise IndexError(f"sample index {m} out of range for batch of {batch}")
    return np.outer(capture.z[:, m], capture.x[:, m])


def _write_bytes(path, blob: bytes) -> None:
    path = Path(path)
    if path.suffix == ".gz":
        # mtime pinned so repeated writes byte-match
        blob = gzip.compress(blob, mtime=0)
    path.write_bytes(blob)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (n, rows, cols) uint8 array as an IDX image file."""
    arr = np.ascontiguousarray(images, dtype=np.uint8)
    if arr.ndim != 3:
        raise ValueError(f"images must be (n, rows, cols), got shape {arr.shape}")
    header = struct.pack(">IIII", IDX_MAGIC_IMAGES, *arr.shape)
    _write_bytes(path, header + arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a 1-D array of small non-negative ints as an IDX label file."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    header = struct.pack(">II", IDX_MAGIC_LABELS, arr.shape[0])
    _write_bytes(path, header + arr.astype(np.uint8).tobytes())


@pytest.fixture
def rel_err():
    return _rel_err


@pytest.fixture
def fd_grad():
    return _fd_grad


@pytest.fixture
def per_sample_grad_dense():
    return _per_sample_grad_dense

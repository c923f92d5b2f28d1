"""IDX parsing, synthetic data, and deterministic batching."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_images, write_idx_labels
from fngd import data


def _write(tmp_path, name, blob):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


# -------------------------------------------------------------- load_idx

def _assert_scaled_columns(pixels, want):
    """Dataset.columns scales uint8 pixels bit for bit to the float64
    `want`, for an index array and for a slice, into F-contiguous batches."""
    ds = data.Dataset(pixels, np.zeros(pixels.shape[1], dtype=np.int64))
    n = pixels.shape[1]
    for cols in (np.arange(n)[::-1], slice(0, n), slice(1, n)):
        got = ds.columns(cols)
        assert got.dtype == np.float64 and got.flags.f_contiguous
        assert got.tobytes(order="F") == want[:, cols].tobytes(order="F")


def test_load_images_hand_bytes(tmp_path):
    # two 2x2 images with pixel bytes 0..7; columns are samples
    blob = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8))
    got = data.load_idx(_write(tmp_path, "img.idx", blob))
    pixels = np.array([[0, 4], [1, 5], [2, 6], [3, 7]], dtype=np.uint8)
    assert got.dtype == np.uint8 and got.shape == (4, 2)
    assert got.flags.f_contiguous
    assert np.array_equal(got, pixels)
    _assert_scaled_columns(got, pixels.astype(float) / 255.0)


def test_load_labels_hand_bytes(tmp_path):
    blob = struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 2])
    got = data.load_idx(_write(tmp_path, "lab.idx", blob))
    assert got.dtype == np.int64
    assert np.array_equal(got, [0, 1, 2])


def test_load_rejects_unknown_magic(tmp_path):
    blob = struct.pack(">II", 0x00000802, 3) + bytes(3)
    with pytest.raises(data.IdxFormatError, match="unsupported IDX magic"):
        data.load_idx(_write(tmp_path, "bad.idx", blob))


def test_load_rejects_truncated_header(tmp_path):
    with pytest.raises(data.IdxFormatError, match="truncated IDX header"):
        data.load_idx(_write(tmp_path, "short.idx", b"\x00\x00"))
    blob = struct.pack(">I", 0x00000803) + b"\x00\x00"
    with pytest.raises(data.IdxFormatError, match="truncated IDX dimension"):
        data.load_idx(_write(tmp_path, "dims.idx", blob))


def test_load_rejects_truncated_payload(tmp_path):
    blob = struct.pack(">II", 0x00000801, 10) + bytes(4)
    with pytest.raises(data.IdxFormatError, match="truncated IDX payload"):
        data.load_idx(_write(tmp_path, "pay.idx", blob))


def test_load_rejects_overflowing_dims(tmp_path):
    blob = struct.pack(">IIII", 0x00000803, 1 << 20, 1 << 15, 1 << 15) + bytes(4)
    with pytest.raises(data.IdxFormatError, match="overflow"):
        data.load_idx(_write(tmp_path, "huge.idx", blob))


def test_images_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    imgs = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    p = tmp_path / "rt.idx"
    write_idx_images(p, imgs)
    got = data.load_idx(p)
    assert got.dtype == np.uint8 and got.flags.f_contiguous
    assert np.array_equal(got, imgs.reshape(5, 12).T)
    _assert_scaled_columns(got, imgs.reshape(5, 12).T / 255.0)


def test_labels_round_trip_gzip(tmp_path):
    labels = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    p = tmp_path / "lab.idx.gz"
    write_idx_labels(p, labels)
    assert p.read_bytes()[:2] == b"\x1f\x8b"
    assert np.array_equal(data.load_idx(p), labels)


def test_gzip_writes_are_byte_stable(tmp_path):
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    a, b = tmp_path / "a.idx.gz", tmp_path / "b.idx.gz"
    write_idx_images(a, imgs)
    write_idx_images(b, imgs)
    assert a.read_bytes() == b.read_bytes()


def test_gzip_payload_detected_by_prefix(tmp_path):
    # gzip content under a non-.gz name must still load
    blob = struct.pack(">II", 0x00000801, 2) + bytes([7, 9])
    p = _write(tmp_path, "sneaky.idx", gzip.compress(blob, mtime=0))
    assert np.array_equal(data.load_idx(p), [7, 9])


def test_write_validates_shapes(tmp_path):
    with pytest.raises(ValueError, match="rows, cols"):
        write_idx_images(tmp_path / "x.idx", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="1-D"):
        write_idx_labels(tmp_path / "y.idx", np.zeros((2, 2)))


# -------------------------------------------------------------- Dataset

def test_dataset_validation():
    x = np.zeros((3, 4))
    with pytest.raises(ValueError, match="targets for"):
        data.Dataset(x, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError, match="class index out of range"):
        data.Dataset(x, np.array([0, 1, 2, 3]), num_classes=3)
    with pytest.raises(ValueError, match="1-D vector of class indices"):
        data.Dataset(x, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="finite"):
        data.Dataset(np.full((2, 2), np.nan), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match=r"inputs must be 2-D, got shape \(3,\)"):
        data.Dataset(np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="uint8 pixels or float64, got int64"):
        data.Dataset(np.zeros((3, 4), dtype=np.int64), np.zeros(4, dtype=np.int64))
    ds = data.Dataset(x, np.zeros(4, dtype=np.int64), num_classes=2)
    assert ds.n == 4 and ds.feature_dim == 3
    # float64 inputs are read as they are: a slice is a view
    assert np.shares_memory(ds.columns(slice(1, 3)), x)


# ------------------------------------------------- synthetic_classification

def test_synthetic_is_deterministic():
    a = data.synthetic_classification(100, 2, 2, seed=7)
    b = data.synthetic_classification(100, 2, 2, seed=7)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = data.synthetic_classification(100, 2, 2, seed=8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_synthetic_draw_holds_no_classes_squared_array():
    # one array of every pair's mean difference, classes x classes x
    # features, would take 200 * 200 * 200 * 8 bytes = 64 MB here; the
    # data itself is 0.6 MB
    tracemalloc.start()
    try:
        data.synthetic_classification(400, 200, 200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_synthetic_class_balance():
    ds = data.synthetic_classification(300, 5, 3, seed=1)
    counts = np.bincount(ds.targets, minlength=3)
    assert counts.sum() == 300
    assert np.all(counts >= 0.8 * 100) and np.all(counts <= 1.2 * 100)


def test_synthetic_linearly_separable():
    ds = data.synthetic_classification(400, 6, 3, seed=2)
    # closed-form least squares onto one-hot targets
    phi = np.vstack([ds.inputs, np.ones(ds.n)])
    onehot = np.eye(3)[ds.targets].T
    w, *_ = np.linalg.lstsq(phi.T, onehot.T, rcond=None)
    pred = (w.T @ phi).argmax(axis=0)
    assert (pred == ds.targets).mean() > 0.9


def test_synthetic_validation():
    with pytest.raises(ValueError, match="at least 2 classes"):
        data.synthetic_classification(10, 2, 1, seed=0)
    with pytest.raises(ValueError, match="per class"):
        data.synthetic_classification(1, 2, 2, seed=0)
    with pytest.raises(ValueError, match="feature"):
        data.synthetic_classification(10, 0, 2, seed=0)


# --------------------------------------------------------------- batches

def test_batches_drop_last_arithmetic():
    got = data.batches(10, 3, epoch_seed=0)
    assert len(got) == 3
    flat = np.concatenate(got)
    assert flat.shape == (9,)
    assert len(set(flat.tolist())) == 9


def test_batches_seeded():
    a = data.batches(50, 8, epoch_seed=3)
    b = data.batches(50, 8, epoch_seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = data.batches(50, 8, epoch_seed=4)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 1000))
def test_batches_form_a_partial_permutation(n, batch_size, seed):
    if batch_size > n:
        with pytest.raises(ValueError):
            data.batches(n, batch_size, seed)
        return
    got = data.batches(n, batch_size, seed)
    assert len(got) == n // batch_size
    flat = np.concatenate(got) if got else np.array([], dtype=int)
    assert len(set(flat.tolist())) == flat.shape[0]
    assert all(0 <= i < n for i in flat.tolist())


def test_batch_plan_validation():
    with pytest.raises(ValueError, match="positive"):
        data.batches(10, 0, 0)
    with pytest.raises(ValueError, match="exceeds dataset size"):
        data.batches(3, 4, 0)


# ----------------------------------------------------------------- split

def test_split_round_trip():
    ds = data.synthetic_classification(50, 3, 2, seed=0)
    a, b = data.split(ds, 30)
    assert a.n == 30 and b.n == 20
    assert np.array_equal(np.hstack([a.inputs, b.inputs]), ds.inputs)
    assert np.array_equal(np.concatenate([a.targets, b.targets]), ds.targets)


def test_split_bounds():
    ds = data.synthetic_classification(10, 2, 2, seed=0)
    for bad in (0, 10, 11):
        with pytest.raises(ValueError, match="split point"):
            data.split(ds, bad)

"""Shared numeric helpers for the test suite."""

import numpy as np
import pytest


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


@pytest.fixture
def rel_err():
    return _rel_err


@pytest.fixture
def fd_grad():
    return _fd_grad


@pytest.fixture
def per_sample_grad_dense():
    return _per_sample_grad_dense

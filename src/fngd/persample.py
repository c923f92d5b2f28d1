"""Per-sample gradient structure without per-sample gradients.

For a dense layer, sample m's weight gradient is the outer product
z_m x_m^T, so the M x M Gram matrix of per-sample gradients factors
entrywise: G = (Z^T Z) * (X^T X).  Conv layers sum one such product per
patch position; there the explicit per-sample gradient matrix U (one
flattened gradient per column) is built first, by one batched GEMM over
the samples, and G = U^T U.  `gram` picks the route for a capture.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .nn import LayerCapture

__all__ = [
    "DEFAULT_U_BUDGET_BYTES",
    "GramStats",
    "gram",
    "gram_dense",
    "u_conv_bytes",
    "build_u_conv",
    "gram_conv",
    "per_sample_grad_dense",
    "write_gram_csv",
]

DEFAULT_U_BUDGET_BYTES = 64 * 1024 * 1024

# Eigenvalues below -tol * ||G||_F mean the Gram was not assembled from
# a real set of per-sample gradients, i.e. a backward-pass bug.
_PSD_TOL = 1e-10


@dataclass
class GramStats:
    """Gram matrix of one layer's per-sample gradients plus its column mean.

    mean_col is (1/M) G 1, which equals U^T g for the batch-mean
    gradient g; u is the explicit per-sample gradient matrix when one
    was materialized (conv path), else None.
    """

    layer: int
    gram: np.ndarray
    mean_col: np.ndarray
    u: np.ndarray | None = None

    @property
    def batch(self) -> int:
        return self.gram.shape[0]

    def validate(self) -> None:
        """Hard checks: symmetry, PSD up to roundoff, mean-column identity."""
        g = self.gram
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"gram must be square, got {g.shape}")
        scale = max(1.0, float(np.abs(g).max(initial=0.0)))
        if float(np.abs(g - g.T).max(initial=0.0)) > 1e-12 * scale:
            raise ValueError("gram is not symmetric")
        fro = linalg.frobenius_norm(g)
        smallest = float(linalg.sym_eigvals(g)[0])
        if smallest < -_PSD_TOL * fro:
            raise ValueError(
                f"gram has eigenvalue {smallest:.3e} below the PSD tolerance; "
                f"suspect the backward pass"
            )
        want = g @ np.full(g.shape[0], 1.0 / g.shape[0])
        if float(np.abs(self.mean_col - want).max(initial=0.0)) > 1e-12 * max(1.0, fro):
            raise ValueError("mean_col does not equal (1/M) G 1")


def gram_dense(capture: LayerCapture) -> GramStats:
    """Gram of a dense layer's per-sample gradients, never forming them.

    Inner products of outer products factor:
    <z_a x_a^T, z_b x_b^T> = (z_a . z_b)(x_a . x_b).
    """
    if capture.kind != "dense":
        raise ValueError(f"expected a dense capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    z, x = capture.z, capture.x
    g = (z.T @ z) * (x.T @ x)
    return GramStats(capture.layer, g, g.mean(axis=1))


def u_conv_bytes(out_channels: int, patch_rows: int, batch: int) -> int:
    """Bytes of a conv layer's explicit U: out_channels * patch_rows rows
    (patch_rows = in_channels * kernel^2) by batch float64 columns."""
    return out_channels * patch_rows * batch * 8


def build_u_conv(capture: LayerCapture,
                 max_bytes: int = DEFAULT_U_BUDGET_BYTES) -> np.ndarray:
    """Explicit per-sample gradient matrix for a conv layer.

    Column m is the flattened weight gradient of sample m, summed over
    patch positions: Z_m X_m^T with Z_m (out, S) and X_m (in*k^2, S).
    Refuses to allocate more than max_bytes.  U is returned sample-major
    (its transpose is C-contiguous), the layout the batched product
    writes and `gram_conv` reads without a copy.
    """
    if capture.kind != "conv":
        raise ValueError(f"expected a conv capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    z, x = capture.z, capture.x
    o, s, m = z.shape
    ik2 = x.shape[0]
    need = u_conv_bytes(o, ik2, m)
    if need > max_bytes:
        raise ValueError(
            f"explicit per-sample gradient matrix needs {need} bytes "
            f"({o * ik2} x {m}), budget is {max_bytes}"
        )
    # Sample-major copies, one row at a time so that each row's (S, M)
    # block stays in cache, then one GEMM per sample over the patches.
    xm = np.empty((m, ik2, s))
    for i in range(ik2):
        xm[:, i, :] = x[i].T
    zm = np.empty((m, o, s))
    for i in range(o):
        zm[:, i, :] = z[i].T
    return np.matmul(zm, xm.transpose(0, 2, 1)).reshape(m, o * ik2).T


def gram_conv(u: np.ndarray, layer: int = -1) -> GramStats:
    """Gram and column mean from an explicit per-sample gradient matrix.

    The checks run on U^T, which is C-contiguous for the sample-major U
    of `build_u_conv`, so that U is not copied.
    """
    ut = linalg.as_matrix(np.transpose(u))
    g = ut @ ut.T
    return GramStats(layer, g, g.mean(axis=1), u=ut.T)


def gram(capture: LayerCapture,
         u_budget: int = DEFAULT_U_BUDGET_BYTES) -> GramStats:
    """Gram of one layer's per-sample gradients by the route its kind takes:
    the Hadamard identity for dense layers, explicit U for conv layers."""
    if capture.kind == "dense":
        return gram_dense(capture)
    return gram_conv(build_u_conv(capture, u_budget), layer=capture.layer)


def per_sample_grad_dense(capture: LayerCapture, m: int) -> np.ndarray:
    """Weight gradient of one sample of a dense layer: outer(z_m, x_m)."""
    if capture.kind != "dense":
        raise ValueError(f"expected a dense capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    batch = capture.z.shape[1]
    if not 0 <= m < batch:
        raise IndexError(f"sample index {m} out of range for batch of {batch}")
    return np.outer(capture.z[:, m], capture.x[:, m])


def write_gram_csv(stats: GramStats, path) -> None:
    """Dump the raw Gram matrix for offline inspection of its structure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", stats.layer, "batch", stats.batch])
        for row in stats.gram:
            writer.writerow([repr(float(v)) for v in row])

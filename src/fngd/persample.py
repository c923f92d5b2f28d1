"""Per-sample gradient structure without per-sample gradients.

For a dense layer, sample m's weight gradient is the outer product
z_m x_m^T, so the M x M Gram matrix of per-sample gradients factors
entrywise: G = (Z^T Z) * (X^T X).  Conv layers sum one such product per
patch position; there the explicit per-sample gradient matrix U (one
flattened gradient per column) is built by one batched GEMM over the
samples, in blocks of output channels whose rows U_k fit the U budget,
and G = sum_k U_k^T U_k.  `gram` picks the route for a capture and
returns (G, U), U being the one-block conv U and otherwise None.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .nn import LayerCapture

__all__ = [
    "DEFAULT_U_BUDGET_BYTES",
    "gram",
    "gram_dense",
    "build_u_conv",
    "gram_conv",
]

DEFAULT_U_BUDGET_BYTES = 64 * 1024 * 1024


def gram_dense(capture: LayerCapture) -> np.ndarray:
    """Gram of a dense layer's per-sample gradients, never forming them.

    Inner products of outer products factor:
    <z_a x_a^T, z_b x_b^T> = (z_a . z_b)(x_a . x_b).
    """
    if capture.kind != "dense":
        raise ValueError(f"expected a dense capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    z, x = capture.z, capture.x
    return (z.T @ z) * (x.T @ x)


def build_u_conv(capture: LayerCapture, channels: slice = slice(None)) -> np.ndarray:
    """Rows of a conv layer's explicit per-sample gradient matrix U for
    the output channels in `channels`, all of them by default.

    Column m is the flattened weight gradient of sample m, summed over
    patch positions: Z_m X_m^T with Z_m (out, S) and X_m (in*k^2, S).
    U is returned sample-major (its transpose is C-contiguous), the
    layout the batched product writes and `gram_conv` reads without a
    copy.
    """
    if capture.kind != "conv":
        raise ValueError(f"expected a conv capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    z, x = capture.z[channels], capture.x
    o, s, m = z.shape
    ik2 = x.shape[0]
    # Sample-major copies, one row at a time so that each row's (S, M)
    # block stays in cache, then one GEMM per sample over the patches.
    xm = np.empty((m, ik2, s))
    for i in range(ik2):
        xm[:, i, :] = x[i].T
    zm = np.empty((m, o, s))
    for i in range(o):
        zm[:, i, :] = z[i].T
    return np.matmul(zm, xm.transpose(0, 2, 1)).reshape(m, o * ik2).T


def gram_conv(u: np.ndarray) -> np.ndarray:
    """Gram U^T U from an explicit per-sample gradient matrix.

    The checks run on U^T, which is C-contiguous for the sample-major U
    of `build_u_conv`, so that U is not copied.
    """
    ut = linalg.as_matrix(np.transpose(u))
    return ut @ ut.T


def gram(capture: LayerCapture,
         u_budget: int = DEFAULT_U_BUDGET_BYTES) -> tuple[np.ndarray, np.ndarray | None]:
    """(G, U) of one layer's per-sample gradients, by the route its kind
    takes: the Hadamard identity for dense layers, explicit U for conv
    layers.

    A conv layer's U is built in blocks of as many output channels as fit
    in u_budget bytes (at least one), and G sums the blocks' Grams.  U is
    returned only when it is one block; otherwise U is never whole, and
    a dense layer has none.
    """
    if capture.kind == "dense":
        return gram_dense(capture), None
    width = max(1, u_budget // (capture.x.shape[0] * capture.x.shape[-1] * 8))
    u = build_u_conv(capture, slice(0, width))
    g = gram_conv(u)
    if width >= capture.z.shape[0]:
        return g, u
    del u  # so that the first block's U is freed before the next is built
    for lo in range(width, capture.z.shape[0], width):
        g += gram_conv(build_u_conv(capture, slice(lo, lo + width)))
    return g, None

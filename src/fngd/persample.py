"""Per-sample gradient structure without per-sample gradients.

For a dense layer, sample m's weight gradient is the outer product
z_m x_m^T, so the M x M Gram matrix of per-sample gradients factors
entrywise: G = (Z^T Z) * (X^T X), built in upper strips of rows and
mirrored.  Conv layers sum one such product per patch position; there
the explicit per-sample gradient matrix U (one flattened gradient per
column) is built by one batched GEMM over the samples, in blocks of
output channels whose rows U_k fit the U budget, from one sample-major
copy of X shared by every block, and G = sum_k U_k^T U_k.  `gram` picks
the route for a capture and returns (G, U), U being the one-block conv U
and otherwise None.
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

# Rows per strip of the dense Gram.  numpy's syrk route for Z^T Z builds a
# triangle and then mirrors all of G, and on a thin Z (a 10-wide output
# layer) it is slower than a GEMM; strips of GEMMs skip that work above
# STRIP samples, and at M <= STRIP the one strip takes the syrk route.
STRIP = 128


def gram_dense(capture: LayerCapture) -> np.ndarray:
    """Gram of a dense layer's per-sample gradients, never forming them.

    Inner products of outer products factor:
    <z_a x_a^T, z_b x_b^T> = (z_a . z_b)(x_a . x_b).  G is built in upper
    strips of STRIP rows: strip i0:i1 is (Z_i^T Z_i:) * (X_i^T X_i:) written
    into G[i0:i1, i0:], and its part right of the diagonal block is
    mirrored into G[i1:, i0:i1], so each product is computed once and G is
    exactly symmetric.  At M <= STRIP the one strip is the whole product.
    """
    if capture.kind != "dense":
        raise ValueError(f"expected a dense capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    z, x = capture.z, capture.x
    m = z.shape[1]
    g = np.empty((m, m))
    for i0 in range(0, m, STRIP):
        i1 = min(i0 + STRIP, m)
        strip = g[i0:i1, i0:]
        np.matmul(z[:, i0:i1].T, z[:, i0:], out=strip)
        strip *= x[:, i0:i1].T @ x[:, i0:]
        g[i1:, i0:i1] = strip[:, i1 - i0 :].T
    return g


def _sample_major(a: np.ndarray) -> np.ndarray:
    """(M, rows, S) copy of a (rows, S, M) conv capture, one row at a time
    so that each row's (S, M) block stays in cache."""
    rows, s, m = a.shape
    out = np.empty((m, rows, s))
    for i in range(rows):
        out[:, i, :] = a[i].T
    return out


def build_u_conv(capture: LayerCapture, channels: slice = slice(None),
                 xm: np.ndarray | None = None) -> np.ndarray:
    """Rows of a conv layer's explicit per-sample gradient matrix U for
    the output channels in `channels`, all of them by default.

    Column m is the flattened weight gradient of sample m, summed over
    patch positions: Z_m X_m^T with Z_m (out, S) and X_m (in*k^2, S).
    xm is X in sample-major order, (M, in*k^2, S), made here when not
    given, so that a layer built in several blocks copies X once.  U is
    returned sample-major (its transpose is C-contiguous), the layout the
    batched product writes and `gram_conv` reads without a copy.
    """
    if capture.kind != "conv":
        raise ValueError(f"expected a conv capture, got {capture.kind!r}")
    if capture.z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    if xm is None:
        xm = _sample_major(capture.x)
    zm = _sample_major(capture.z[channels])
    m, o, _ = zm.shape
    # One GEMM per sample over the patches.
    return np.matmul(zm, xm.transpose(0, 2, 1)).reshape(m, o * xm.shape[1]).T


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
    in u_budget bytes (at least one), all from one sample-major copy of X,
    and G sums the blocks' Grams.  U is returned only when the first block
    covers every output channel; otherwise U is never whole, and a dense
    layer has none.
    """
    if capture.kind == "dense":
        return gram_dense(capture), None
    width = max(1, u_budget // (capture.x.shape[0] * capture.x.shape[-1] * 8))
    xm = _sample_major(capture.x)
    u = build_u_conv(capture, slice(0, width), xm)
    g = gram_conv(u)
    for lo in range(width, capture.z.shape[0], width):
        u = None  # U is not whole: hold one block at a time
        g += gram_conv(build_u_conv(capture, slice(lo, lo + width), xm))
    return g, u

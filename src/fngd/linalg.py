"""Dense float64 linear algebra used by the rest of the package.

Plain numpy arrays are the carriers: a matrix is a 2-D float64 array, a
vector 1-D.  Every function is pure and deterministic for fixed inputs;
nothing here mutates its arguments.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotSPDError",
    "as_matrix",
    "as_vector",
    "khatri_rao",
    "solve_spd",
    "sym_eigvals",
]


class NotSPDError(ValueError):
    """A symmetric factorization met a non-positive pivot.

    The offending diagonal position is kept in ``pivot`` so callers can
    point at the block that produced the bad matrix.
    """

    def __init__(self, pivot: int, value: float):
        super().__init__(
            f"matrix is not symmetric positive definite: "
            f"pivot {pivot} came out {value:.6e}"
        )
        self.pivot = pivot
        self.value = value


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, copying only when needed.

    A C- or F-contiguous float64 array comes back as the same object:
    BLAS reads either layout, so a sample-major batch (an F-contiguous
    features x samples matrix) reaches it untransposed.  Only an array
    that is neither, such as a strided view, is copied into C order.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {out.shape}")
    if not (out.flags.c_contiguous or out.flags.f_contiguous):
        out = np.ascontiguousarray(out)
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must all be finite")
    return out


def as_vector(a) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("vector entries must all be finite")
    return out


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product.

    Column m of the result is kron(a[:, m], b[:, m]); inputs of shape
    (p, m) and (q, m) give a (p*q, m) result.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"khatri_rao: column counts differ: {a.shape} and {b.shape}")
    p, cols = a.shape
    q = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(p * q, cols)


# Rows per block of the factorization and of the back-substitution.  One
# GEMM brings a block up to date with every row above it, so a larger block
# means fewer Python iterations but a longer row loop inside each block;
# with one BLAS thread, 32 was the fastest of 16 to 128 at M = 64, 128 and 512.
BLOCK = 32


def _upper_factor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Work array w whose upper triangle is U, with a = U^T U.

    The rows are factored in blocks of BLOCK.  One GEMM applies every
    row above a block to the block's rows, over columns k0..n, and then
    each row j of the block is factored from the block's earlier rows:
    w[j, j:] -= w[k0:j, j] @ w[k0:j, j:], then divided by sqrt(d).  b is
    carried as column n, which the same row operations turn into
    y = U^-T b.  A block's rows also carry identity columns n+1.., which
    the row operations within the block turn into E_J = U_JJ^-T, the
    inverse transpose of the block's diagonal block of U.  Only the
    upper triangle of a is read; the strict lower triangle of the result
    is left over and is not part of U.
    """
    n = a.shape[0]
    w = np.empty((n, n + 1 + min(n, BLOCK)))
    w[:, :n] = a
    w[:, n] = b
    w[:, n + 1 :] = 0.0
    rows = np.arange(n)
    w[rows, n + 1 + rows % BLOCK] = 1.0
    for k0 in range(0, n, BLOCK):
        k1 = min(k0 + BLOCK, n)
        if k0:
            w[k0:k1, k0 : n + 1] -= w[:k0, k0:k1].T @ w[:k0, k0 : n + 1]
        for j in range(k0, k1):
            row = w[j, j:]
            if j > k0:
                row -= w[k0:j, j] @ w[k0:j, j:]
            d = float(row[0])
            if d <= 0.0 or not math.isfinite(d):
                raise NotSPDError(j, d)
            row /= math.sqrt(d)
    return w


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a = U^T U.

    The forward solve U^T y = b rides along in the factorization, which
    also leaves E_J = U_JJ^-T for every block J of rows.  The
    back-substitution U x = y then runs upward one block at a time:
    x_J = E_J^T (y_J - U_J,after x_after).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_spd: matrix must be square, got {a.shape}")
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"solve_spd: rhs shape {b.shape} does not match matrix {a.shape}")
    w = _upper_factor(a, b)
    x = np.empty(n)
    for k0 in reversed(range(0, n, BLOCK)):
        k1 = min(k0 + BLOCK, n)
        r = w[k0:k1, n] - w[k0:k1, k1:n] @ x[k1:]
        x[k0:k1] = w[k0:k1, n + 1 : n + 1 + k1 - k0].T @ r
    return x


# Relative asymmetry above this is rejected rather than symmetrized.
_SYM_TOL = 1e-12


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eigvals: matrix must be square, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    asym = float(np.abs(a - a.T).max(initial=0.0))
    if asym > _SYM_TOL * scale:
        raise ValueError(f"sym_eigvals: matrix is not symmetric (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(a)

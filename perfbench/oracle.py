"""Correctness oracle for fngd steps, computed apart from the program.

It sees only what a step captured (each layer's input X and per-sample
output gradient Z) and the weights before and after the step.  From those
it rebuilds the step with its own arithmetic:

    G   = U^T U          (explicit per-sample gradients U, or the
                          outer-product identity (Z^T Z) * (X^T X) when U
                          would not fit in U_BUDGET_BYTES)
    lam = alpha * ||G||_F
    c   = (1 - solve(G/M + lam I, G 1 / M)) / M     (numpy.linalg.solve)
    dW  = -(eta / lam) U c

A shared step must move each layer by -(eta / lam_bar) U v, where
(v, lam_bar) is the mean of the (c, lam) the oracle computed over epoch
one; the program's coefficient table must hold the same pair.
"""

from __future__ import annotations

import numpy as np

# Weight changes and table entries must agree to this relative Frobenius
# distance.  The program solves with its own Cholesky and the oracle with
# LAPACK; on these well-damped systems they agree to about 1e-13.
RTOL = 1e-8
U_BUDGET_BYTES = 16 * 1024 * 1024


def per_sample_gradients(x: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Explicit U, one flattened per-sample weight gradient per column.

    Dense captures are x (in, M), z (out, M); conv captures carry a patch
    axis, x (in*k*k, S, M), z (out, S, M), and each sample sums its patches.
    Returns None when U would exceed U_BUDGET_BYTES.
    """
    m = z.shape[-1]
    if z.shape[0] * x.shape[0] * m * 8 > U_BUDGET_BYTES:
        return None
    if z.ndim == 2:
        cols = [np.outer(z[:, s], x[:, s]).ravel() for s in range(m)]
    else:
        cols = [(z[:, :, s] @ x[:, :, s].T).ravel() for s in range(m)]
    return np.stack(cols, axis=1)


class LayerStep:
    """The oracle's view of one layer in one step."""

    def __init__(self, x: np.ndarray, z: np.ndarray):
        self.x, self.z = x, z
        self.u = per_sample_gradients(x, z)
        self.shape = (z.shape[0], x.shape[0])

    def gram(self) -> np.ndarray:
        if self.u is not None:
            return self.u.T @ self.u
        return (self.z.T @ self.z) * (self.x.T @ self.x)

    def combine(self, c: np.ndarray) -> np.ndarray:
        """U c as a weight-shaped matrix."""
        if self.u is not None:
            return (self.u @ c).reshape(self.shape)
        return np.einsum("om,m,im->oi", self.z, c, self.x)


def coefficients(layer: LayerStep, alpha: float, floor: float) -> tuple[np.ndarray, float]:
    g = layer.gram()
    m = g.shape[0]
    fro = float(np.linalg.norm(g))
    lam = alpha * fro if fro >= 1e-30 else floor
    shifted = np.linalg.solve(g / m + lam * np.eye(m), g.sum(axis=1) / m)
    return (1.0 - shifted) / m, lam


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


class Oracle:
    """Follows one fngd training run step by step.

    `epoch_one(...)` must see every epoch-one step, in order, so that the
    shared pair can be averaged; `check_*` compare a sampled step's weight
    change with the rebuilt one and return the worst relative error.
    """

    def __init__(self, alpha: float, floor: float):
        self.alpha, self.floor = alpha, floor
        self.c_sums: dict[int, np.ndarray] = {}
        self.lam_sums: dict[int, float] = {}
        self.count = 0

    def epoch_one(self, layers: dict[int, LayerStep], eta: float,
                  delta: dict[int, np.ndarray] | None) -> float:
        """Feed one epoch-one step; if its weight change is given, check it."""
        worst = 0.0
        for i, layer in layers.items():
            c, lam = coefficients(layer, self.alpha, self.floor)
            self.c_sums[i] = self.c_sums.get(i, 0.0) + c
            self.lam_sums[i] = self.lam_sums.get(i, 0.0) + lam
            if delta is not None:
                worst = max(worst, relative_error(delta[i], -(eta / lam) * layer.combine(c)))
        self.count += 1
        return worst

    def shared(self) -> dict[int, tuple[np.ndarray, float]]:
        return {i: (self.c_sums[i] / self.count, self.lam_sums[i] / self.count)
                for i in self.c_sums}

    def check_shared(self, layers: dict[int, LayerStep], eta: float,
                     delta: dict[int, np.ndarray]) -> float:
        worst = 0.0
        for i, (v, lam_bar) in self.shared().items():
            want = -(eta / lam_bar) * layers[i].combine(v)
            worst = max(worst, relative_error(delta[i], want))
        return worst

    def check_table(self, table: dict[int, tuple[np.ndarray, float]]) -> float:
        mine = self.shared()
        if set(mine) != set(table):
            return float("inf")
        worst = 0.0
        for i, (v, lam_bar) in mine.items():
            worst = max(worst, relative_error(table[i][0], v),
                        abs(table[i][1] - lam_bar) / lam_bar)
        return worst

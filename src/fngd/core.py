"""Coefficient-form natural gradient with epoch-one sharing.

The damped natural-gradient step for one layer is
(lambda I + (1/M) U U^T)^{-1} g, with U holding that layer's per-sample
loss gradients columnwise and g their mean.  Rewriting through the
matrix inversion identity turns the step into U c for a length-M
coefficient vector

    c = (lambda/M) (lambda I + (1/M) G)^{-1} 1,   G = U^T U,

up to a 1/lambda factor that is folded into the learning rate.  The
same c is (1/M) (1 - (lambda I + G/M)^{-1} G 1/M), but that form
subtracts two numbers near 1 and loses digits as lambda shrinks.  For a
dense layer U c equals Z diag(c) X^T, so preconditioning costs one
weighted GEMM and U is never formed.  A conv layer's Gram is built from
an explicit U, in blocks of output channels under the U budget;
`persample.gram` hands the step (G, U), U only when it is one block,
and then the coefficient-phase step reuses it for U c.

Training runs in two phases.  During epoch one each batch solves for
its own c and damping lambda while a table accumulates them; after the
epoch the table averages into (v_tilde, lambda_bar) per layer, and all
later epochs reuse those shared values with no Gram, no solve, no
inverse.  Coefficients are tied to batch slots, not sample identity.

Both phases, and the natural-gradient step that never shares, run one
step body, `preconditioned_step`: only where each layer's (c, lambda)
comes from differs, and a finalized table picks the shared phase.  Only
fngd steps through the phase entry points `epoch_one_step` and
`shared_step`.  `nn.forward` runs a dense layer as a conv with one patch
position, so U c has one weighted-input route for both layer kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, nn, persample

__all__ = [
    "DampingRule",
    "TableStateError",
    "CoefficientTable",
    "damping_lambda",
    "coefficients",
    "precondition",
    "precondition_explicit_u",
    "preconditioned_step",
    "epoch_one_step",
    "shared_step",
]


class TableStateError(RuntimeError):
    """Coefficient table used in the wrong phase (or with the wrong shape)."""


@dataclass(frozen=True)
class DampingRule:
    """lambda = alpha * ||G||_F, or the constant `floor` for a batch whose
    Gram is zero (every per-sample gradient vanished).

    A fixed value (set via ``fixed``) bypasses the Frobenius rule
    entirely; that exists for ablation, not regular use.
    """

    alpha: float = 0.005
    fixed: float | None = None
    floor = 1e-12  # a class constant, not a field

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.fixed is not None and not 0.0 < self.fixed < math.inf:
            raise ValueError(f"fixed damping must be positive and finite, got {self.fixed}")


def damping_lambda(g: np.ndarray, rule: DampingRule) -> float:
    """Damping strength for one batch from its Gram matrix g."""
    if rule.fixed is not None:
        return rule.fixed
    fro = float(np.linalg.norm(g))
    if fro < 1e-30:
        return rule.floor
    return rule.alpha * fro


def coefficients(g: np.ndarray, lam: float) -> np.ndarray:
    """Length-M weights c, M = g.shape[0], such that the preconditioned
    gradient is (1/lam) U c for the Gram g = U^T U."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"damping must be positive and finite, got {lam}")
    m = g.shape[0]
    a = g / m
    a.flat[:: m + 1] += lam
    return (lam / m) * linalg.solve_spd(a, np.ones(m))


def _checked_capture(capture: nn.LayerCapture, c: np.ndarray):
    """(Z, X) of a dense or conv capture after backward, checked against c."""
    if capture.kind not in ("dense", "conv"):
        raise ValueError(f"layer kind {capture.kind!r} is not preconditioned")
    z, x = capture.z, capture.x
    if z is None:
        raise ValueError(f"layer {capture.layer} capture has no Z; run backward first")
    if c.shape != (z.shape[-1],):
        raise ValueError(f"coefficient shape {c.shape} does not match batch {z.shape[-1]}")
    return z, x


def precondition(capture: nn.LayerCapture, c: np.ndarray,
                 u: np.ndarray | None = None) -> np.ndarray:
    """U c as a weight-shaped matrix.

    Given u, the per-sample gradient matrix a one-block conv Gram was
    built from, this is one matrix-vector product.  Otherwise it is the
    weighted-input route sum_s Z_s diag(c) X_s^T over patch positions s,
    one GEMM; a dense capture has a single position, where this is
    Z diag(c) X^T.
    """
    z, x = _checked_capture(capture, c)
    o, i = z.shape[0], x.shape[0]
    if u is not None:
        return (u @ c).reshape(o, i)
    return (z * c).reshape(o, -1) @ x.reshape(i, -1).T


def precondition_explicit_u(capture: nn.LayerCapture, c: np.ndarray,
                            max_bytes: int = persample.DEFAULT_U_BUDGET_BYTES) -> np.ndarray:
    """Reference route that materializes per-sample gradients and sums them.

    Produces the same matrix as the weighted-input route but pays for
    building U; kept as an oracle and for the no-acceleration ablation.
    Samples are processed in chunks, each written into one buffer, so
    the allocation stays under max_bytes.
    """
    z, x = _checked_capture(capture, c)
    o, i, m = z.shape[0], x.shape[0], z.shape[-1]
    # A dense capture of a sample-major batch is F-ordered; the einsum
    # below walks it in C order, so it is copied once here.
    z, x = z.reshape(o, -1, m), np.ascontiguousarray(x.reshape(i, -1, m))
    chunk = min(m, max(1, max_bytes // (o * i * 8)))
    buf = np.empty(o * i * chunk)
    total = np.zeros(o * i)
    for start in range(0, m, chunk):
        sl = slice(start, min(start + chunk, m))
        u = buf[:o * i * (sl.stop - start)].reshape(o, i, -1)
        np.einsum("osm,ism->oim", z[:, :, sl], x[:, :, sl], out=u)
        total += u.reshape(o * i, -1) @ c[sl]
    return total.reshape(o, i)


_TABLE_HEADER = "fngd-coefficients,1"


class CoefficientTable:
    """Per-layer running sums of epoch-one coefficients and dampings.

    accumulate() feeds one batch; finalize() turns the sums into the
    shared pair (v_tilde, lambda_bar) by exact division with the batch
    count.  A finalized table rejects further accumulation, and the
    shared accessors reject an unfinalized table.
    """

    def __init__(self):
        # One record per layer: [sum of c, sum of lambda, batches].
        self._sums: dict[int, list] = {}
        self.shared: dict[int, tuple[np.ndarray, float]] = {}
        self.finalized = False

    def accumulate(self, layer: int, v: np.ndarray, lam: float) -> None:
        if self.finalized:
            raise TableStateError("coefficient table is already finalized")
        v = linalg.as_vector(v)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"damping must be positive and finite, got {lam}")
        record = self._sums.get(layer)
        if record is None:
            # A copy, since later batches add into it in place; a sum started
            # at zeros would turn a -0.0 coefficient into +0.0.
            self._sums[layer] = [v.copy(), lam, 1]
            return
        if v.shape != record[0].shape:
            raise TableStateError(
                f"layer {layer}: coefficient length changed from "
                f"{record[0].shape[0]} to {v.shape[0]}"
            )
        record[0] += v
        record[1] += lam
        record[2] += 1

    def finalize(self) -> None:
        if self.finalized:
            raise TableStateError("coefficient table is already finalized")
        if not self._sums:
            raise TableStateError("no batches accumulated; nothing to finalize")
        counts = {layer: record[2] for layer, record in self._sums.items()}
        if len(set(counts.values())) != 1:
            raise TableStateError(f"uneven batch counts across layers: {counts}")
        for layer, (v_sum, lam_sum, b) in self._sums.items():
            self.shared[layer] = (v_sum / b, lam_sum / b)
        self.finalized = True

    def shared_for(self, layer: int) -> tuple[np.ndarray, float]:
        if not self.finalized:
            raise TableStateError("coefficient table is not finalized")
        if layer not in self.shared:
            raise TableStateError(f"no shared coefficients for layer {layer}")
        return self.shared[layer]

    def save(self, path) -> None:
        """Versioned text format; floats are written with round-trip repr."""
        if not self.finalized:
            raise TableStateError("finalize the table before saving it")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [_TABLE_HEADER]
        for layer in sorted(self.shared):
            v, lam_bar = self.shared[layer]
            fields = [str(layer), str(v.shape[0]), repr(float(lam_bar))]
            fields.extend(repr(float(x)) for x in v)
            lines.append(",".join(fields))
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CoefficientTable":
        text = Path(path).read_text()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != _TABLE_HEADER:
            raise ValueError(
                f"{path}: not a coefficient table (expected header {_TABLE_HEADER!r})"
            )
        table = cls()
        for ln in lines[1:]:
            fields = ln.split(",")
            malformed = ValueError(f"{path}: malformed coefficient row {ln!r}")
            if len(fields) < 4:
                raise malformed
            try:
                layer, m = int(fields[0]), int(fields[1])
                lam_bar = float(fields[2])
                v = np.array([float(x) for x in fields[3:]])
            except ValueError:
                raise malformed from None
            if layer in table.shared:
                raise ValueError(f"{path}: layer {layer} has more than one row")
            if v.shape[0] != m:
                raise ValueError(
                    f"{path}: layer {layer} row promises {m} coefficients, "
                    f"holds {v.shape[0]}"
                )
            if not np.isfinite(lam_bar):
                raise ValueError(f"{path}: layer {layer} has non-finite damping {lam_bar!r}")
            if lam_bar <= 0.0:
                raise ValueError(f"{path}: layer {layer} has non-positive damping")
            if not np.isfinite(v).all():
                raise ValueError(f"{path}: layer {layer} has non-finite coefficients")
            table.shared[layer] = (v, lam_bar)
        if not table.shared:
            raise ValueError(f"{path}: coefficient table holds no layers")
        table.finalized = True
        return table


def _apply_update(param: np.ndarray, step: np.ndarray) -> None:
    """The single parameter update, param -= step, in place; a function
    of its own so that it can be traced.  The step arrives already scaled
    by the learning rate, so the update is one pass over param."""
    param -= step


def preconditioned_step(net: nn.Network, x, y, eta: float, rule: DampingRule | None,
                        table: CoefficientTable | None = None,
                        explicit_u: bool = False) -> nn.BackwardPass:
    """The one step body: w -= (eta/lambda) U c for every preconditioned
    layer; biases take the plain gradient at eta.  The scalar eta/lambda
    multiplies the M-long c, not the weight-sized U c, so each weight
    gets one step-sized array and one pass to subtract it.

    Without a table, or with one still accumulating, each layer's
    (c, lambda) comes from this batch's Gram and solve (a conv layer
    whose Gram kept U, built in one block, then steps along it), and an
    accumulating table records them.  With a finalized table each layer
    takes the shared (v_tilde, lambda_bar) instead: no Gram, no solve,
    and `rule` is not read.  Batch slot i reuses coefficient i whichever sample landed in
    that slot.  Returns the step's backward pass, whose loss and correct
    count come from the forward pass at the weights before the update.
    """
    fwd = nn.forward(net, x)
    bwd = nn.backward(net, fwd, y)
    shared = table is not None and table.finalized
    m = fwd.outputs.shape[1]
    for i in net.preconditioned():
        cap = fwd.captures[i]
        u = None
        if shared:
            c, lam = table.shared_for(i)
            if c.shape[0] != m:
                raise TableStateError(
                    f"layer {i}: shared coefficients cover batches of {c.shape[0]}, got {m}"
                )
        else:
            # A diverging run can make the Gram, lambda or c non-finite; the
            # error names the layer, and the training loop adds epoch and step.
            try:
                g, u = persample.gram(cap)
                lam = damping_lambda(g, rule)
                c = coefficients(g, lam)
                if table is not None:
                    table.accumulate(i, c, lam)
            except linalg.NotSPDError as exc:
                raise RuntimeError(
                    f"coefficient solve failed at layer {i} (pivot {exc.pivot})"
                ) from exc
            except ValueError as exc:
                raise RuntimeError(f"layer {i}: {exc}") from exc
        scaled = c * (eta / lam)
        if explicit_u:
            step = precondition_explicit_u(cap, scaled)
        else:
            step = precondition(cap, scaled, u=u)
        _apply_update(net.layers[i].weight, step)
    params = net.parameters()
    for name, grad in bwd.bias_grads.items():
        _apply_update(params[name], eta * grad)
    return bwd


def epoch_one_step(net: nn.Network, x, y, table: CoefficientTable, eta: float,
                   rule: DampingRule) -> nn.BackwardPass:
    """fngd's coefficient-phase step: fresh coefficients that feed the table."""
    if table.finalized:
        raise TableStateError("coefficient table is already finalized")
    return preconditioned_step(net, x, y, eta, rule, table)


def shared_step(net: nn.Network, x, y, table: CoefficientTable,
                eta: float) -> nn.BackwardPass:
    """fngd's later-epoch step: the table's shared coefficients, no Gram, no solve."""
    if not table.finalized:
        raise TableStateError("coefficient table is not finalized")
    return preconditioned_step(net, x, y, eta, None, table)

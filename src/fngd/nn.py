"""Small feed-forward training engine: dense and stride-1 conv layers,
ReLU, softmax cross-entropy loss.

The backward pass is organized around per-sample quantities.  For every
dense or conv layer it records the layer input X and, once backward has
run, Z: the gradient of each individual sample's loss with respect to
the layer's pre-activation output, with no 1/M averaging.  The
batch-mean weight gradient is then (1/M) Z X^T, and weighted or
per-sample gradients come from the same records without another pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "Dense",
    "Conv2d",
    "Relu",
    "Network",
    "LayerCapture",
    "ForwardPass",
    "BackwardPass",
    "forward",
    "backward",
    "weight_gradients",
    "loss_value",
]

CONV_KERNELS = (1, 3, 5)


class Dense:
    """Fully connected layer: out = weight @ x (+ bias per row)."""

    kind = "dense"

    def __init__(self, weight, bias=None):
        self.weight = linalg.as_matrix(weight)
        self.bias = None if bias is None else linalg.as_vector(bias)
        if self.bias is not None and self.bias.shape[0] != self.weight.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weight.shape[0]} output rows"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng, bias: bool = True) -> "Dense":
        """He-normal weights (std sqrt(2/in_dim)), zero bias."""
        w = rng.standard_normal((out_dim, in_dim)) * math.sqrt(2.0 / in_dim)
        return cls(w, np.zeros(out_dim) if bias else None)


class Conv2d:
    """2-D convolution, stride 1, kernel stored as (out_channels, in_channels*k*k).

    Spatial input size is part of the layer so the whole network can
    run on flat (features x samples) matrices; inputs arrive flattened
    channel-major as (channels*height*width, samples).
    """

    kind = "conv"

    def __init__(self, weight, bias, in_channels, kernel, padding, in_h, in_w):
        if kernel not in CONV_KERNELS:
            raise ValueError(f"kernel size must be one of {CONV_KERNELS}, got {kernel}")
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.weight = linalg.as_matrix(weight)
        if self.weight.shape[1] != in_channels * kernel * kernel:
            raise ValueError(
                f"kernel matrix has {self.weight.shape[1]} columns, "
                f"expected {in_channels} * {kernel}^2"
            )
        self.bias = None if bias is None else linalg.as_vector(bias)
        if self.bias is not None and self.bias.shape[0] != self.weight.shape[0]:
            raise ValueError("bias length does not match output channels")
        self.in_channels = in_channels
        self.kernel = kernel
        self.in_h = in_h
        self.in_w = in_w
        # Zero rows and columns added on each side of the input; "same"
        # keeps the spatial size for the odd kernels allowed.
        self.pad = (kernel - 1) // 2 if padding == "same" else 0
        self.out_h = in_h + 2 * self.pad - kernel + 1
        self.out_w = in_w + 2 * self.pad - kernel + 1
        if self.out_h < 1 or self.out_w < 1:
            raise ValueError(
                f"kernel {kernel} does not fit a {in_h}x{in_w} input with valid padding"
            )

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def patch_count(self) -> int:
        return self.out_h * self.out_w

    @property
    def flat_in(self) -> int:
        return self.in_channels * self.in_h * self.in_w

    @property
    def flat_out(self) -> int:
        return self.out_channels * self.patch_count

    @classmethod
    def create(cls, in_channels, out_channels, kernel, padding, in_h, in_w, rng,
               bias: bool = True) -> "Conv2d":
        fan_in = in_channels * kernel * kernel
        w = rng.standard_normal((out_channels, fan_in)) * math.sqrt(2.0 / fan_in)
        return cls(w, np.zeros(out_channels) if bias else None,
                   in_channels, kernel, padding, in_h, in_w)


class Relu:
    kind = "relu"


class Network:
    """Ordered layer stack trained under softmax cross-entropy.

    Dense and conv layers carry the preconditioned weights; biases
    always follow the plain-gradient path.
    """

    # `loss` is only read so that perfbench/selftest.py can still pass it.
    def __init__(self, layers, loss: str = "cross_entropy"):
        if loss != "cross_entropy":
            raise ValueError(f"loss must be 'cross_entropy', got {loss!r}")
        self.layers = list(layers)
        widths = []  # the first weighted layer's inputs, then each one's outputs
        for i, layer in enumerate(self.layers):
            if layer.kind in ("dense", "conv"):
                n_in, n_out = ((layer.in_dim, layer.out_dim) if layer.kind == "dense"
                               else (layer.flat_in, layer.flat_out))
                if not widths:
                    widths.append(n_in)
                elif n_in != widths[-1]:
                    raise ValueError(f"layer[{i}]: {layer.kind} expects {n_in} inputs but "
                                     f"the previous layer provides {widths[-1]}")
                widths.append(n_out)
            elif layer.kind != "relu":
                raise ValueError(f"layer[{i}]: unknown layer kind {layer.kind!r}")
        if not widths:
            raise ValueError("layer: network has no parameterized layers")
        self.in_dim, self.out_dim = widths[0], widths[-1]

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed 'layer<i>.weight' / 'layer<i>.bias'."""
        params = {}
        for i, layer in enumerate(self.layers):
            if layer.kind == "relu":
                continue
            params[f"layer{i}.weight"] = layer.weight
            if layer.bias is not None:
                params[f"layer{i}.bias"] = layer.bias
        return params

    def preconditioned(self) -> list[int]:
        """Indices of layers whose weights take the preconditioned update."""
        return [i for i, l in enumerate(self.layers) if l.kind in ("dense", "conv")]


@dataclass
class LayerCapture:
    """What one layer remembers from forward (x) and backward (z).

    dense: x is (in_dim, M), z is (out_dim, M).
    conv:  x is (in_channels*k^2, patches, M), z is (out_channels, patches, M).
    relu:  x is the boolean pass-through mask; z stays None.
    """

    layer: int
    kind: str
    x: np.ndarray
    z: np.ndarray | None = None


@dataclass
class ForwardPass:
    outputs: np.ndarray
    captures: list


@dataclass
class BackwardPass:
    """Batch-mean loss, bias gradients, and the number of samples whose
    largest output is their label."""

    loss: float
    bias_grads: dict[str, np.ndarray]
    correct: int


def _im2col(flat: np.ndarray, layer: Conv2d) -> np.ndarray:
    c, h, w, k, pad = layer.in_channels, layer.in_h, layer.in_w, layer.kernel, layer.pad
    m = flat.shape[1]
    img = flat.reshape(c, h, w, m)
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad, m))
        padded[:, pad : pad + h, pad : pad + w, :] = img
        img = padded
    oh, ow = layer.out_h, layer.out_w
    cols = np.empty((c, k, k, oh, ow, m))
    for kh in range(k):
        for kw in range(k):
            cols[:, kh, kw] = img[:, kh : kh + oh, kw : kw + ow, :]
    return cols.reshape(c * k * k, oh * ow, m)


def _col2im(cols: np.ndarray, layer: Conv2d) -> np.ndarray:
    c, h, w, k, pad = layer.in_channels, layer.in_h, layer.in_w, layer.kernel, layer.pad
    m = cols.shape[2]
    oh, ow = layer.out_h, layer.out_w
    img = np.zeros((c, h + 2 * pad, w + 2 * pad, m))
    shaped = cols.reshape(c, k, k, oh, ow, m)
    for kh in range(k):
        for kw in range(k):
            img[:, kh : kh + oh, kw : kw + ow, :] += shaped[:, kh, kw]
    if pad:
        img = img[:, pad:-pad, pad:-pad, :]
    return img.reshape(c * h * w, m)


def forward(net: Network, x_batch) -> ForwardPass:
    """Run the stack, capturing every preconditioned layer's input.

    Forward never writes into its input: a ReLU on the caller's batch
    makes a new array.  Every other bias add and ReLU acts in place on
    the array its layer's GEMM just made, so each activation is written
    once.
    """
    batch = cur = linalg.as_matrix(x_batch)
    if cur.shape[0] != net.in_dim:
        raise ValueError(f"network expects {net.in_dim} features, got {cur.shape[0]}")
    captures = []
    for i, layer in enumerate(net.layers):
        if layer.kind != "relu":
            # A dense layer is a conv with one patch position, the whole input.
            m = cur.shape[1]
            x = _im2col(cur, layer) if layer.kind == "conv" else cur
            captures.append(LayerCapture(i, layer.kind, x))
            out = layer.weight @ x.reshape(x.shape[0], -1)
            out = out.reshape(layer.weight.shape[0], -1, m)
            if layer.bias is not None:
                out += layer.bias[:, None, None]
            cur = out.reshape(-1, m)
        else:
            mask = cur > 0.0
            captures.append(LayerCapture(i, "relu", mask))
            if cur is batch:
                cur = cur * mask
            else:
                cur *= mask
    return ForwardPass(cur, captures)


def _per_sample_losses_and_grads(outputs, targets):
    """Per-sample cross-entropy values and output gradients (no 1/M):
    Z = softmax(outputs) - one-hot(targets)."""
    m = outputs.shape[1]
    labels = np.asarray(targets)
    if labels.ndim != 1 or labels.shape[0] != m:
        raise ValueError(f"expected {m} class labels, got shape {labels.shape}")
    if labels.size and (int(labels.min()) < 0 or int(labels.max()) >= outputs.shape[0]):
        raise ValueError(
            f"invalid class index {int(labels.max())} for {outputs.shape[0]} outputs"
        )
    labels = labels.astype(np.int64)
    shift = outputs.max(axis=0)
    ex = np.exp(outputs - shift)
    denom = ex.sum(axis=0)
    cols = np.arange(m)
    losses = np.log(denom) + shift - outputs[labels, cols]
    z = ex / denom
    z[labels, cols] -= 1.0
    return losses, z


def loss_value(outputs, targets) -> float:
    """Batch-mean softmax cross-entropy of logits against class labels."""
    outputs = linalg.as_matrix(outputs)
    losses, _ = _per_sample_losses_and_grads(outputs, targets)
    return float(losses.mean())


def backward(net: Network, fwd: ForwardPass, targets) -> BackwardPass:
    """Fill per-sample Z into the captures; return loss, bias gradients
    and the count of correct predictions.

    Weight gradients are deliberately not formed here: consumers build
    either the batch mean (weight_gradients) or a weighted sum from the
    captured X and Z.

    A ReLU masks the incoming gradient in place.  That array is always
    one the loss, a GEMM or _col2im has just made, and no capture holds
    it: each layer's captured Z is followed by W^T Z, a new array.
    """
    losses, d = _per_sample_losses_and_grads(fwd.outputs, targets)
    bias_grads: dict[str, np.ndarray] = {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        cap = fwd.captures[i]
        if layer.kind == "relu":
            d *= cap.x
            continue
        # A dense Z is a conv Z with one patch position: (out, M) is (out, 1, M).
        o, m = layer.weight.shape[0], d.shape[1]
        cap.z = d.reshape(o, layer.patch_count, m) if layer.kind == "conv" else d
        if layer.bias is not None:
            per_sample = cap.z.sum(axis=1) if layer.kind == "conv" else d
            bias_grads[f"layer{i}.bias"] = per_sample.mean(axis=1)
        if i:
            d = layer.weight.T @ d.reshape(o, -1)
            if layer.kind == "conv":
                d = _col2im(d.reshape(cap.x.shape), layer)
    correct = int((fwd.outputs.argmax(axis=0) == targets).sum())
    return BackwardPass(float(losses.mean()), bias_grads, correct)


def weight_gradients(net: Network, fwd: ForwardPass,
                     scale: float = 1.0) -> dict[str, np.ndarray]:
    """scale times the batch-mean weight gradients, (scale/M) Z X^T,
    assembled from the captures and summed over patch positions; a dense
    capture has one position.  With scale = lr each result is the SGD
    step itself.

    scale/M multiplies whichever is smaller, the captured Z (never in
    place: the capture is left as backward wrote it) or the GEMM's
    output in place, so each gradient is one weight-sized array written
    by the GEMM and passed over at most once more."""
    grads = {}
    for i in net.preconditioned():
        z, x = fwd.captures[i].z, fwd.captures[i].x
        if z is None:
            raise RuntimeError(f"layer {i} capture has no Z; run backward first")
        z2, x2 = z.reshape(z.shape[0], -1), x.reshape(x.shape[0], -1)
        s = scale / z.shape[-1]
        if z2.size < z2.shape[0] * x2.shape[0]:
            g = (s * z2) @ x2.T
        else:
            g = z2 @ x2.T
            g *= s
        grads[f"layer{i}.weight"] = g
    return grads

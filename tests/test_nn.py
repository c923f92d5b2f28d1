"""Forward/backward correctness of the dense+conv engine.

The load-bearing checks are finite-difference oracles: every assembled
gradient (weights and biases, dense and conv) must match
central differences of the batch loss.  Conv forward is additionally
checked against a direct nested-loop convolution written here.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fngd import linalg, nn, persample


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _batch_loss(net, x, y):
    return nn.loss_value(nn.forward(net, x).outputs, y)


def _dense_net(seed):
    rng = _rng(seed)
    return nn.Network([
        nn.Dense.create(4, 5, rng),
        nn.Relu(),
        nn.Dense.create(5, 3, rng),
    ])


def _conv_net(seed):
    rng = _rng(seed)
    conv = nn.Conv2d.create(1, 2, 3, "same", 4, 4, rng)
    return nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)])


# --------------------------------------------------------------- forward

def test_identity_dense_prediction():
    net = nn.Network([nn.Dense(np.eye(2), np.zeros(2))])
    out = nn.forward(net, np.array([[1.0], [2.0]])).outputs
    assert np.array_equal(out, [[1.0], [2.0]])


def test_relu_elementwise():
    net = nn.Network([nn.Dense(np.eye(2)), nn.Relu()])
    out = nn.forward(net, np.array([[-1.0], [2.0]])).outputs
    assert np.array_equal(out, [[0.0], [2.0]])


def test_forward_keeps_a_sample_major_batch_uncopied():
    # the layout load_idx and synthetic_classification give every batch
    net = _dense_net(15)
    c_batch = _rng(16).standard_normal((4, 6))
    f_batch = np.asfortranarray(c_batch)
    fwd = nn.forward(net, f_batch)
    assert np.shares_memory(fwd.captures[0].x, f_batch)
    want = nn.forward(net, c_batch).outputs
    assert np.abs(fwd.outputs - want).max() <= 1e-12 * np.abs(want).max()


def test_forward_leaves_the_callers_batch_untouched():
    # A ReLU at layer 0 masks the caller's batch; the ReLUs after a GEMM
    # mask in place, so this one must make a new array.
    rng = _rng(17)
    net = nn.Network([nn.Relu(), nn.Dense.create(4, 3, rng), nn.Relu(),
                      nn.Dense.create(3, 2, rng)])
    batch = np.asfortranarray(rng.standard_normal((4, 6)))
    before = batch.tobytes()
    fwd = nn.forward(net, batch)
    assert batch.tobytes() == before
    assert np.array_equal(fwd.captures[1].x, np.maximum(batch, 0.0))


def test_forward_rejects_wrong_feature_count():
    net = _dense_net(0)
    with pytest.raises(ValueError, match="expects 4 features"):
        nn.forward(net, np.zeros((3, 2)))


def test_conv_1x1_kernel_is_dense_per_pixel():
    rng = _rng(1)
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    conv = nn.Conv2d(w, b, in_channels=2, kernel=1, padding="same", in_h=2, in_w=2)
    net = nn.Network([conv])
    x = rng.standard_normal((2 * 2 * 2, 5))
    got = nn.forward(net, x).outputs
    # dense oracle: the same map applied independently at each pixel
    pix = x.reshape(2, 4, 5)
    want = np.einsum("oc,cpm->opm", w, pix) + b[:, None, None]
    assert np.abs(got - want.reshape(12, 5)).max() <= 1e-14


def _loop_conv(x_img, weight, bias, kernel, pad):
    """Direct nested-loop convolution oracle, channels x h x w input."""
    c, h, w = x_img.shape
    o = weight.shape[0]
    ker = weight.reshape(o, c, kernel, kernel)
    padded = np.pad(x_img, ((0, 0), (pad, pad), (pad, pad)))
    oh = h + 2 * pad - kernel + 1
    ow = w + 2 * pad - kernel + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                patch = padded[:, i : i + kernel, j : j + kernel]
                out[oc, i, j] = np.sum(ker[oc] * patch) + bias[oc]
    return out


@pytest.mark.parametrize("padding,pad", [("same", 1), ("valid", 0)])
def test_conv_forward_matches_loop_oracle(padding, pad):
    rng = _rng(2)
    conv = nn.Conv2d.create(2, 3, 3, padding, 5, 4, rng)
    net = nn.Network([conv])
    x = rng.standard_normal((2 * 5 * 4, 3))
    got = nn.forward(net, x).outputs
    for m in range(3):
        want = _loop_conv(x[:, m].reshape(2, 5, 4), conv.weight, conv.bias, 3, pad)
        assert np.abs(got[:, m] - want.reshape(-1)).max() <= 1e-12


def test_conv_valid_padding_shapes():
    rng = _rng(3)
    conv = nn.Conv2d.create(1, 2, 3, "valid", 4, 4, rng)
    assert (conv.out_h, conv.out_w) == (2, 2)
    assert conv.flat_out == 8
    with pytest.raises(ValueError, match="does not fit"):
        nn.Conv2d.create(1, 2, 5, "valid", 4, 4, rng)


def test_layer_validation():
    rng = _rng(4)
    with pytest.raises(ValueError, match="kernel size"):
        nn.Conv2d.create(1, 2, 2, "same", 4, 4, rng)
    with pytest.raises(ValueError, match="padding"):
        nn.Conv2d.create(1, 2, 3, "full", 4, 4, rng)
    with pytest.raises(ValueError, match="bias length"):
        nn.Dense(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match=r"kernel matrix has 5 columns, expected 1 \* 3\^2"):
        nn.Conv2d(np.ones((2, 5)), None, 1, 3, "same", 4, 4)
    with pytest.raises(ValueError, match="bias length does not match output channels"):
        nn.Conv2d(np.ones((2, 9)), np.zeros(3), 1, 3, "same", 4, 4)
    with pytest.raises(ValueError, match="expects 5 inputs"):
        nn.Network([nn.Dense(np.ones((4, 3))), nn.Dense(np.ones((2, 5)))])
    with pytest.raises(ValueError, match="loss"):
        nn.Network([nn.Dense(np.eye(2))], "squared_error")
    with pytest.raises(ValueError, match="no parameterized layers"):
        nn.Network([nn.Relu()])
    with pytest.raises(ValueError, match=r"^layer\[0\]: unknown layer kind 'tanh'$"):
        nn.Network([SimpleNamespace(kind="tanh"), nn.Dense(np.eye(2))])


# ------------------------------------------------------------ loss values

def test_cross_entropy_uniform_logits():
    for k in (2, 5, 10):
        out = np.zeros((k, 3))
        y = np.array([0, 1, k - 1][:3]) % k
        assert abs(nn.loss_value(out, y) - math.log(k)) <= 1e-12


def test_cross_entropy_confident_prediction_is_zero():
    out = np.full((4, 2), -1000.0)
    out[1, 0] = 1000.0
    out[3, 1] = 1000.0
    assert nn.loss_value(out, np.array([1, 3])) == 0.0


def test_loss_validation():
    with pytest.raises(ValueError, match="class labels"):
        nn.loss_value(np.zeros((2, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="class labels"):
        nn.loss_value(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="invalid class index"):
        nn.loss_value(np.zeros((2, 2)), np.array([0, 5]))


# ---------------------------------------------------------- backward / Z

def test_cross_entropy_z_is_softmax_minus_onehot():
    rng = _rng(5)
    net = nn.Network([nn.Dense(rng.standard_normal((3, 4)))])
    x = rng.standard_normal((4, 6))
    y = rng.integers(0, 3, 6)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    logits = fwd.outputs
    soft = np.exp(logits) / np.exp(logits).sum(axis=0)
    want = soft.copy()
    want[y, np.arange(6)] -= 1.0
    assert np.abs(fwd.captures[0].z - want).max() <= 1e-12


def _check_gradients_against_fd(net, x, y, rel_err, fd_grad):
    """Every weight and bias gradient matches central differences to 1e-5."""
    fwd = nn.forward(net, x)
    bwd = nn.backward(net, fwd, y)
    grads = nn.weight_gradients(net, fwd)
    grads.update(bwd.bias_grads)
    assert set(grads) == set(net.parameters())
    for name, param in net.parameters().items():
        want = fd_grad(lambda: _batch_loss(net, x, y), param)
        assert rel_err(grads[name], want) <= 1e-5, name


def test_dense_gradients_match_finite_differences(rel_err, fd_grad):
    rng = _rng(7)
    x = rng.standard_normal((4, 6))
    _check_gradients_against_fd(_dense_net(7), x, rng.integers(0, 3, 6), rel_err, fd_grad)


def test_conv_gradients_match_finite_differences(rel_err, fd_grad):
    rng = _rng(8)
    x = rng.standard_normal((16, 4))
    _check_gradients_against_fd(_conv_net(8), x, rng.integers(0, 3, 4), rel_err, fd_grad)


@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("kernels", [(1, 3), (3, 5), (5, 1)])
def test_conv_input_gradients_match_finite_differences(kernels, padding, rel_err, fd_grad):
    # The second conv forms its input gradient through _col2im, so the
    # first conv's gradients check every kernel offset of it; under same
    # padding, also the cut that drops the padded border.
    k1, k2 = kernels
    rng = _rng(20 + k2)
    first = nn.Conv2d.create(2, 3, k1, "same", 6, 5, rng)
    second = nn.Conv2d.create(3, 2, k2, padding, 6, 5, rng)
    net = nn.Network([first, nn.Relu(), second, nn.Relu(),
                      nn.Dense.create(second.flat_out, 3, rng)])
    for layer in (first, second):
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal((first.flat_in, 4))
    _check_gradients_against_fd(net, x, rng.integers(0, 3, 4), rel_err, fd_grad)


def test_backward_loss_matches_loss_value():
    rng = _rng(9)
    net = _dense_net(9)
    x = rng.standard_normal((4, 5))
    y = rng.integers(0, 3, 5)
    fwd = nn.forward(net, x)
    bwd = nn.backward(net, fwd, y)
    assert bwd.loss == _batch_loss(net, x, y)


def test_single_sample_gradients_average_to_batch_gradient():
    rng = _rng(10)
    net = _dense_net(10)
    x = rng.standard_normal((4, 3))
    y = rng.integers(0, 3, 3)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    batch = nn.weight_gradients(net, fwd)
    singles = []
    for m in range(3):
        f1 = nn.forward(net, x[:, m : m + 1])
        nn.backward(net, f1, y[m : m + 1])
        singles.append(nn.weight_gradients(net, f1))
    for name in batch:
        mean = sum(s[name] for s in singles) / 3.0
        assert np.abs(batch[name] - mean).max() <= 1e-12


def test_mean_identity_dense_and_conv():
    # the batch gradient equals the column mean of the per-sample matrix
    rng = _rng(11)
    net = _conv_net(11)
    x = rng.standard_normal((16, 5))
    y = rng.integers(0, 3, 5)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    grads = nn.weight_gradients(net, fwd)
    for i in net.preconditioned():
        cap = fwd.captures[i]
        if cap.kind == "dense":
            u = linalg.khatri_rao(cap.z, cap.x)
        else:
            u = persample.build_u_conv(cap)
        g = grads[f"layer{i}.weight"].reshape(-1)
        scale = max(1.0, np.abs(g).max())
        assert np.abs(u.mean(axis=1) - g).max() <= 1e-12 * scale


def _per_sample_gradient_sum(cap):
    """Sum over samples of each sample's weight gradient, from explicit
    outer products: one per sample (dense) or per patch, summed over the
    sample's patches (conv)."""
    z, x = cap.z, cap.x
    if cap.kind == "dense":
        return sum(np.outer(z[:, m], x[:, m]) for m in range(z.shape[-1]))
    return sum(sum(np.outer(z[:, s, m], x[:, s, m]) for s in range(z.shape[1]))
               for m in range(z.shape[-1]))


def _scale_nets():
    rng = _rng(15)
    conv = nn.Conv2d.create(1, 2, 3, "same", 4, 4, rng)
    return {
        # (net, batch, whether scale/M multiplies each layer's Z)
        "dense-z": (nn.Network([nn.Dense.create(12, 8, rng), nn.Relu(),
                                nn.Dense.create(8, 3, rng)]), 5, [True, True]),
        "dense-product": (nn.Network([nn.Dense.create(4, 5, rng), nn.Relu(),
                                      nn.Dense.create(5, 3, rng)]), 9, [False, False]),
        "conv": (nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)]),
                 5, [False, True]),
    }


@pytest.mark.parametrize("name", ["dense-z", "dense-product", "conv"])
def test_scaled_weight_gradients_match_per_sample_oracle(name, rel_err):
    # weight_gradients(net, fwd, lr) is lr (1/M) times the sum of the
    # per-sample gradients, whichever operand the scale lands on; the
    # default scale is the batch mean Z X^T / M.
    net, m, on_z = _scale_nets()[name]
    rng = _rng(16)
    fwd = nn.forward(net, rng.standard_normal((net.in_dim, m)))
    nn.backward(net, fwd, rng.integers(0, 3, m))
    lr = 0.3
    steps = nn.weight_gradients(net, fwd, lr)
    means = nn.weight_gradients(net, fwd)
    for i, z_branch in zip(net.preconditioned(), on_z):
        cap = fwd.captures[i]
        w = net.layers[i].weight
        assert (cap.z.size < w.size) == z_branch
        key = f"layer{i}.weight"
        assert rel_err(steps[key], lr * (1.0 / m) * _per_sample_gradient_sum(cap)) <= 1e-12
        z2, x2 = cap.z.reshape(w.shape[0], -1), cap.x.reshape(w.shape[1], -1)
        assert rel_err(means[key], z2 @ x2.T / m) <= 1e-14


def test_duplicated_sample_duplicates_capture_columns():
    rng = _rng(12)
    net = _dense_net(12)
    x = rng.standard_normal((4, 2))
    xx = np.hstack([x, x[:, :1]])
    y = np.array([0, 2, 0])
    fwd = nn.forward(net, xx)
    nn.backward(net, fwd, y)
    for cap in fwd.captures:
        if cap.kind == "relu":
            continue
        assert np.array_equal(cap.x[..., 0], cap.x[..., 2])
        assert np.array_equal(cap.z[..., 0], cap.z[..., 2])


def test_weight_gradients_requires_backward():
    net = _dense_net(13)
    fwd = nn.forward(net, np.zeros((4, 2)))
    with pytest.raises(RuntimeError, match="run backward first"):
        nn.weight_gradients(net, fwd)


def test_parameters_are_live_views():
    net = _dense_net(14)
    params = net.parameters()
    params["layer0.weight"][0, 0] = 123.0
    assert net.layers[0].weight[0, 0] == 123.0
    assert set(params) == {"layer0.weight", "layer0.bias",
                           "layer2.weight", "layer2.bias"}
    assert net.preconditioned() == [0, 2]

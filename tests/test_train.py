"""Split evaluation: chunked forward passes against one whole-split pass."""

import tracemalloc

import numpy as np
import pytest

from fngd import data, nn
from fngd.train import evaluate

N = 17


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_net(rng):
    return nn.Network([nn.Dense.create(6, 5, rng), nn.Relu(), nn.Dense.create(5, 3, rng)],
                      "cross_entropy")


def _conv_net(rng, padding):
    conv = nn.Conv2d.create(2, 3, 3, padding, 5, 5, rng)
    return nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)],
                      "cross_entropy")


def _split(net, n, rng):
    return data.Dataset(rng.standard_normal((net.in_dim, n)), rng.integers(0, 3, n),
                        num_classes=3)


@pytest.mark.parametrize("make", [
    _dense_net,
    lambda rng: _conv_net(rng, "same"),
    lambda rng: _conv_net(rng, "valid"),
], ids=["dense", "conv-same", "conv-valid"])
@pytest.mark.parametrize("batch", [1, 3, N, N + 5])
def test_chunked_evaluate_matches_one_pass(make, batch):
    rng = _rng(4)
    net = make(rng)
    ds = _split(net, N, rng)
    outputs = nn.forward(net, ds.inputs).outputs
    want_loss = nn.loss_value(net.loss, outputs, ds.targets)
    want_acc = float((outputs.argmax(axis=0) == ds.targets).mean())
    loss, acc = evaluate(net, ds, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert acc == want_acc


def _eval_peak(net, ds, batch):
    tracemalloc.start()
    try:
        evaluate(net, ds, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_tracks_the_batch_not_the_split():
    # A conv layer's im2col patches dominate a forward pass; evaluating a
    # split of eight batches must not hold eight batches of them at once.
    rng = _rng(7)
    batch = 32
    conv = nn.Conv2d.create(4, 8, 3, "same", 8, 8, rng)
    net = nn.Network([conv, nn.Relu(), nn.Dense.create(conv.flat_out, 3, rng)],
                     "cross_entropy")
    one = _split(net, batch, rng)
    eight = _split(net, 8 * batch, rng)
    assert _eval_peak(net, eight, batch) <= 2 * _eval_peak(net, one, batch)

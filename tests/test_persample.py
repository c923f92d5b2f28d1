"""Gram matrices of per-sample gradients and the explicit conv route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fngd import linalg, nn, persample


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_capture(seed, out_dim=3, in_dim=4, m=5):
    rng = _rng(seed)
    cap = nn.LayerCapture(0, "dense", rng.standard_normal((in_dim, m)))
    cap.z = rng.standard_normal((out_dim, m))
    return cap


def _conv_capture(seed, o=2, c=1, k=3, h=4, w=4, m=3, padding="same"):
    """Real captures from a conv forward/backward, not synthetic shapes."""
    rng = _rng(seed)
    conv = nn.Conv2d.create(c, o, k, padding, h, w, rng)
    net = nn.Network([conv])
    x = rng.standard_normal((c * h * w, m))
    y = rng.integers(0, conv.flat_out, m)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    return fwd.captures[0]


# ------------------------------------------------------------- gram_dense

def test_gram_dense_matches_explicit_khatri_rao():
    cap = _dense_capture(0, out_dim=2, in_dim=3, m=4)
    u = linalg.khatri_rao(cap.z, cap.x)
    want = u.T @ u
    got = persample.gram_dense(cap)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_gram_single_sample_is_scalar_product():
    cap = _dense_capture(1, m=1)
    got = persample.gram_dense(cap)
    want = float(cap.z[:, 0] @ cap.z[:, 0]) * float(cap.x[:, 0] @ cap.x[:, 0])
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - want) <= 1e-12 * max(1.0, abs(want))


def test_gram_duplicate_sample_entries_agree():
    cap = _dense_capture(2, m=1)
    dup = nn.LayerCapture(0, "dense", np.hstack([cap.x, cap.x]))
    dup.z = np.hstack([cap.z, cap.z])
    g = persample.gram_dense(dup)
    assert g[0, 0] == g[0, 1] == g[1, 1]


def test_gram_mean_col_is_u_transpose_times_mean_gradient():
    cap = _dense_capture(3)
    g = persample.gram_dense(cap)
    u = linalg.khatri_rao(cap.z, cap.x)
    g_mean = u.mean(axis=1)
    want = u.T @ g_mean
    scale = max(1.0, np.abs(want).max())
    assert np.abs(g.mean(axis=1) - want).max() <= 1e-12 * scale


def test_gram_permutation_equivariance():
    cap = _dense_capture(4, m=6)
    g = persample.gram_dense(cap)
    perm = np.array([3, 0, 5, 1, 4, 2])
    pcap = nn.LayerCapture(0, "dense", cap.x[:, perm])
    pcap.z = cap.z[:, perm]
    pg = persample.gram_dense(pcap)
    assert np.abs(pg - g[np.ix_(perm, perm)]).max() <= 1e-12


def test_gram_scale_property():
    cap = _dense_capture(5)
    base = persample.gram_dense(cap)
    scaled = nn.LayerCapture(0, "dense", 2.0 * cap.x)
    scaled.z = 3.0 * cap.z
    got = persample.gram_dense(scaled)
    assert np.abs(got - 36.0 * base).max() <= 1e-12 * max(1.0, np.abs(got).max())


def test_gram_psd_within_tolerance():
    cap = _dense_capture(6, out_dim=5, in_dim=7, m=9)
    g = persample.gram_dense(cap)
    eigs = linalg.sym_eigvals(g)
    assert eigs[0] >= -1e-10 * np.linalg.norm(g)


@pytest.mark.parametrize("out_dim", [1, 10, 128])
@pytest.mark.parametrize("m", [129, 256, 300, 513])
def test_gram_dense_in_strips_matches_khatri_rao(m, out_dim):
    # more than one strip, including a last strip of one row (129, 513)
    assert m > persample.STRIP
    cap = _dense_capture(40 + m, out_dim=out_dim, in_dim=5, m=m)
    u = linalg.khatri_rao(cap.z, cap.x)
    want = u.T @ u
    got = persample.gram_dense(cap)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("m", [2, 64, 128])
def test_gram_dense_in_one_strip_is_the_whole_product(m):
    assert m <= persample.STRIP
    cap = _dense_capture(50 + m, out_dim=10, in_dim=30, m=m)
    want = (cap.z.T @ cap.z) * (cap.x.T @ cap.x)
    assert np.array_equal(persample.gram_dense(cap), want)


def test_gram_dense_requires_backward_and_kind():
    cap = nn.LayerCapture(0, "dense", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="run backward first"):
        persample.gram_dense(cap)
    with pytest.raises(ValueError, match="dense capture"):
        persample.gram_dense(nn.LayerCapture(0, "conv", np.zeros((2, 3, 4))))


# ----------------------------------------------------------- build_u_conv

def test_u_conv_single_patch_reduces_to_khatri_rao():
    cap = _conv_capture(8, c=2, k=1, h=1, w=1, m=4)
    assert cap.z.shape[1] == 1
    u = persample.build_u_conv(cap)
    want = linalg.khatri_rao(cap.z[:, 0, :], cap.x[:, 0, :])
    assert np.array_equal(u, want)


def test_u_conv_1x1_image_matches_dense_gram():
    cap = _conv_capture(9, c=2, k=1, h=1, w=1, m=4)
    g_conv = persample.gram_conv(persample.build_u_conv(cap))
    dense = nn.LayerCapture(0, "dense", cap.x[:, 0, :])
    dense.z = cap.z[:, 0, :]
    g_dense = persample.gram_dense(dense)
    assert np.abs(g_conv - g_dense).max() <= 1e-12 * max(1.0, np.abs(g_dense).max())


def test_u_conv_columns_match_per_sample_finite_differences(rel_err, fd_grad):
    rng = _rng(10)
    conv = nn.Conv2d.create(1, 2, 3, "same", 3, 3, rng)
    net = nn.Network([conv])
    x = rng.standard_normal((9, 3))
    y = rng.integers(0, conv.flat_out, 3)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    u = persample.build_u_conv(fwd.captures[0])
    for m in range(3):
        def sample_loss(m=m):
            out = nn.forward(net, x[:, m : m + 1]).outputs
            return nn.loss_value(out, y[m : m + 1])
        want = fd_grad(sample_loss, conv.weight)
        assert rel_err(u[:, m], want.reshape(-1)) <= 1e-5


@pytest.mark.parametrize("m", [2, 7, 64])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_u_conv_matches_einsum_reference(k, padding, m, rel_err):
    cap = _conv_capture(20 + k, o=3, c=2, k=k, h=6, w=5, m=m, padding=padding)
    o, s, _ = cap.z.shape
    assert s == (30 if padding == "same" else (7 - k) * (6 - k))
    want = np.einsum("osm,ism->oim", cap.z, cap.x).reshape(o * cap.x.shape[0], m)
    got = persample.build_u_conv(cap)
    assert got.shape == want.shape
    assert rel_err(got, want) <= 1e-12


def test_gram_dispatches_on_capture_kind():
    dense = _dense_capture(16)
    g, u = persample.gram(dense)
    assert u is None
    assert np.array_equal(g, persample.gram_dense(dense))

    conv = _conv_capture(17)
    g, u = persample.gram(conv)
    want_u = persample.build_u_conv(conv)
    assert np.array_equal(g, persample.gram_conv(want_u))
    assert np.array_equal(u, want_u)


def _block_budget(cap, width):
    """The U budget that fits exactly `width` output channels' rows."""
    return width * cap.x.shape[0] * cap.x.shape[-1] * 8


@pytest.mark.parametrize("width", [1, 2, 5, 8])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_blocked_gram_matches_one_block(k, padding, width, rel_err):
    # 5 output channels: blocks of 1, of 2 (a non-divisor), and of all
    cap = _conv_capture(30 + k, o=5, c=2, k=k, h=6, w=5, m=7, padding=padding)
    whole, whole_u = persample.gram(cap)
    assert whole_u is not None
    got, got_u = persample.gram(cap, u_budget=_block_budget(cap, width))
    assert rel_err(got, whole) <= 1e-12
    assert np.array_equal(got, got.T)
    assert (got_u is None) == (width < 5)
    if got_u is not None:
        assert np.array_equal(got, whole)
    # one byte short of a block of `width` leaves blocks of width - 1
    if width > 1:
        short, short_u = persample.gram(cap, u_budget=_block_budget(cap, width) - 1)
        assert rel_err(short, whole) <= 1e-12
        assert (short_u is None) == (width - 1 < 5)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_blocked_gram_is_bitwise_the_one_block_gram(width):
    # small integers make every product and sum exact, so the blocks' sum
    # must equal the one-block Gram bit for bit whatever the order
    rng = _rng(60 + width)
    cap = nn.LayerCapture(0, "conv", rng.integers(-3, 4, (18, 30, 7)).astype(float))
    cap.z = rng.integers(-3, 4, (5, 30, 7)).astype(float)
    whole, whole_u = persample.gram(cap)
    got, got_u = persample.gram(cap, u_budget=_block_budget(cap, width))
    assert whole_u is not None and got_u is None
    assert np.array_equal(got, whole)


def test_u_conv_channel_range_is_rows_of_u(rel_err):
    cap = _conv_capture(11, o=4, c=2, k=3, h=4, w=4, m=3)
    u = persample.build_u_conv(cap)
    rows = cap.x.shape[0]
    assert rel_err(persample.build_u_conv(cap, slice(1, 3)), u[rows : 3 * rows]) <= 1e-12
    assert rel_err(persample.build_u_conv(cap, slice(3, 9)), u[3 * rows :]) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 3, 5]),
       st.sampled_from(["same", "valid"]), st.integers(1, 9), st.integers(1, 6),
       st.integers(0, 10_000))
def test_blocked_gram_equals_explicit_u_gram(o, c, k, padding, m, width, seed):
    cap = _conv_capture(seed, o=o, c=c, k=k, h=5, w=6, m=m, padding=padding)
    u = np.einsum("osm,ism->oim", cap.z, cap.x).reshape(o * cap.x.shape[0], m)
    want = u.T @ u
    got, _ = persample.gram(cap, u_budget=_block_budget(cap, width))
    scale = max(float(np.abs(want).max()), 1e-30)
    assert float(np.abs(got - want).max()) <= 1e-12 * scale


def test_u_conv_requires_backward_and_kind():
    cap = nn.LayerCapture(0, "conv", np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="run backward first"):
        persample.build_u_conv(cap)
    with pytest.raises(ValueError, match="conv capture"):
        persample.build_u_conv(nn.LayerCapture(0, "dense", np.zeros((2, 3))))


def test_gram_conv_orthogonal_and_rank_one():
    u = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    g = persample.gram_conv(u)
    assert np.array_equal(g, np.diag([1.0, 4.0]))
    v = np.array([[1.0], [2.0]])
    uu = np.hstack([v, v])
    g2 = persample.gram_conv(uu)
    assert np.array_equal(g2, 5.0 * np.ones((2, 2)))


# ------------------------------------- per_sample_grad_dense (test oracle)

def test_per_sample_grad_hand_outer_product(per_sample_grad_dense):
    cap = nn.LayerCapture(0, "dense", np.array([[1.0], [2.0]]))
    cap.z = np.array([[3.0]])
    got = per_sample_grad_dense(cap, 0)
    assert np.array_equal(got, [[3.0, 6.0]])


def test_per_sample_grads_average_to_batch_gradient(per_sample_grad_dense):
    cap = _dense_capture(12)
    m = cap.z.shape[1]
    mean = sum(per_sample_grad_dense(cap, i) for i in range(m)) / m
    batch = (cap.z @ cap.x.T) / m
    assert np.abs(mean - batch).max() <= 1e-12 * max(1.0, np.abs(batch).max())


def test_per_sample_grad_is_khatri_rao_column(per_sample_grad_dense):
    cap = _dense_capture(13)
    u = linalg.khatri_rao(cap.z, cap.x)
    for m in range(cap.z.shape[1]):
        got = per_sample_grad_dense(cap, m).reshape(-1)
        assert np.array_equal(got, u[:, m])


def test_per_sample_grad_index_error(per_sample_grad_dense):
    cap = _dense_capture(14, m=3)
    with pytest.raises(IndexError, match="out of range"):
        per_sample_grad_dense(cap, 3)

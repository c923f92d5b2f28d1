"""Coefficient computation, preconditioning routes, and the shared table."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fngd import core, linalg, nn, persample


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _gram_of(u):
    return persample.gram_conv(np.asarray(u, dtype=float))


def _dense_capture(seed, out_dim=3, in_dim=4, m=5):
    rng = _rng(seed)
    cap = nn.LayerCapture(0, "dense", rng.standard_normal((in_dim, m)))
    cap.z = rng.standard_normal((out_dim, m))
    return cap


def _conv_capture(seed, o=2, c=1, k=3, h=4, w=4, m=3, padding="same"):
    rng = _rng(seed)
    conv = nn.Conv2d.create(c, o, k, padding, h, w, rng)
    net = nn.Network([conv])
    x = rng.standard_normal((c * h * w, m))
    y = rng.integers(0, conv.flat_out, m)
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, y)
    return fwd.captures[0]


def _clone_net(net):
    return copy.deepcopy(net)


# --------------------------------------------------------- damping_lambda

def test_damping_hand_value():
    assert core.damping_lambda(np.diag([3.0, 4.0]), core.DampingRule(alpha=0.1)) == 0.5


def test_damping_floor_on_zero_gram():
    rule = core.DampingRule(alpha=0.1)
    assert core.damping_lambda(np.zeros((2, 2)), rule) == 1e-12


def test_damping_homogeneity():
    g = _gram_of(_rng(0).standard_normal((4, 3)))
    rule = core.DampingRule(alpha=0.25)
    base = core.damping_lambda(g, rule)
    assert abs(core.damping_lambda(4.0 * g, rule) - 4.0 * base) <= 1e-12 * base


def test_damping_fixed_override():
    rule = core.DampingRule(alpha=0.25, fixed=0.3)
    assert core.damping_lambda(_gram_of(_rng(1).standard_normal((4, 3))), rule) == 0.3


def test_damping_rule_validation():
    with pytest.raises(ValueError, match="alpha"):
        core.DampingRule(alpha=0.0)
    with pytest.raises(ValueError, match="fixed"):
        core.DampingRule(fixed=0.0)
    # non-finite values are refused when the rule is built, not at the first solve
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {value}$"):
            core.DampingRule(alpha=value)
        with pytest.raises(ValueError, match=f"^fixed damping must be positive and finite, "
                                              f"got {value}$"):
            core.DampingRule(fixed=value)


# ----------------------------------------------------------- coefficients

def test_coefficients_zero_curvature_is_uniform():
    c = core.coefficients(np.zeros((2, 2)), lam=1.0)
    assert np.array_equal(c, [0.5, 0.5])


def test_coefficients_identity_hand_case():
    # U = I (M=2), lam=1: gbar=[.5,.5], (1.5 I)^-1 gbar = [1/3,1/3],
    # c = (1 - 1/3)/2 = [1/3, 1/3]; and (1/lam) U c matches the direct
    # n-by-n solve of the damped system for the mean gradient.
    c = core.coefficients(_gram_of(np.eye(2)), lam=1.0)
    assert np.abs(c - [1.0 / 3.0, 1.0 / 3.0]).max() <= 1e-15
    g = np.eye(2).mean(axis=1)
    direct = np.linalg.solve(np.eye(2) + 0.5 * np.eye(2), g)
    assert np.abs(np.eye(2) @ c / 1.0 - direct).max() <= 1e-15


def test_coefficients_huge_damping_degenerates_to_uniform():
    u = _rng(2).standard_normal((6, 4))
    g = _gram_of(u)
    lam = 1e12 * np.linalg.norm(g)
    c = core.coefficients(g, lam)
    assert np.abs(c - 0.25).max() <= 1e-9


def test_coefficients_scale_invariance():
    u = _rng(3).standard_normal((5, 3))
    g = _gram_of(u)
    base = core.coefficients(g, core.damping_lambda(g, core.DampingRule()))
    for s in (0.1, 7.0):
        g = _gram_of(s * u)
        lam = core.damping_lambda(g, core.DampingRule())
        got = core.coefficients(g, lam)
        assert np.abs(got - base).max() <= 1e-10 * max(1.0, np.abs(base).max())


def test_coefficients_permutation_equivariance():
    u = _rng(4).standard_normal((5, 4))
    lam = 0.3
    c = core.coefficients(_gram_of(u), lam)
    perm = np.array([2, 0, 3, 1])
    cp = core.coefficients(_gram_of(u[:, perm]), lam)
    assert np.abs(cp - c[perm]).max() <= 1e-12
    assert np.abs(u[:, perm] @ cp - u @ c).max() <= 1e-12


def test_coefficients_rejects_bad_damping():
    for lam in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            core.coefficients(np.eye(2), lam)
        # a table that took it would save a file that CoefficientTable.load refuses
        with pytest.raises(ValueError, match=f"^damping must be positive and finite, got {lam}$"):
            core.CoefficientTable().accumulate(0, np.array([0.5, 0.5]), lam=lam)


def test_coefficient_route_matches_direct_solve(rel_err):
    rng = _rng(5)
    for _ in range(10):
        n, m = int(rng.integers(3, 40)), int(rng.integers(2, 9))
        u = rng.standard_normal((n, m))
        lam = float(rng.uniform(1e-3, 1.0))
        c = core.coefficients(_gram_of(u), lam)
        got = (u @ c) / lam
        want = np.linalg.solve(lam * np.eye(n) + (u @ u.T) / m, u.mean(axis=1))
        assert rel_err(got, want) <= 1e-9


# --------------------------------------------------- preconditioning paths

def test_precondition_uniform_weights_is_batch_gradient():
    cap = _dense_capture(6)
    m = cap.z.shape[1]
    d = core.precondition(cap, np.full(m, 1.0 / m))
    batch = (cap.z @ cap.x.T) / m
    assert np.abs(d - batch).max() <= 1e-14 * max(1.0, np.abs(batch).max())


def test_precondition_onehot_selects_per_sample_gradient(per_sample_grad_dense):
    cap = _dense_capture(7)
    m = cap.z.shape[1]
    for i in range(m):
        c = np.zeros(m)
        c[i] = 1.0
        d = core.precondition(cap, c)
        want = per_sample_grad_dense(cap, i)
        assert np.abs(d - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_precondition_dense_equals_explicit_u(rel_err):
    rng = _rng(8)
    for trial in range(5):
        cap = _dense_capture(80 + trial, out_dim=4, in_dim=6, m=7)
        c = rng.standard_normal(7)
        d = core.precondition(cap, c)
        u = linalg.khatri_rao(cap.z, cap.x)
        want = (u @ c).reshape(4, 6)
        assert np.abs(d - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_precondition_conv_equals_explicit_u():
    rng = _rng(9)
    for trial in range(5):
        cap = _conv_capture(90 + trial, m=4)
        c = rng.standard_normal(4)
        d = core.precondition(cap, c)
        u = persample.build_u_conv(cap)
        want = (u @ c).reshape(d.shape)
        assert np.abs(d - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_precondition_through_u_matches_weighted_route(padding, rel_err):
    cap = _conv_capture(95, o=3, c=2, k=3, h=5, w=5, m=6, padding=padding)
    c = _rng(96).standard_normal(6)
    u = persample.build_u_conv(cap)
    assert rel_err(core.precondition(cap, c, u=u), core.precondition(cap, c)) <= 1e-12
    with pytest.raises(ValueError, match="does not match batch"):
        core.precondition(cap, c[:5], u=u)


def test_epoch_one_conv_step_through_u_matches_weighted_input(monkeypatch, rel_err):
    """The coefficient-phase step moves conv weights along the U its Gram
    built; forcing the weighted-input route instead gives the same step."""
    rng = _rng(97)
    conv1 = nn.Conv2d.create(2, 3, 3, "same", 6, 6, rng)
    conv2 = nn.Conv2d.create(3, 4, 3, "valid", 6, 6, rng)
    net = nn.Network([conv1, nn.Relu(), conv2, nn.Relu(),
                      nn.Dense.create(conv2.flat_out, 3, rng)])
    x = rng.standard_normal((72, 8))
    y = rng.integers(0, 3, 8)
    rule = core.DampingRule(alpha=0.05)
    real = core.precondition
    routes = []

    def recording(cap, c, u=None):
        routes.append((cap.kind, u is not None))
        return real(cap, c, u=u)

    def weighted_input(cap, c, u=None):
        return real(cap, c)

    via_u, via_weighted = _clone_net(net), _clone_net(net)
    tables = core.CoefficientTable(), core.CoefficientTable()
    monkeypatch.setattr(core, "precondition", recording)
    core.epoch_one_step(via_u, x, y, tables[0], 0.1, rule)
    monkeypatch.setattr(core, "precondition", weighted_input)
    core.epoch_one_step(via_weighted, x, y, tables[1], 0.1, rule)

    assert routes == [("conv", True), ("conv", True), ("dense", False)]
    for i in net.preconditioned():
        moved = via_weighted.layers[i].weight - net.layers[i].weight
        assert np.abs(moved).max() > 0.0
        assert rel_err(via_u.layers[i].weight - net.layers[i].weight, moved) <= 1e-12
    for t in tables:
        t.finalize()
    for i in net.preconditioned():
        assert np.array_equal(tables[0].shared_for(i)[0], tables[1].shared_for(i)[0])


def test_epoch_one_step_on_blocked_conv_layer_matches_explicit_u(monkeypatch, rel_err):
    """A conv layer whose U takes more than one channel block keeps no U,
    so its epoch-one step goes the weighted-input route; it equals the
    explicit-U step with the same coefficients."""
    rng = _rng(98)
    conv1 = nn.Conv2d.create(2, 5, 3, "same", 6, 6, rng)
    conv2 = nn.Conv2d.create(5, 4, 3, "valid", 6, 6, rng)
    net = nn.Network([conv1, nn.Relu(), conv2, nn.Relu(),
                      nn.Dense.create(conv2.flat_out, 3, rng)])
    x = rng.standard_normal((72, 8))
    y = rng.integers(0, 3, 8)
    rule = core.DampingRule(alpha=0.05)
    real_gram, real_precondition = persample.gram, core.precondition
    routes = []

    def two_channel_blocks(cap):
        return real_gram(cap, u_budget=2 * cap.x.shape[0] * cap.x.shape[-1] * 8)

    def recording(cap, c, u=None):
        routes.append((cap.kind, u is not None))
        return real_precondition(cap, c, u=u)

    monkeypatch.setattr(persample, "gram", two_channel_blocks)
    monkeypatch.setattr(core, "precondition", recording)
    blocked, explicit = _clone_net(net), _clone_net(net)
    tables = core.CoefficientTable(), core.CoefficientTable()
    core.epoch_one_step(blocked, x, y, tables[0], 0.1, rule)
    core.epoch_one_step(explicit, x, y, tables[1], 0.1, rule, explicit_u=True)

    assert routes == [("conv", False), ("conv", False), ("dense", False)]
    for i in net.preconditioned():
        moved = explicit.layers[i].weight - net.layers[i].weight
        assert np.abs(moved).max() > 0.0
        assert rel_err(blocked.layers[i].weight - net.layers[i].weight, moved) <= 1e-10


def test_precondition_explicit_u_matches_weighted_route():
    rng = _rng(10)
    dense = _dense_capture(100, out_dim=3, in_dim=5, m=8)
    c = rng.standard_normal(8)
    fast = core.precondition(dense, c)
    # budget forcing several chunks but holding at least one column
    slow = core.precondition_explicit_u(dense, c, max_bytes=3 * 5 * 8 * 2)
    assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(fast).max())

    conv = _conv_capture(101, m=5)
    c2 = rng.standard_normal(5)
    fast2 = core.precondition(conv, c2)
    o, i = fast2.shape
    slow2 = core.precondition_explicit_u(conv, c2, max_bytes=o * i * 8 * 2)
    assert np.abs(fast2 - slow2).max() <= 1e-12 * max(1.0, np.abs(fast2).max())


def test_precondition_explicit_u_on_a_sample_major_capture_matches_weighted_route(rel_err):
    # forward keeps a sample-major batch as it is, so the first dense
    # capture is F-ordered and the explicit route must read it as such
    rng = _rng(11)
    net = nn.Network([nn.Dense.create(5, 3, rng)])
    x = np.asfortranarray(rng.standard_normal((5, 8)))
    fwd = nn.forward(net, x)
    nn.backward(net, fwd, rng.integers(0, 3, 8))
    cap = fwd.captures[0]
    assert cap.x.flags.f_contiguous and not cap.x.flags.c_contiguous
    c = rng.standard_normal(8)
    fast = core.precondition(cap, c)
    for chunk in (3, 8):
        slow = core.precondition_explicit_u(cap, c, max_bytes=3 * 5 * 8 * chunk)
        assert rel_err(slow, fast) <= 1e-12


def test_precondition_explicit_u_writes_every_chunk_into_one_buffer():
    # a 40x50 dense layer at M = 64, 8 samples per chunk: eight chunks, and
    # the peak stays near one chunk's U, not two
    cap = _dense_capture(12, out_dim=40, in_dim=50, m=64)
    c = _rng(13).standard_normal(64)
    chunk_bytes = 40 * 50 * 8 * 8
    tracemalloc.start()
    try:
        core.precondition_explicit_u(cap, c, max_bytes=chunk_bytes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * chunk_bytes


def _check_explicit_u_equals_routes(cap, c, chunk, u=None):
    """precondition_explicit_u, in chunks of `chunk` samples, against the
    weighted-input route and, given u, the U route; errors are relative
    to |Z| diag(|c|) |X|^T, the size of the terms each entry sums."""
    o, i = cap.z.shape[0], cap.x.shape[0]
    terms = (np.abs(cap.z) * np.abs(c)).reshape(o, -1) @ np.abs(cap.x).reshape(i, -1).T
    scale = max(float(terms.max()), 1e-300)
    slow = core.precondition_explicit_u(cap, c, max_bytes=o * i * 8 * chunk)
    routes = [core.precondition(cap, c)] + ([] if u is None else [core.precondition(cap, c, u=u)])
    for fast in routes:
        assert float(np.abs(fast - slow).max()) <= 1e-12 * scale


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 10_000))
def test_explicit_u_equals_weighted_input_on_dense_layers(out_dim, in_dim, m, chunk, seed):
    cap = _dense_capture(seed, out_dim=out_dim, in_dim=in_dim, m=m)
    _check_explicit_u_equals_routes(cap, _rng(seed + 1).standard_normal(m), chunk)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 3, 5]),
       st.sampled_from(["same", "valid"]), st.integers(5, 7), st.integers(5, 7),
       st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_explicit_u_equals_both_routes_on_conv_layers(o, c, k, padding, h, w, m, chunk,
                                                       seed):
    cap = _conv_capture(seed, o=o, c=c, k=k, h=h, w=w, m=m, padding=padding)
    _, u = persample.gram(cap)
    assert u is not None  # one block under the default budget: the Gram kept U
    _check_explicit_u_equals_routes(cap, _rng(seed + 1).standard_normal(m), chunk, u=u)


def test_precondition_validation():
    cap = _dense_capture(11)
    with pytest.raises(ValueError, match="does not match batch"):
        core.precondition(cap, np.zeros(7))
    relu = nn.LayerCapture(0, "relu", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not preconditioned"):
        core.precondition(relu, np.zeros(2))
    with pytest.raises(ValueError, match="not preconditioned"):
        core.precondition_explicit_u(relu, np.zeros(2))
    fresh = nn.LayerCapture(0, "dense", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="run backward first"):
        core.precondition(fresh, np.zeros(3))


# ------------------------------------------------------------- step logic

def _one_layer_net(seed, in_dim=2, out_dim=2):
    rng = _rng(seed)
    return nn.Network([nn.Dense(rng.standard_normal((out_dim, in_dim)))])


def test_single_sample_step_is_damped_newton():
    net = _one_layer_net(12)
    x = np.array([[1.0], [2.0]])
    y = np.array([0])
    w0 = net.layers[0].weight.copy()
    # hand gradient of softmax cross-entropy on one sample: z x^T with
    # z = softmax(w x) - one-hot(y)
    logits = w0 @ x[:, 0]
    z = np.exp(logits) / np.exp(logits).sum()
    z[y[0]] -= 1.0
    g = np.outer(z, x[:, 0])
    gtg = float(np.sum(g * g))
    rule = core.DampingRule(alpha=0.005)
    lam = rule.alpha * gtg  # Frobenius norm of the 1x1 Gram
    eta = 0.7
    core.preconditioned_step(net, x, y, eta, rule)
    want = w0 - eta * g / (lam + gtg)
    assert np.abs(net.layers[0].weight - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_huge_damping_step_is_sgd_step():
    net = _one_layer_net(13, in_dim=3, out_dim=2)
    rng = _rng(14)
    x = rng.standard_normal((3, 4))
    t = rng.integers(0, 2, 4)
    twin = _clone_net(net)
    lam = 1e12
    eta = lam * 0.05
    core.preconditioned_step(net, x, t, eta, core.DampingRule(fixed=lam))
    fwd = nn.forward(twin, x)
    nn.backward(twin, fwd, t)
    g = nn.weight_gradients(twin, fwd)["layer0.weight"]
    want = twin.layers[0].weight - 0.05 * g
    err = np.abs(net.layers[0].weight - want).max()
    assert err <= 1e-8 * max(1.0, np.abs(want).max())


def test_zero_gradient_batch_produces_zero_step():
    net = nn.Network([nn.Dense(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))])
    y = np.array([0, 1, 1])
    # logits 1000 * one-hot(y): in float64 the softmax is exactly the
    # one-hot, so every per-sample gradient is 0
    x = 1000.0 * np.eye(2)[:, y]
    w0 = net.layers[0].weight.copy()
    b0 = net.layers[0].bias.copy()
    loss = core.preconditioned_step(net, x, y, eta=0.5, rule=core.DampingRule()).loss
    assert loss == 0.0
    assert np.array_equal(net.layers[0].weight, w0)
    assert np.array_equal(net.layers[0].bias, b0)


def test_bias_takes_plain_gradient_path():
    rng = _rng(16)
    net = nn.Network([nn.Dense.create(3, 2, rng)])
    x = rng.standard_normal((3, 4))
    t = rng.integers(0, 2, 4)
    twin = _clone_net(net)
    eta = 0.1
    core.preconditioned_step(net, x, t, eta, core.DampingRule())
    fwd = nn.forward(twin, x)
    bwd = nn.backward(twin, fwd, t)
    want = twin.layers[0].bias - eta * bwd.bias_grads["layer0.bias"]
    assert np.abs(net.layers[0].bias - want).max() <= 1e-15


def test_solve_failure_names_the_layer(monkeypatch):
    net = _one_layer_net(17)
    x = np.array([[1.0], [2.0]])
    t = np.array([0])

    def corrupt_gram(cap):
        return np.array([[-10.0]])

    monkeypatch.setattr(persample, "gram_dense", corrupt_gram)
    with pytest.raises(RuntimeError, match="layer 0"):
        core.preconditioned_step(net, x, t, 0.1, core.DampingRule(fixed=1.0))


# ------------------------------------------------------- CoefficientTable

def test_table_accumulate_and_finalize_arithmetic():
    table = core.CoefficientTable()
    table.accumulate(0, np.array([0.2, 0.3]), lam=1.0)
    table.accumulate(0, np.array([0.4, 0.1]), lam=3.0)
    table.finalize()
    v, lam_bar = table.shared_for(0)
    assert np.abs(v - [0.3, 0.2]).max() <= 1e-16
    assert lam_bar == 2.0


def test_table_state_errors():
    table = core.CoefficientTable()
    with pytest.raises(core.TableStateError, match="nothing to finalize"):
        table.finalize()
    table.accumulate(0, np.array([1.0]), lam=1.0)
    with pytest.raises(core.TableStateError, match="not finalized"):
        table.shared_for(0)
    with pytest.raises(core.TableStateError, match="length changed"):
        table.accumulate(0, np.array([1.0, 2.0]), lam=1.0)
    table.finalize()
    with pytest.raises(core.TableStateError, match="already finalized"):
        table.accumulate(0, np.array([1.0]), lam=1.0)
    with pytest.raises(core.TableStateError, match="already finalized"):
        table.finalize()
    with pytest.raises(core.TableStateError, match="no shared coefficients"):
        table.shared_for(5)


def test_table_rejects_uneven_layer_counts():
    table = core.CoefficientTable()
    table.accumulate(0, np.array([1.0]), lam=1.0)
    table.accumulate(1, np.array([1.0]), lam=1.0)
    table.accumulate(0, np.array([2.0]), lam=1.0)
    with pytest.raises(core.TableStateError, match="uneven batch counts"):
        table.finalize()


def test_table_rejects_bad_damping():
    table = core.CoefficientTable()
    with pytest.raises(ValueError, match="positive"):
        table.accumulate(0, np.array([1.0]), lam=0.0)


def test_table_save_load_bitwise(tmp_path):
    rng = _rng(18)
    table = core.CoefficientTable()
    table.accumulate(0, rng.standard_normal(4), lam=0.123456789012345)
    table.accumulate(2, rng.standard_normal(3), lam=7.0 / 3.0)
    table.finalize()
    path = tmp_path / "coeffs.csv"
    table.save(path)
    loaded = core.CoefficientTable.load(path)
    assert loaded.finalized
    assert sorted(loaded.shared) == [0, 2]
    for layer in (0, 2):
        v, lam = table.shared_for(layer)
        lv, llam = loaded.shared_for(layer)
        assert np.array_equal(v, lv)
        assert lam == llam


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(
    st.integers(0, 50),
    st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=8),
              st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    min_size=1, max_size=4))
def test_table_save_load_bitwise_for_any_finite_values(tmp_path_factory, layers):
    table = core.CoefficientTable()
    for layer, (v, lam) in layers.items():
        table.accumulate(layer, np.array(v), lam=lam)
    table.finalize()
    path = tmp_path_factory.mktemp("table") / "coeffs.csv"
    table.save(path)
    loaded = core.CoefficientTable.load(path)
    assert sorted(loaded.shared) == sorted(layers)
    for layer, (v, lam) in layers.items():
        lv, llam = loaded.shared_for(layer)
        assert lv.tobytes() == np.array(v).tobytes()
        assert np.float64(llam).tobytes() == np.float64(lam).tobytes()


def test_table_save_requires_finalized(tmp_path):
    table = core.CoefficientTable()
    table.accumulate(0, np.array([1.0]), lam=1.0)
    with pytest.raises(core.TableStateError, match="finalize"):
        table.save(tmp_path / "x.csv")


def test_table_load_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not-a-table\n")
    with pytest.raises(ValueError, match="not a coefficient table"):
        core.CoefficientTable.load(p)
    p.write_text("fngd-coefficients,1\n0,2\n")
    with pytest.raises(ValueError, match="malformed"):
        core.CoefficientTable.load(p)
    p.write_text("fngd-coefficients,1\n0,3,1.0,0.5,0.5\n")
    with pytest.raises(ValueError, match="promises 3"):
        core.CoefficientTable.load(p)
    p.write_text("fngd-coefficients,1\n0,2,-1.0,0.5,0.5\n")
    with pytest.raises(ValueError, match="non-positive damping"):
        core.CoefficientTable.load(p)
    p.write_text("fngd-coefficients,1\n")
    with pytest.raises(ValueError, match="no layers"):
        core.CoefficientTable.load(p)


@pytest.mark.parametrize("row, message", [
    ("0,2,nan,0.5,0.5", "layer 0 has non-finite damping nan"),
    ("0,2,inf,0.5,0.5", "layer 0 has non-finite damping inf"),
    ("0,2,1.0,0.5,inf", "layer 0 has non-finite coefficients"),
    ("0,2,1.0,nan,0.5", "layer 0 has non-finite coefficients"),
    ("0,2,1.0,0.5,0.5\n0,2,2.0,0.5,0.5", "layer 0 has more than one row"),
    ("x,2,1.0,0.5,0.5", "malformed coefficient row 'x,2,1.0,0.5,0.5'"),
], ids=["nan-damping", "inf-damping", "inf-coefficient", "nan-coefficient",
        "repeated-layer", "bad-layer-index"])
def test_table_load_rejects_outside_values(row, message, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(f"fngd-coefficients,1\n{row}\n")
    with pytest.raises(ValueError) as err:
        core.CoefficientTable.load(p)
    assert str(err.value) == f"{p}: {message}"


# ---------------------------------------------------- epoch one vs shared

def _toy_problem(seed, m=4):
    rng = _rng(seed)
    net = nn.Network([nn.Dense.create(3, 4, rng), nn.Relu(), nn.Dense.create(4, 2, rng)])
    x = rng.standard_normal((3, m))
    t = rng.integers(0, 2, m)
    return net, x, t


def test_epoch_one_step_rejects_finalized_table():
    net, x, t = _toy_problem(19)
    table = core.CoefficientTable()
    table.accumulate(0, np.ones(4), lam=1.0)
    table.finalize()
    with pytest.raises(core.TableStateError, match="already finalized"):
        core.epoch_one_step(net, x, t, table, 0.1, core.DampingRule())


def test_shared_step_rejects_unfinalized_table():
    net, x, t = _toy_problem(20)
    with pytest.raises(core.TableStateError, match="not finalized"):
        core.shared_step(net, x, t, core.CoefficientTable(), 0.1)


def test_shared_step_rejects_batch_size_mismatch():
    net, x, t = _toy_problem(21)
    table = core.CoefficientTable()
    core.epoch_one_step(net, x, t, table, 0.1, core.DampingRule())
    table.finalize()
    with pytest.raises(core.TableStateError, match="batches of 4"):
        core.shared_step(net, x[:, :3], t[:3], table, 0.1)


def _fresh_and_shared_steps(net, x, t, rule):
    """The same batch stepped with fresh coefficients and with a one-batch
    table, which holds exactly that batch's (v, lam); returns both nets."""
    fresh, shared = _clone_net(net), _clone_net(net)
    table = core.CoefficientTable()
    core.epoch_one_step(fresh, x, t, table, 0.05, rule)
    table.finalize()
    core.shared_step(shared, x, t, table, 0.05)
    return fresh, shared


def test_shared_step_matches_fresh_step_on_same_batch():
    # dense layers take the same weighted-input GEMM in both phases
    net, x, t = _toy_problem(22)
    fresh, shared = _fresh_and_shared_steps(net, x, t, core.DampingRule())
    for name, p in fresh.parameters().items():
        assert not np.array_equal(p, net.parameters()[name]), name
        assert np.array_equal(p, shared.parameters()[name]), name


def test_shared_step_matches_fresh_conv_step_on_same_batch(rel_err):
    # a fresh conv step goes along the U its Gram built, a shared one
    # through the weighted-input route: equal up to roundoff
    rng = _rng(26)
    conv1 = nn.Conv2d.create(2, 3, 3, "same", 5, 5, rng)
    conv2 = nn.Conv2d.create(3, 2, 3, "valid", 5, 5, rng)
    net = nn.Network([conv1, nn.Relu(), conv2, nn.Relu(),
                      nn.Dense.create(conv2.flat_out, 3, rng)])
    x = rng.standard_normal((50, 6))
    t = rng.integers(0, 3, 6)
    fresh, shared = _fresh_and_shared_steps(net, x, t, core.DampingRule(alpha=0.05))
    for name, w in net.parameters().items():
        moved = fresh.parameters()[name] - w
        assert np.abs(moved).max() > 0.0, name
        assert rel_err(shared.parameters()[name] - w, moved) <= 1e-12, name


def test_shared_step_uniform_coefficients_is_sgd():
    net, x, t = _toy_problem(23)
    twin = _clone_net(net)
    m = x.shape[1]
    table = core.CoefficientTable()
    for i in net.preconditioned():
        table.accumulate(i, np.full(m, 1.0 / m), lam=1.0)
    table.finalize()
    eta = 0.1
    core.shared_step(net, x, t, table, eta)
    fwd = nn.forward(twin, x)
    bwd = nn.backward(twin, fwd, t)
    grads = nn.weight_gradients(twin, fwd)
    grads.update(bwd.bias_grads)
    for name, p in twin.parameters().items():
        p -= eta * grads[name]
        assert np.abs(net.parameters()[name] - p).max() <= 1e-14, name


def test_shared_coefficients_attach_to_slots_not_samples():
    net, x, t = _toy_problem(24)
    m = x.shape[1]
    table = core.CoefficientTable()
    v = np.linspace(0.1, 0.4, m)
    for i in net.preconditioned():
        table.accumulate(i, v, lam=1.0)
    table.finalize()

    a = _clone_net(net)
    core.shared_step(a, x, t, table, 0.1)
    perm = np.array([2, 0, 3, 1])
    b = _clone_net(net)
    core.shared_step(b, x[:, perm], t[perm], table, 0.1)
    moved = max(np.abs(a.parameters()[n] - b.parameters()[n]).max()
                for n in a.parameters())
    assert moved > 1e-6  # non-uniform coefficients see the slot order

    uniform = core.CoefficientTable()
    for i in net.preconditioned():
        uniform.accumulate(i, np.full(m, 1.0 / m), lam=1.0)
    uniform.finalize()
    c = _clone_net(net)
    d = _clone_net(net)
    core.shared_step(c, x, t, uniform, 0.1)
    core.shared_step(d, x[:, perm], t[perm], uniform, 0.1)
    for n, p in c.parameters().items():
        assert np.abs(p - d.parameters()[n]).max() <= 1e-12


def test_explicit_u_step_matches_weighted_step():
    net, x, t = _toy_problem(25)
    twin = _clone_net(net)
    table_a = core.CoefficientTable()
    table_b = core.CoefficientTable()
    core.epoch_one_step(net, x, t, table_a, 0.1, core.DampingRule())
    core.epoch_one_step(twin, x, t, table_b, 0.1, core.DampingRule(), explicit_u=True)
    for name, p in net.parameters().items():
        q = twin.parameters()[name]
        assert np.abs(p - q).max() <= 1e-12 * max(1.0, np.abs(p).max()), name

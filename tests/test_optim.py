"""Baseline optimizers, the recompute NGD path, and the LR schedule."""

import copy

import numpy as np

from fngd import core, linalg, nn, optim


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ------------------------------------------------------------- first order

def test_momentum_buffer_recurrence():
    assert optim.MOMENTUM == 0.9  # the hand values below
    buffers = {}
    params = {"w": np.array([0.0])}
    g = {"w": np.array([1.0])}
    optim.sgd_momentum_step(buffers, params, g, lr=0.1)
    assert buffers["w"][0] == 1.0
    assert params["w"][0] == -0.1
    optim.sgd_momentum_step(buffers, params, g, lr=0.1)
    assert abs(buffers["w"][0] - 1.9) <= 1e-15
    assert abs(params["w"][0] - (-0.1 - 0.19)) <= 1e-15


def test_momentum_steps_match_the_recurrence_bitwise():
    # Three steps, the last across the first lr milestone; the buffer is
    # updated in place and the caller's gradients are left alone.
    rates = optim.lr_schedule(0.2, 4)[:3]
    assert rates[1] != rates[2]
    rng = _rng(3)
    shapes = {"w": (3, 4), "b": (3,)}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    want_w = {name: p.copy() for name, p in params.items()}
    want_v = {}
    buffers = {}
    for step, lr in enumerate(rates):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        kept = {name: g.copy() for name, g in grads.items()}
        held = dict(buffers)
        optim.sgd_momentum_step(buffers, params, grads, lr)
        for name, g in kept.items():
            want_v[name] = g if step == 0 else 0.9 * want_v[name] + g
            want_w[name] = want_w[name] - lr * want_v[name]
            assert np.array_equal(buffers[name], want_v[name]), (step, name)
            assert np.array_equal(params[name], want_w[name]), (step, name)
            assert np.array_equal(grads[name], g), (step, name)
            assert buffers[name] is not grads[name]
            if step:
                assert buffers[name] is held[name], (step, name)


# ---------------------------------------------------------------- ngd_smw

def _toy(seed, m=4):
    rng = _rng(seed)
    net = nn.Network([nn.Dense.create(3, 4, rng), nn.Relu(), nn.Dense.create(4, 2, rng)])
    batches = [(rng.standard_normal((3, m)), rng.integers(0, 2, m)) for _ in range(5)]
    return net, batches


def test_ngd_first_epoch_is_bitwise_identical_to_coefficient_phase():
    net_a, batches = _toy(1)
    net_b = copy.deepcopy(net_a)
    rule = core.DampingRule()
    table = core.CoefficientTable()
    for x, t in batches:
        core.preconditioned_step(net_a, x, t, 0.1, rule)
        core.epoch_one_step(net_b, x, t, table, 0.1, rule)
    for name, p in net_a.parameters().items():
        assert np.array_equal(p, net_b.parameters()[name]), name


def test_ngd_solves_every_step_and_shared_step_never_solves(monkeypatch):
    calls = {"n": 0}
    real = linalg.solve_spd

    def counting(a, b):
        calls["n"] += 1
        return real(a, b)

    monkeypatch.setattr(linalg, "solve_spd", counting)
    net, batches = _toy(2)
    rule = core.DampingRule()
    layers = len(net.preconditioned())

    table = core.CoefficientTable()
    for x, t in batches:
        core.epoch_one_step(net, x, t, table, 0.1, rule)
    assert calls["n"] == layers * len(batches)
    table.finalize()

    calls["n"] = 0
    for x, t in batches:
        core.shared_step(net, x, t, table, 0.1)
    assert calls["n"] == 0

    calls["n"] = 0
    for x, t in batches:
        core.preconditioned_step(net, x, t, 0.1, rule)
    assert calls["n"] == layers * len(batches)


# --------------------------------------------------------------- schedule

def test_schedule_default_milestones_hand_values():
    rates = optim.lr_schedule(0.2, 100)
    assert [e for e in range(1, 100) if rates[e] != rates[e - 1]] == [50, 75]
    assert rates[0] == 0.2
    assert rates[49] == 0.2
    assert abs(rates[50] - 0.02) <= 1e-16
    assert abs(rates[74] - 0.02) <= 1e-16
    assert abs(rates[75] - 0.002) <= 1e-17
    assert abs(rates[99] - 0.002) <= 1e-17


def test_schedule_short_run_starts_at_base_lr():
    # int(f * epochs) is 0 for every fraction of a one-epoch run; a
    # milestone there would decay the lr before the first step
    assert optim.lr_schedule(0.1, 1) == [0.1]
    # both milestones at epoch 1 for two epochs, at epochs 1 and 2 for three
    assert optim.lr_schedule(0.1, 2) == [0.1, 0.1 * 0.1 ** 2]
    assert optim.lr_schedule(0.1, 3) == [0.1, 0.1 * 0.1, 0.1 * 0.1 ** 2]

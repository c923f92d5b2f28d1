"""Acceptance gate: ten criteria, one pass/fail line each.

Each test measures its criterion at the stated tolerance, prints a
single PASS/FAIL line with the measured numbers (run with -s to see
them on passing runs), and asserts.  Criteria 7 and 8 train real
models and take a few seconds each; everything runs single-process on
synthetic data.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np

from fngd import core, data, linalg, nn, persample, theory, train
from fngd.config import DatasetSpec, LayerSpec, ModelSpec, OptimSpec, TrainConfig
from fngd.core import DampingRule


def _verdict(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------

def test_criterion_01_smw_equivalence():
    t0 = time.perf_counter()
    rng = _rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(2, 33))
        lam = float(rng.uniform(1e-3, 1.0))
        u = rng.standard_normal((n, m))
        gram = u.T @ u
        c = core.coefficients(gram, lam)
        via_c = (u @ c) / lam
        g_bar = u.mean(axis=1)
        direct = np.linalg.solve(lam * np.eye(n) + (u @ u.T) / m, g_bar)
        worst = max(worst, np.abs(via_c - direct).max()
                    / max(np.abs(direct).max(), 1e-30))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _verdict(1, "smw coefficient route", ok, f"worst rel err {worst:.3e}, {dt:.1f}s")


def test_criterion_02_khatri_rao_gram():
    t0 = time.perf_counter()
    rng = _rng(102)
    worst = 0.0
    for _ in range(100):
        o = int(rng.integers(1, 13))
        i = int(rng.integers(1, 13))
        m = int(rng.integers(1, 17))
        z = rng.standard_normal((o, m))
        x = rng.standard_normal((i, m))
        cap = nn.LayerCapture(0, "dense", x, z)
        got = persample.gram_dense(cap)
        u = linalg.khatri_rao(z, x)
        want = u.T @ u
        worst = max(worst, np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    _verdict(2, "khatri-rao gram identity", ok, f"worst rel err {worst:.3e}, {dt:.1f}s")


def _toy_net(rng):
    conv = nn.Conv2d.create(1, 2, 3, "same", 4, 4, rng)
    dense1 = nn.Dense.create(conv.flat_out, 6, rng)
    dense2 = nn.Dense.create(6, 3, rng)
    return nn.Network([conv, nn.Relu(), dense1, dense2])


def test_criterion_03_per_sample_gradients_match_fd(per_sample_grad_dense):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = _rng(300 + seed)
        net = _toy_net(rng)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 3, 4)
        fwd = nn.forward(net, x)
        nn.backward(net, fwd, y)
        for i in net.preconditioned():
            cap = fwd.captures[i]
            if cap.kind == "dense":
                m = cap.z.shape[1]
                u = np.stack([per_sample_grad_dense(cap, j).ravel()
                              for j in range(m)], axis=1)
            else:
                u = persample.build_u_conv(cap)
                m = u.shape[1]
            w = net.layers[i].weight
            fd = np.zeros((w.size, m))
            flat = w.reshape(-1)
            for e in range(w.size):
                h = 1e-6 * (1.0 + abs(flat[e]))
                orig = flat[e]
                flat[e] = orig + h
                up, _ = nn._per_sample_losses_and_grads(nn.forward(net, x).outputs, y)
                flat[e] = orig - h
                dn, _ = nn._per_sample_losses_and_grads(nn.forward(net, x).outputs, y)
                flat[e] = orig
                fd[e] = (up - dn) / (2.0 * h)
            worst = max(worst, np.abs(u - fd).max() / max(np.abs(fd).max(), 1e-30))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 60.0
    _verdict(3, "per-sample grads vs fd", ok, f"worst rel err {worst:.3e}, {dt:.1f}s")


def test_criterion_04_weighted_input_equivalence():
    t0 = time.perf_counter()
    rng = _rng(104)
    worst = 0.0
    for case in range(50):
        m = int(rng.integers(2, 13))
        c = rng.standard_normal(m)
        if case % 2 == 0:
            o, i = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            z = rng.standard_normal((o, m))
            x = rng.standard_normal((i, m))
            cap = nn.LayerCapture(0, "dense", x, z)
            u = linalg.khatri_rao(z, x)
        else:
            o, ik2, s = (int(rng.integers(1, 5)), int(rng.integers(1, 7)),
                         int(rng.integers(1, 6)))
            z = rng.standard_normal((o, s, m))
            x = rng.standard_normal((ik2, s, m))
            cap = nn.LayerCapture(0, "conv", x, z)
            u = persample.build_u_conv(cap)
        got = core.precondition(cap, c)
        want = (u @ c).reshape(got.shape)
        worst = max(worst, np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10.0
    _verdict(4, "weighted-input == U c", ok, f"worst rel err {worst:.3e}, {dt:.1f}s")


def test_criterion_05_lemma_eigenvalue_maps():
    t0 = time.perf_counter()
    rng = _rng(105)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        j = rng.standard_normal((n + 2, n))
        g = j.T @ j
        lam_m = float(rng.uniform(0.05, 3.0))
        worst = max(worst, theory.lemma1_check(g, lam_m),
                    theory.lemma2_check(g, lam_m))
    g = np.diag([2.0, 5.0])
    eig1 = np.sort(np.linalg.eigvals(np.linalg.solve(g + 2.0 * np.eye(2), g)).real)
    inner = np.linalg.solve(2.0 * np.eye(2) + g, g)
    eig2 = np.sort(np.linalg.eigvals(g @ (np.eye(2) - inner)).real)
    exact = (np.abs(eig1 - [0.5, 5.0 / 7.0]).max() <= 1e-12
             and np.abs(eig2 - [1.0, 10.0 / 7.0]).max() <= 1e-12)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and exact and dt < 10.0
    _verdict(5, "lemma 1-2 eigenvalue maps", ok,
             f"worst discrepancy {worst:.3e}, diag case exact={exact}, {dt:.1f}s")


def test_criterion_06_theorem1_contraction():
    t0 = time.perf_counter()
    rng = _rng(106)
    worst_ratio_excess = -np.inf
    worst_cum_excess = -np.inf
    worst_share_gap = 0.0
    for _ in range(10):
        layers = int(rng.integers(4, 7))
        m = int(rng.integers(2, 5))
        sizes = [int(rng.integers(m, 9)) for _ in range(layers)]
        prob = theory.make_linear_problem(sizes, m=m, seed=int(rng.integers(1 << 30)))
        lmin, lmax = prob.eig_range()
        eta = 0.5 * theory.eta_tilde(layers, lmin, lmax)
        fresh = theory.theorem1_harness(prob, eta, steps=200, share=False)
        cached = theory.theorem1_harness(prob, eta, steps=200, share=True)
        worst_ratio_excess = max(worst_ratio_excess,
                                 float(fresh.ratios.max() - (1.0 - eta)))
        k = np.arange(201)
        cum = fresh.residual_sq - (1.0 - eta) ** k * fresh.residual_sq[0]
        worst_cum_excess = max(worst_cum_excess, float(cum.max()))
        worst_share_gap = max(
            worst_share_gap,
            float(np.abs(fresh.w_final - cached.w_final).max()),
            float(np.abs(fresh.residual_sq - cached.residual_sq).max()),
        )
    dt = time.perf_counter() - t0
    ok = (worst_ratio_excess <= 1e-10 and worst_cum_excess <= 1e-9
          and worst_share_gap <= 1e-12 and dt < 30.0)
    _verdict(6, "theorem-1 contraction", ok,
             f"ratio excess {worst_ratio_excess:.2e}, cumulative excess "
             f"{worst_cum_excess:.2e}, share gap {worst_share_gap:.2e}, {dt:.1f}s")


def _fidelity_cfg(kind, lr, seed, tmp_path, alpha=0.5):
    # alpha well above the large-scale default: at M=64 the Gram is tiny
    # and fresh lam = alpha ||G||_F stops shrinking the step near the
    # optimum, so recomputed ngd needs the stronger damping to stay put
    return TrainConfig(
        dataset=DatasetSpec(kind="synthetic", n=2000, features=20, classes=2,
                            test_n=400),
        model=ModelSpec((20,), (LayerSpec("dense", (20, 32)), LayerSpec("relu"),
                                LayerSpec("dense", (32, 2)))),
        optim=OptimSpec(kind=kind, lr=lr, alpha=alpha),
        epochs=15,
        batch_size=64,
        seed=seed,
        metrics_path=tmp_path / f"{kind}_{seed}.csv",
    )


def test_criterion_07_sharing_fidelity(tmp_path):
    t0 = time.perf_counter()
    acc = {}
    for kind in ("fngd", "ngd_smw", "sgd_momentum"):
        finals = [train.run_train(_fidelity_cfg(kind, 0.1, seed, tmp_path))
                  .final["test_accuracy"] for seed in (0, 1, 2)]
        acc[kind] = float(np.mean(finals))
    gap_ngd = abs(acc["fngd"] - acc["ngd_smw"])
    gap_sgdm = abs(acc["fngd"] - acc["sgd_momentum"])
    dt = time.perf_counter() - t0
    ok = gap_ngd <= 0.010 and gap_sgdm <= 0.015 and dt < 180.0
    _verdict(7, "sharing fidelity", ok,
             f"fngd {acc['fngd']:.4f} vs ngd {acc['ngd_smw']:.4f} "
             f"(gap {gap_ngd * 100:.2f}pp) vs sgd-m {acc['sgd_momentum']:.4f} "
             f"(gap {gap_sgdm * 100:.2f}pp), {dt:.0f}s")


def test_criterion_08_timing_structure(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    # each variant's epoch times, so that a failing verdict shows whether one
    # burst of host load or a steady shift moved a median
    epoch_ms = {}
    real_epoch = train._Runner.epoch

    def recording(runner, epoch, lr):
        result = real_epoch(runner, epoch, lr)
        epoch_ms.setdefault(id(runner), []).append(f"{result[2]:.0f}")
        return result

    monkeypatch.setattr(train._Runner, "epoch", recording)
    cfg = TrainConfig(
        dataset=DatasetSpec(kind="synthetic", n=2560, features=784, classes=10,
                            test_n=256),
        model=ModelSpec((784,), (LayerSpec("dense", (784, 256)), LayerSpec("relu"),
                                 LayerSpec("dense", (256, 10)))),
        optim=OptimSpec(kind="fngd", lr=0.05),
        epochs=6,
        batch_size=128,
        seed=0,
        bench_path=tmp_path / "bench.csv",
    )
    out = train.run_bench(cfg)
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    med = {(r["variant"], r["phase"]): float(r["median_epoch_ms"]) for r in rows}
    shared_vs_sgd = med[("fngd", "shared")] / med[("sgd", "all")]
    ngd_vs_shared = med[("ngd_smw", "all")] / med[("fngd", "shared")]
    explicit_vs_weighted = (med[("fngd_explicit", "shared")]
                            / med[("fngd", "shared")])
    dt = time.perf_counter() - t0
    ok = (shared_vs_sgd <= 1.3 and ngd_vs_shared >= 1.5
          and explicit_vs_weighted > 1.0 and dt < 300.0)
    _verdict(8, "timing structure", ok,
             f"fngd-shared/sgd {shared_vs_sgd:.2f}x (need <=1.3), "
             f"ngd/fngd-shared {ngd_vs_shared:.2f}x (need >=1.5), "
             f"explicit/weighted {explicit_vs_weighted:.2f}x (need >1), {dt:.0f}s; "
             "epoch ms: " + ", ".join(
                 f"{variant} {' '.join(times)}"
                 for (variant, _, _), times in zip(train.BENCH_VARIANTS, epoch_ms.values())))


def test_criterion_09_degeneracy_suite(per_sample_grad_dense):
    t0 = time.perf_counter()
    rule = DampingRule(alpha=1e12)
    eta = 3e10

    def fresh_net():
        rng = _rng(901)
        return nn.Network(
            [nn.Dense.create(10, 6, rng, bias=False), nn.Relu(),
             nn.Dense.create(6, 3, rng, bias=False)])

    net_a, net_b = fresh_net(), fresh_net()
    rng = _rng(902)
    traj_gap = 0.0
    for _ in range(10):
        x = rng.standard_normal((10, 16))
        y = rng.integers(0, 3, 16)
        core.preconditioned_step(net_a, x, y, eta, rule)
        fwd = nn.forward(net_b, x)
        nn.backward(net_b, fwd, y)
        grads = nn.weight_gradients(net_b, fwd)
        params = net_b.parameters()
        for i in net_b.preconditioned():
            lam = core.damping_lambda(persample.gram_dense(fwd.captures[i]), rule)
            params[f"layer{i}.weight"] -= (eta / lam) * grads[f"layer{i}.weight"]
        for la, lb in zip(net_a.layers, net_b.layers):
            if la.kind != "relu":
                scale = max(np.abs(lb.weight).max(), 1e-30)
                traj_gap = max(traj_gap, np.abs(la.weight - lb.weight).max() / scale)

    # one-hot coefficient selects exactly one per-sample gradient
    fwd = nn.forward(net_b, rng.standard_normal((10, 8)))
    nn.backward(net_b, fwd, rng.integers(0, 3, 8))
    cap = fwd.captures[0]
    selector_gap = 0.0
    for j in (0, 5, 7):
        e = np.zeros(8)
        e[j] = 1.0
        got = core.precondition(cap, e)
        want = per_sample_grad_dense(cap, j)
        selector_gap = max(selector_gap,
                           np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))

    # a batch with zero loss gradient must produce a zero step
    # (logits 1000 * one-hot(y), whose softmax is the one-hot exactly)
    ident = nn.Network([nn.Dense(np.eye(4), None)])
    y = rng.integers(0, 4, 6)
    x = 1000.0 * np.eye(4)[:, y]
    before = ident.layers[0].weight.copy()
    loss = core.preconditioned_step(ident, x, y, 0.7, DampingRule()).loss
    zero_step = loss == 0.0 and np.array_equal(ident.layers[0].weight, before)

    dt = time.perf_counter() - t0
    ok = traj_gap <= 1e-6 and selector_gap <= 1e-12 and zero_step and dt < 10.0
    _verdict(9, "degeneracy suite", ok,
             f"lam->inf vs sgd gap {traj_gap:.2e}, selector gap "
             f"{selector_gap:.2e}, zero-grad step exact={zero_step}, {dt:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    base = _fidelity_cfg("fngd", 0.5, 0, tmp_path)
    base = replace(base, epochs=3, dataset=replace(base.dataset, n=400, test_n=80))

    def normalized(path):
        lines = path.read_text().splitlines()
        rows = [lines[0], lines[1]]
        for raw in lines[2:]:
            parts = raw.split(",")
            parts[5] = ""
            rows.append(",".join(parts))
        return rows

    train.run_train(replace(base, metrics_path=tmp_path / "a.csv"))
    train.run_train(replace(base, metrics_path=tmp_path / "b.csv"))
    a = normalized(tmp_path / "a.csv")
    b = normalized(tmp_path / "b.csv")
    dt = time.perf_counter() - t0
    ok = a == b and len(a) == 2 + 2 * base.epochs and dt < 120.0
    _verdict(10, "reproducibility", ok,
             f"identical modulo wall_ms={a == b}, rows {len(a)}, {dt:.1f}s")

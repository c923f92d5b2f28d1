"""Convergence analysis harness and the verification checks.

The independent oracles here: a direct dense-inverse recursion for the
harness trajectory, hand-solved scalar and diagonal cases, and the
closed-form step-size value for four equal layers.
"""

import math

import numpy as np
import pytest

from fngd import core, linalg, theory


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------- LinearProblem

def test_problem_validation():
    j = np.ones((3, 2))
    with pytest.raises(ValueError, match="at least one layer"):
        theory.LinearProblem((), np.zeros(2), np.zeros(2), np.zeros(0))
    with pytest.raises(ValueError, match="does not match batch"):
        theory.LinearProblem((j, np.ones((3, 5))), np.zeros(2), np.zeros(2), np.zeros(6))
    with pytest.raises(ValueError, match="length-M"):
        theory.LinearProblem((j,), np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="parameters"):
        theory.LinearProblem((j,), np.zeros(2), np.zeros(2), np.zeros(5))


def test_problem_eig_range_is_the_block_diagonal_extremes():
    # each block's J^T J has eigenvalues in [0.64, 2.56] before scaling, so
    # the smallest comes from the first block and the largest from the last
    base = theory.make_linear_problem([4, 5, 6], m=3, seed=0)
    blocks = tuple(s * j for s, j in zip((0.5, 1.0, 2.0), base.blocks))
    prob = theory.LinearProblem(blocks, base.y, base.v0, base.w0)
    g = np.zeros((9, 9))
    for i, j in enumerate(blocks):
        g[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = j.T @ j
    eigs = np.linalg.eigvalsh(g)
    lmin, lmax = prob.eig_range()
    assert abs(lmin - eigs[0]) <= 1e-12 * eigs[-1]
    assert abs(lmax - eigs[-1]) <= 1e-12 * eigs[-1]


def test_problem_eig_range_within_singular_value_bounds():
    prob = theory.make_linear_problem([6, 6, 8], m=4, seed=1, smin=0.8, smax=1.6)
    lmin, lmax = prob.eig_range()
    assert 0.8 ** 2 - 1e-9 <= lmin <= lmax <= 1.6 ** 2 + 1e-9


def test_make_problem_validation():
    with pytest.raises(ValueError, match="at least m=4 rows"):
        theory.make_linear_problem([3], m=4, seed=0)
    with pytest.raises(ValueError, match="singular-value range"):
        theory.make_linear_problem([4], m=2, seed=0, smin=2.0, smax=1.0)
    with pytest.raises(ValueError, match="at least one layer"):
        theory.make_linear_problem([], m=2, seed=0)


# -------------------------------------------------------- theorem1_harness

def _scalar_problem():
    """Four layers, each a 1x1 identity Jacobian, single sample."""
    blocks = tuple(np.array([[1.0]]) for _ in range(4))
    y = np.array([0.0])
    v0 = np.array([1.0])
    w0 = np.zeros(4)
    return theory.LinearProblem(blocks, y, v0, w0)


def test_scalar_harness_matches_analytic_recursion():
    # gram = I_4, lam = 1; each layer contributes dv = -eta/2 r, so
    # r_{k+1} = (1 - 2 eta) r_k and the squared ratio is (1 - 2 eta)^2
    prob = _scalar_problem()
    eta = 0.005
    res = theory.theorem1_harness(prob, eta, steps=50)
    assert res.lam == 1.0
    want = (1.0 - 2.0 * eta) ** 2
    assert np.abs(res.ratios - want).max() <= 1e-12
    assert res.ratios.max() <= (1.0 - eta)
    k = np.arange(51)
    assert np.abs(res.residual_sq - want ** k).max() <= 1e-10


def test_harness_already_converged_stays_at_zero():
    prob = _scalar_problem()
    prob = theory.LinearProblem(prob.blocks, prob.v0.copy(), prob.v0, prob.w0)
    res = theory.theorem1_harness(prob, 0.005, steps=10)
    assert np.abs(res.residual_sq).max() == 0.0
    assert np.abs(res.ratios).max() == 0.0
    assert np.array_equal(res.w_final, prob.w0)


def test_harness_refuses_step_above_bound():
    prob = _scalar_problem()
    bound = theory.eta_tilde(4, 1.0, 1.0)
    with pytest.raises(ValueError) as err:
        theory.theorem1_harness(prob, bound * 1.01, steps=5)
    assert f"{bound:.6g}" in str(err.value)
    with pytest.raises(ValueError, match="positive"):
        theory.theorem1_harness(prob, -0.001, steps=5)
    with pytest.raises(ValueError, match="at least one step"):
        theory.theorem1_harness(prob, 0.001, steps=0)


def test_harness_contracts_on_random_problem():
    prob = theory.make_linear_problem([5, 5, 5, 5], m=3, seed=2)
    lmin, lmax = prob.eig_range()
    eta = 0.5 * theory.eta_tilde(4, lmin, lmax)
    res = theory.theorem1_harness(prob, eta, steps=200)
    assert res.ratios.max() <= (1.0 - eta) + 1e-10
    assert np.all(np.diff(res.residual_sq) <= 1e-15)


def _direct_recursion(prob, eta, steps):
    """Dense-inverse oracle: per-layer (F + lam I)^{-1} J r update."""
    lmin, _ = prob.eig_range()
    m = prob.batch
    lam = lmin / m
    w = prob.w0.copy()
    v = prob.v0.copy()
    offset = np.cumsum([0] + [j.shape[0] for j in prob.blocks])
    res_sq = [float((v - prob.y) @ (v - prob.y))]
    for _ in range(steps):
        r = v - prob.y
        dv = np.zeros(m)
        for l, j in enumerate(prob.blocks):
            n = j.shape[0]
            f = (j @ j.T) / m
            dw = -(eta / m) * np.linalg.solve(f + lam * np.eye(n), j @ r)
            w[offset[l] : offset[l + 1]] += dw
            dv += j.T @ dw
        v = v + dv
        res_sq.append(float((v - prob.y) @ (v - prob.y)))
    return w, v, np.array(res_sq)


@pytest.mark.parametrize("share", [False, True])
def test_harness_matches_direct_inverse_recursion(share):
    prob = theory.make_linear_problem([4, 6, 5, 4], m=3, seed=3)
    lmin, lmax = prob.eig_range()
    eta = 0.5 * theory.eta_tilde(4, lmin, lmax)
    res = theory.theorem1_harness(prob, eta, steps=60, share=share)
    w, v, res_sq = _direct_recursion(prob, eta, 60)
    assert np.abs(res.w_final - w).max() <= 1e-10
    assert np.abs(res.v_final - v).max() <= 1e-10
    assert np.abs(res.residual_sq - res_sq).max() <= 1e-10


def test_sharing_is_exact_on_constant_jacobians():
    prob = theory.make_linear_problem([5, 4, 6, 5, 4], m=2, seed=4)
    lmin, lmax = prob.eig_range()
    eta = 0.5 * theory.eta_tilde(5, lmin, lmax)
    fresh = theory.theorem1_harness(prob, eta, steps=80, share=False)
    cached = theory.theorem1_harness(prob, eta, steps=80, share=True)
    assert np.abs(fresh.w_final - cached.w_final).max() <= 1e-12
    assert np.abs(fresh.residual_sq - cached.residual_sq).max() <= 1e-12


@pytest.mark.parametrize("steps", [1, 7])
def test_sharing_harness_solves_only_before_its_first_step(steps, monkeypatch):
    # share=True inverts each layer once, column by column, and then only
    # multiplies; share=False solves once per layer and step
    prob = theory.make_linear_problem([5, 4, 6, 5], m=3, seed=5)
    lmin, lmax = prob.eig_range()
    eta = 0.5 * theory.eta_tilde(4, lmin, lmax)
    rhs = []
    real = linalg.solve_spd

    def recording(a, b):
        rhs.append(b.copy())
        return real(a, b)

    monkeypatch.setattr(linalg, "solve_spd", recording)
    theory.theorem1_harness(prob, eta, steps=steps, share=True)
    assert len(rhs) == prob.layer_count * prob.batch
    assert np.array_equal(np.array(rhs), np.tile(np.eye(prob.batch), (prob.layer_count, 1)))
    rhs.clear()
    theory.theorem1_harness(prob, eta, steps=steps, share=False)
    assert len(rhs) == prob.layer_count * steps


# -------------------------------------------------------- identity checks

def test_smw_identity_zero_perturbation_is_exact():
    lam = 0.7
    g = _rng(5).standard_normal(6)
    direct = np.linalg.solve(lam * np.eye(6), g)
    small = (g - np.zeros(6)) / lam
    assert np.abs(small - direct).max() <= 1e-15


def test_smw_identity_hand_case():
    # U = I_2, lam = 1: both routes reduce to solving 1.5 I
    lam, m = 1.0, 2
    u = np.eye(2)
    g = np.array([0.4, -1.1])
    direct = np.linalg.solve(lam * np.eye(2) + (u @ u.T) / m, g)
    inner = np.linalg.solve(lam * np.eye(m) + (u.T @ u) / m, u.T @ g)
    small = (g - (u @ inner) / m) / lam
    assert np.abs(small - direct).max() <= 1e-14
    assert np.abs(direct - g / 1.5).max() <= 1e-14


def test_smw_identity_check_random():
    assert theory.smw_identity_check(100, 16, 0.1, seed=6) <= 1e-9
    assert theory.smw_identity_check(40, 8, 1e-3, seed=7) <= 1e-9


def test_coefficient_equivalence_check_random():
    assert theory.coefficient_equivalence_check(30, 6, 0.2, seed=8) <= 1e-9


def test_khatri_rao_gram_check_random():
    assert theory.khatri_rao_gram_check(7, 5, 4, seed=9) <= 1e-12


# ----------------------------------------------------------------- lemmas

def test_lemma_hand_diagonal_cases():
    g = np.diag([2.0, 5.0])
    lam_m = 2.0
    assert theory.lemma1_check(g, lam_m) <= 1e-12
    assert theory.lemma2_check(g, lam_m) <= 1e-12
    # frozen predictions, re-derived directly from the assembled matrices
    got1 = np.sort(np.linalg.eigvals(np.linalg.solve(g + lam_m * np.eye(2), g)).real)
    assert np.abs(got1 - [0.5, 5.0 / 7.0]).max() <= 1e-12
    inner = np.linalg.solve(lam_m * np.eye(2) + g, g)
    got2 = np.sort(np.linalg.eigvals(g @ (np.eye(2) - inner)).real)
    assert np.abs(got2 - [1.0, 10.0 / 7.0]).max() <= 1e-12


def test_lemma_zero_matrix():
    g = np.zeros((3, 3))
    assert theory.lemma1_check(g, 1.0) <= 1e-15
    assert theory.lemma2_check(g, 1.0) <= 1e-15


def test_lemma2_large_damping_limit_recovers_gram_spectrum():
    rng = _rng(10)
    j = rng.standard_normal((6, 4))
    g = j.T @ j
    lam_m = 1e9
    inner = np.linalg.solve(lam_m * np.eye(4) + g, g)
    got = np.sort(np.linalg.eigvals(g @ (np.eye(4) - inner)).real)
    mu = linalg.sym_eigvals(g)
    assert np.abs(got - mu).max() <= 1e-6 * mu.max()


def test_lemma_checks_on_random_spd():
    rng = _rng(11)
    worst1 = worst2 = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        j = rng.standard_normal((n + 3, n))
        g = j.T @ j
        lam_m = float(rng.uniform(0.05, 3.0))
        worst1 = max(worst1, theory.lemma1_check(g, lam_m))
        worst2 = max(worst2, theory.lemma2_check(g, lam_m))
    assert worst1 <= 1e-9
    assert worst2 <= 1e-9


def test_lemma_validation():
    with pytest.raises(ValueError, match="positive"):
        theory.lemma1_check(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="positive"):
        theory.lemma2_check(np.eye(2), -1.0)


# -------------------------------------------------------------- eta_tilde

def test_eta_tilde_four_equal_layers_hand_value():
    want = (3.0 - 2.0 * math.sqrt(2.0)) / 18.0
    assert abs(theory.eta_tilde(4, 1.0, 1.0) - want) <= 1e-12
    # numerator at L=4 is 3 - 2 sqrt 2
    assert abs((4 - math.sqrt(8.0) - 1) - 0.17157287525381) <= 1e-12


def test_eta_tilde_decreasing_in_condition_number():
    values = [theory.eta_tilde(4, 1.0, lmax) for lmax in (1.0, 1.5, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eta_tilde_validation():
    with pytest.raises(ValueError, match="at least 4"):
        theory.eta_tilde(3, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam_min"):
        theory.eta_tilde(4, 2.0, 1.0)


# -------------------------------------------------------- excursion radius

def test_radius_hand_values():
    assert theory.assumption2_radius(4, 1.0, 1.0, 1.0) == 2.0
    assert theory.assumption2_radius(4, 1.0, 1.0, 0.0) == 0.0


def test_radius_validation():
    with pytest.raises(ValueError, match="layer"):
        theory.assumption2_radius(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam_min"):
        theory.assumption2_radius(4, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        theory.assumption2_radius(4, 1.0, 1.0, -1.0)


def test_series_bound_approaches_radius():
    radius = theory.assumption2_radius(5, 0.7, 1.9, 2.3)
    series = theory.excursion_series_bound(5, 0.7, 1.9, 2.3, eta=1e-5)
    assert abs(series - radius) / radius <= 1e-4
    with pytest.raises(ValueError, match="eta"):
        theory.excursion_series_bound(5, 0.7, 1.9, 2.3, eta=0.0)


def test_series_bound_matches_closed_form():
    # independent closed form: eta / (2 (1 - sqrt(1 - eta))) * radius
    for eta in (1e-3, 0.05, 0.4):
        got = theory.excursion_series_bound(3, 0.9, 1.1, 1.7, eta)
        factor = eta / (2.0 * (1.0 - math.sqrt(1.0 - eta)))
        want = factor * theory.assumption2_radius(3, 0.9, 1.1, 1.7)
        assert abs(got - want) <= 1e-9 * want


# ------------------------------------------------------------- run_checks

def test_run_checks_all_pass():
    results = theory.run_checks(seed=0)
    names = [r.name for r in results]
    assert names == [
        "smw_identity",
        "coefficient_equivalence",
        "khatri_rao_gram",
        "lemma1_eigmap",
        "lemma2_eigmap",
        "eta_tilde_hand_value",
        "excursion_radius_limit",
        "theorem1_contraction",
        "sharing_exactness",
    ]
    for r in results:
        assert r.passed, f"{r.name}: {r.measured} > {r.threshold}"


def test_injected_sign_error_is_caught(monkeypatch):
    real = core.coefficients

    def flipped(g, lam):
        return -real(g, lam)

    monkeypatch.setattr(core, "coefficients", flipped)
    assert theory.coefficient_equivalence_check(20, 5, 0.3, seed=12) > 0.1
    results = theory.run_checks(seed=0)
    bad = {r.name: r for r in results}["coefficient_equivalence"]
    assert not bad.passed

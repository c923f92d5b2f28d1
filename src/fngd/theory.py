"""Convergence theory checks for the coefficient-form natural gradient.

The analysis lives on an exactly-linear model: per-layer Jacobians J_l
(each N_l x M) that never change, outputs v(w) = v0 + J^T (w - w0), and
the per-layer damped update

    w_l <- w_l - (eta / M) (F_l + lambda I)^{-1} J_l (v - y),
    F_l = (1/M) J_l J_l^T.

Key facts checked here, all against independent numerical routes:

* the inversion identity that moves the solve from N_l x N_l down to
  M x M (and its coefficient form used by the optimizer);
* eigenvalue maps: eig((G + cI)^{-1} G) = mu/(c + mu) and
  eig(G (I - (cI + G)^{-1} G)) = mu c / (c + mu) for G = J^T J, c = lambda M;
* the guaranteed step size eta_tilde(L, lambda_min, lambda_max), defined
  for L >= 4, under which the squared residual contracts at least by
  (1 - eta) per step when lambda = lambda_min / M;
* the parameter-excursion radius sqrt(lambda_max L)/lambda_min * r0 that
  the geometric series of per-step moves approaches for small eta.

Because the Jacobians are constant, the M x M solve operator of every
layer is the same at every step; computing it once and reusing it (the
sharing regime) must match recomputing it per step to machine
precision, which theorem1_harness exercises via its ``share`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, linalg, persample

__all__ = [
    "LinearProblem",
    "make_linear_problem",
    "HarnessResult",
    "theorem1_harness",
    "smw_identity_check",
    "coefficient_equivalence_check",
    "khatri_rao_gram_check",
    "lemma1_check",
    "lemma2_check",
    "eta_tilde",
    "assumption2_radius",
    "CheckResult",
    "run_checks",
]


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max-norm relative error with a tiny floor against zero references."""
    denom = max(float(np.abs(want).max(initial=0.0)), 1e-30)
    return float(np.abs(got - want).max(initial=0.0)) / denom


@dataclass(frozen=True)
class LinearProblem:
    """Constant-Jacobian layered model.

    blocks[l] is J_l with shape (n_l, M); J is their vertical
    concatenation and v(w) = v0 + J^T (w - w0).  The full Gram
    used by the eigenvalue bounds is block-diagonal with blocks
    J_l^T J_l.
    """

    blocks: tuple[np.ndarray, ...]
    y: np.ndarray
    v0: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one layer block")
        m = self.blocks[0].shape[1]
        total = 0
        for l, j in enumerate(self.blocks):
            if j.ndim != 2 or j.shape[1] != m:
                raise ValueError(f"block {l} shape {j.shape} does not match batch {m}")
            total += j.shape[0]
        if self.y.shape != (m,) or self.v0.shape != (m,):
            raise ValueError("y and v0 must be length-M vectors")
        if self.w0.shape != (total,):
            raise ValueError(f"w0 length {self.w0.shape} does not match {total} parameters")

    @property
    def layer_count(self) -> int:
        return len(self.blocks)

    @property
    def batch(self) -> int:
        return self.blocks[0].shape[1]

    def gram(self) -> np.ndarray:
        """Block-diagonal ML x ML matrix with blocks J_l^T J_l."""
        m, l = self.batch, self.layer_count
        g = np.zeros((m * l, m * l))
        for i, j in enumerate(self.blocks):
            g[i * m : (i + 1) * m, i * m : (i + 1) * m] = j.T @ j
        return g

    def eig_range(self) -> tuple[float, float]:
        eigs = linalg.sym_eigvals(self.gram())
        return float(eigs[0]), float(eigs[-1])


def make_linear_problem(layer_sizes, m: int, seed: int,
                        smin: float = 0.8, smax: float = 1.6) -> LinearProblem:
    """Random problem with controlled singular values.

    Each J_l = Q diag(s) V^T with s uniform in [smin, smax], so
    J_l^T J_l has eigenvalues in [smin^2, smax^2] and the full Gram is
    safely positive definite.  Requires n_l >= m for every layer.
    """
    sizes = [int(n) for n in layer_sizes]
    if len(sizes) < 1:
        raise ValueError("need at least one layer")
    if any(n < m for n in sizes):
        raise ValueError(f"every layer needs at least m={m} rows, got {sizes}")
    if not 0.0 < smin <= smax:
        raise ValueError(f"bad singular-value range [{smin}, {smax}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for n in sizes:
        q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)))
        s = rng.uniform(smin, smax, m)
        blocks.append(q @ (s[:, None] * v.T))
    y = rng.standard_normal(m)
    v0 = rng.standard_normal(m)
    w0 = rng.standard_normal(sum(sizes))
    return LinearProblem(tuple(blocks), y, v0, w0)


@dataclass
class HarnessResult:
    residual_sq: np.ndarray    # squared residual norms, length steps + 1
    ratios: np.ndarray         # per-step contraction factors, length steps
    eta: float
    lam: float
    w_final: np.ndarray
    v_final: np.ndarray


def theorem1_harness(problem: LinearProblem, eta: float, steps: int,
                     share: bool = False) -> HarnessResult:
    """Iterate the per-layer damped update and record residual decay.

    The layer update is applied through the M x M coefficient route
    c = (lambda I + G_l / M)^{-1} r, dw_l = -(eta / M) J_l c, with
    G_l = J_l^T J_l and lambda fixed at lambda_min(G)/M.  With ``share``
    each layer's inverse is built by M solves before the first step and
    every step multiplies by it, as FNGD inverts in epoch one only;
    without it each step solves afresh, the no-sharing cost model.
    Refuses step sizes above the guaranteed bound.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    lmin, lmax = problem.eig_range()
    if lmin <= 0.0:
        raise ValueError(f"problem Gram is singular (lambda_min={lmin:.3e})")
    bound = eta_tilde(problem.layer_count, lmin, lmax)
    if eta > bound:
        raise ValueError(
            f"step size {eta:.6g} exceeds the guaranteed bound {bound:.6g} "
            f"for this problem"
        )
    if eta <= 0.0:
        raise ValueError(f"step size must be positive, got {eta}")
    m = problem.batch
    lam = lmin / m
    ops = []
    for j in problem.blocks:
        a = lam * np.eye(m) + (j.T @ j) / m
        ops.append(np.column_stack([linalg.solve_spd(a, e) for e in np.eye(m)])
                   if share else a)

    w = problem.w0.copy()
    v = problem.v0.copy()
    res_sq = np.empty(steps + 1)
    r = v - problem.y
    res_sq[0] = float(r @ r)
    offset = np.cumsum([0] + [j.shape[0] for j in problem.blocks])
    for k in range(steps):
        r = v - problem.y
        dv = np.zeros(m)
        for l, j in enumerate(problem.blocks):
            c = ops[l] @ r if share else linalg.solve_spd(ops[l], r)
            dw = -(eta / m) * (j @ c)
            w[offset[l] : offset[l + 1]] += dw
            dv += j.T @ dw
        v = v + dv
        r = v - problem.y
        res_sq[k + 1] = float(r @ r)
    prev = res_sq[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(prev > 0.0, res_sq[1:] / np.where(prev > 0.0, prev, 1.0), 0.0)
    return HarnessResult(res_sq, ratios, eta, lam, w, v)


def smw_identity_check(n: int, m: int, lam: float, seed: int) -> float:
    """Error of the small-solve identity against direct N x N inversion.

    (lambda I_N + (1/M) U U^T)^{-1} g is computed once directly and once
    as (1/lambda)(g - (1/M) U (lambda I_M + (1/M) U^T U)^{-1} U^T g).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.standard_normal((n, m))
    g = rng.standard_normal(n)
    direct = np.linalg.solve(lam * np.eye(n) + (u @ u.T) / m, g)
    inner = np.linalg.solve(lam * np.eye(m) + (u.T @ u) / m, u.T @ g)
    small = (g - (u @ inner) / m) / lam
    return _rel_err(small, direct)


def coefficient_equivalence_check(n: int, m: int, lam: float, seed: int) -> float:
    """Error of the coefficient route (1/lam) U c against direct inversion.

    This exercises the production code path: Gram from U,
    coefficients(), then the weighted sum, compared to solving the
    N x N damped system for the batch-mean gradient.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.standard_normal((n, m))
    c = core.coefficients(persample.gram_conv(u), lam)
    got = (u @ c) / lam
    g = u.mean(axis=1)
    want = np.linalg.solve(lam * np.eye(n) + (u @ u.T) / m, g)
    return _rel_err(got, want)


def khatri_rao_gram_check(p: int, q: int, m: int, seed: int) -> float:
    """Error of (A^T A) * (B^T B) against the explicit (A . B) Gram."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((p, m))
    b = rng.standard_normal((q, m))
    u = linalg.khatri_rao(a, b)
    fast = (a.T @ a) * (b.T @ b)
    return _rel_err(fast, u.T @ u)


def _general_eigs(a: np.ndarray) -> np.ndarray:
    """Sorted real parts from the general (non-symmetric) eigensolver.

    Used as the independent route for products like (G + cI)^{-1} G that
    are similar to symmetric matrices but not symmetric themselves.
    """
    return np.sort(np.linalg.eigvals(a).real)


def lemma1_check(g: np.ndarray, lam_m: float) -> float:
    """Max gap between eig((G + cI)^{-1} G) and mu/(c + mu), c = lam_m."""
    if lam_m <= 0.0:
        raise ValueError(f"lam_m must be positive, got {lam_m}")
    g = linalg.as_matrix(g)
    mu = linalg.sym_eigvals(g)
    predicted = mu / (lam_m + mu)
    got = _general_eigs(np.linalg.solve(g + lam_m * np.eye(g.shape[0]), g))
    return float(np.abs(got - predicted).max())


def lemma2_check(g: np.ndarray, lam_m: float) -> float:
    """Max gap between eig(G (I - (cI + G)^{-1} G)) and mu c/(c + mu)."""
    if lam_m <= 0.0:
        raise ValueError(f"lam_m must be positive, got {lam_m}")
    g = linalg.as_matrix(g)
    n = g.shape[0]
    mu = linalg.sym_eigvals(g)
    predicted = np.sort(mu * lam_m / (lam_m + mu))
    inner = np.linalg.solve(lam_m * np.eye(n) + g, g)
    got = _general_eigs(g @ (np.eye(n) - inner))
    return float(np.abs(got - predicted).max())


def eta_tilde(layers: int, lam_min: float, lam_max: float) -> float:
    """Largest guaranteed-safe step size for the linear model.

    (L - sqrt(2L) - 1) / (L sqrt(lam_max / (lam_min^2 + lam_min lam_max))
    + sqrt(2L)/2)^2.  The numerator goes non-positive below four layers,
    where the guarantee says nothing.
    """
    if layers < 4:
        raise ValueError(
            f"the step-size bound is vacuous for {layers} layers; need at least 4"
        )
    if not 0.0 < lam_min <= lam_max:
        raise ValueError(f"need 0 < lam_min <= lam_max, got {lam_min}, {lam_max}")
    num = layers - math.sqrt(2.0 * layers) - 1.0
    den = (
        layers * math.sqrt(lam_max / (lam_min ** 2 + lam_min * lam_max))
        + math.sqrt(2.0 * layers) / 2.0
    ) ** 2
    return num / den


def assumption2_radius(layers: int, lam_min: float, lam_max: float,
                       r0: float) -> float:
    """Parameter-excursion radius sqrt(lam_max L) / lam_min * r0."""
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    if not 0.0 < lam_min <= lam_max:
        raise ValueError(f"need 0 < lam_min <= lam_max, got {lam_min}, {lam_max}")
    if r0 < 0.0:
        raise ValueError(f"initial residual norm must be non-negative, got {r0}")
    return math.sqrt(lam_max * layers) / lam_min * r0


def excursion_series_bound(layers: int, lam_min: float, lam_max: float,
                           r0: float, eta: float) -> float:
    """Numerically summed geometric bound on the total parameter move.

    Per-step moves are bounded by a multiple of (1 - eta)^{k/2} r0;
    summing that series (in blocks, until the tail is negligible) gives
    a quantity that approaches assumption2_radius as eta -> 0.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    root = math.sqrt(1.0 - eta)
    block = 1_000_000
    total = 0.0
    k0 = 0
    while True:
        terms = root ** np.arange(k0, k0 + block, dtype=np.float64)
        total += float(terms.sum())
        if terms[-1] < 1e-16 * total or k0 > 500_000_000:
            break
        k0 += block
    return eta * total * math.sqrt(lam_max * layers) / (2.0 * lam_min) * r0


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


def _check(name: str, measured: float, threshold: float, detail: str = "") -> CheckResult:
    return CheckResult(name, measured, threshold, measured <= threshold, detail)


def run_checks(seed: int = 0) -> list[CheckResult]:
    """The full identity-and-theory suite; every entry is independent of
    the code path it validates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    results = []

    worst = max(
        smw_identity_check(100, 16, 0.1, seed + 1),
        smw_identity_check(200, 32, 1e-3, seed + 2),
        smw_identity_check(40, 8, 1.0, seed + 3),
    )
    results.append(_check("smw_identity", worst, 1e-9,
                          "small-solve identity vs direct inversion"))

    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 120))
        m = int(rng.integers(2, 33))
        lam = float(rng.uniform(1e-3, 1.0))
        worst = max(worst, coefficient_equivalence_check(n, m, lam, seed + 10 + trial))
    results.append(_check("coefficient_equivalence", worst, 1e-9,
                          "weighted per-sample sum vs direct inversion"))

    worst = 0.0
    for trial in range(20):
        p = int(rng.integers(1, 24))
        q = int(rng.integers(1, 24))
        m = int(rng.integers(1, 17))
        worst = max(worst, khatri_rao_gram_check(p, q, m, seed + 40 + trial))
    results.append(_check("khatri_rao_gram", worst, 1e-12,
                          "factored Gram vs explicit columnwise-Kronecker Gram"))

    worst1 = worst2 = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 17))
        j = rng.standard_normal((n + 2, n))
        g = j.T @ j
        lam_m = float(rng.uniform(0.05, 3.0))
        worst1 = max(worst1, lemma1_check(g, lam_m))
        worst2 = max(worst2, lemma2_check(g, lam_m))
    diag = np.diag([2.0, 5.0])
    exact1 = lemma1_check(diag, 2.0)
    exact2 = lemma2_check(diag, 2.0)
    results.append(_check("lemma1_eigmap", max(worst1, exact1), 1e-9,
                          "eig((G+cI)^-1 G) = mu/(c+mu)"))
    results.append(_check("lemma2_eigmap", max(worst2, exact2), 1e-9,
                          "eig(G(I-(cI+G)^-1 G)) = mu c/(c+mu)"))

    got = eta_tilde(4, 1.0, 1.0)
    want = (3.0 - 2.0 * math.sqrt(2.0)) / 18.0
    results.append(_check("eta_tilde_hand_value", abs(got - want), 1e-12,
                          "four equal layers reduce to (3 - 2 sqrt 2)/18"))

    eta = 1e-5
    series = excursion_series_bound(5, 0.7, 1.9, 2.3, eta)
    radius = assumption2_radius(5, 0.7, 1.9, 2.3)
    results.append(_check("excursion_radius_limit", abs(series - radius) / radius, 1e-4,
                          "summed step bound approaches the excursion radius"))

    worst_excess = -math.inf
    worst_share = 0.0
    for trial in range(3):
        sizes = [int(rng.integers(4, 9)) for _ in range(4 + trial)]
        m = int(rng.integers(2, 5))
        prob = make_linear_problem(sizes, m, seed + 90 + trial)
        lmin, lmax = prob.eig_range()
        eta_run = 0.5 * eta_tilde(prob.layer_count, lmin, lmax)
        fresh = theorem1_harness(prob, eta_run, 120, share=False)
        cached = theorem1_harness(prob, eta_run, 120, share=True)
        worst_excess = max(worst_excess, float(fresh.ratios.max() - (1.0 - eta_run)))
        worst_share = max(
            worst_share,
            float(np.abs(fresh.w_final - cached.w_final).max()),
            float(np.abs(fresh.residual_sq - cached.residual_sq).max()),
        )
    results.append(_check("theorem1_contraction", worst_excess, 1e-10,
                          "per-step squared-residual ratio at most 1 - eta"))
    results.append(_check("sharing_exactness", worst_share, 1e-12,
                          "cached solve operators match per-step recomputation"))

    return results

"""Dense linear algebra: hand values, independent oracles, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fngd import linalg


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ------------------------------------------------------------ khatri_rao

def test_khatri_rao_hand_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = linalg.khatri_rao(a, np.eye(2))
    assert np.array_equal(got[:, 0], [1.0, 0.0, 3.0, 0.0])
    assert np.array_equal(got[:, 1], [0.0, 2.0, 0.0, 4.0])


def test_khatri_rao_single_column_is_kron():
    rng = _rng(1)
    a = rng.standard_normal((3, 1))
    b = rng.standard_normal((4, 1))
    got = linalg.khatri_rao(a, b)
    assert np.array_equal(got[:, 0], np.kron(a[:, 0], b[:, 0]))


def test_khatri_rao_gram_identity():
    rng = _rng(2)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    u = linalg.khatri_rao(a, b)
    fast = (a.T @ a) * (b.T @ b)
    scale = max(np.abs(u.T @ u).max(), 1.0)
    assert np.abs(u.T @ u - fast).max() <= 1e-12 * scale


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError, match="column counts differ"):
        linalg.khatri_rao(np.ones((2, 3)), np.ones((2, 4)))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10_000))
def test_khatri_rao_gram_identity_property(p, q, m, seed):
    rng = _rng(seed)
    a = rng.standard_normal((p, m))
    b = rng.standard_normal((q, m))
    u = linalg.khatri_rao(a, b)
    fast = (a.T @ a) * (b.T @ b)
    scale = max(np.abs(u.T @ u).max(initial=0.0), 1.0)
    assert np.abs(u.T @ u - fast).max() <= 1e-12 * scale


# -------------------------------------------------------------- solve_spd

def test_solve_diagonal():
    got = linalg.solve_spd(2.0 * np.eye(3), np.array([2.0, 4.0, 6.0]))
    assert np.abs(got - [1.0, 2.0, 3.0]).max() <= 1e-14


def test_solve_2x2_hand_inverse():
    # inv([[4,2],[2,3]]) = (1/8) [[3,-2],[-2,4]]; times [2,1] gives [0.5, 0]
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    got = linalg.solve_spd(a, np.array([2.0, 1.0]))
    assert np.abs(got - [0.5, 0.0]).max() <= 1e-14


def test_solve_residual_bound_random_spd():
    rng = _rng(4)
    r = rng.standard_normal((8, 8))
    a = r.T @ r + np.eye(8)
    b = rng.standard_normal(8)
    x = linalg.solve_spd(a, b)
    resid = np.abs(a @ x - b).max()
    bound = 1e-9 * (np.linalg.norm(a) * np.abs(x).max() + np.abs(b).max())
    assert resid <= bound


def test_cholesky_reports_failing_pivot():
    # solve_spd's Cholesky factorization names the first non-positive pivot
    with pytest.raises(linalg.NotSPDError) as err:
        linalg.solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    assert err.value.pivot == 1

    with pytest.raises(linalg.NotSPDError) as err:
        linalg.solve_spd(np.array([[-1.0]]), np.ones(1))
    assert err.value.pivot == 0


def test_solve_and_cholesky_report_the_same_failing_pivot():
    # the pivot and its value are those of the Cholesky factorization:
    # leading 3x3 block positive definite, Schur complement at pivot 3 is -0.5
    rng = _rng(6)
    r = rng.standard_normal((6, 6))
    a = r @ r.T + np.eye(6)
    schur = a[3, 3] - a[3, :3] @ np.linalg.solve(a[:3, :3], a[:3, 3])
    a[3, 3] -= schur + 0.5
    with pytest.raises(linalg.NotSPDError) as err:
        linalg.solve_spd(a, np.ones(6))
    assert err.value.pivot == 3
    assert abs(err.value.value + 0.5) <= 1e-12


@pytest.mark.parametrize("m", [64, 128, 512])
def test_solve_matches_numpy_on_damped_dense_grams(m):
    # a = G/M + lambda I with lambda = alpha ||G||_F, as core.coefficients
    # builds it; G is the Gram of a dense layer's per-sample gradients.
    rng = _rng(m)
    u = linalg.khatri_rao(rng.standard_normal((10, m)), rng.standard_normal((30, m)))
    gram = u.T @ u
    lam = 0.005 * np.linalg.norm(gram)
    a = gram / m + lam * np.eye(m)
    want = np.linalg.solve(a, np.ones(m))
    got = linalg.solve_spd(a, np.ones(m))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_leaves_its_arguments_unmodified():
    rng = _rng(7)
    for n in (5, 2 * linalg.BLOCK + 3):
        r = rng.standard_normal((n, n))
        a = r @ r.T + np.eye(n)
        b = rng.standard_normal(n)
        a0, b0 = a.copy(), b.copy()
        linalg.solve_spd(a, b)
        assert np.array_equal(a, a0)
        assert np.array_equal(b, b0)


B = linalg.BLOCK


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3, 512])
def test_solve_matches_numpy_across_block_boundaries(n):
    # one block, a block and a row, and a last block shorter than the rest
    rng = _rng(100 + n)
    u = linalg.khatri_rao(rng.standard_normal((10, n)), rng.standard_normal((30, n)))
    gram = u.T @ u
    a = gram / n + 0.005 * np.linalg.norm(gram) * np.eye(n)
    b = rng.standard_normal(n)
    want = np.linalg.solve(a, b)
    got = linalg.solve_spd(a, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pivot", [B + 5, 2 * B + 1])
def test_failing_pivot_in_a_later_block_is_reported(pivot):
    # the leading pivot x pivot block is positive definite and the Schur
    # complement at `pivot` is -0.5, which the block update must reach
    n = 2 * B + 3
    rng = _rng(pivot)
    r = rng.standard_normal((n, n))
    a = r @ r.T + np.eye(n)
    head = a[:pivot, :pivot]
    schur = a[pivot, pivot] - a[pivot, :pivot] @ np.linalg.solve(head, a[:pivot, pivot])
    a[pivot, pivot] -= schur + 0.5
    with pytest.raises(linalg.NotSPDError) as err:
        linalg.solve_spd(a, np.ones(n))
    assert err.value.pivot == pivot
    assert abs(err.value.value + 0.5) <= 1e-12


def test_solve_reads_only_the_upper_triangle():
    n = 2 * B + 3
    rng = _rng(8)
    r = rng.standard_normal((n, n))
    a = r @ r.T + np.eye(n)
    b = rng.standard_normal(n)
    garbage = a.copy()
    lower = np.tril_indices(n, -1)
    garbage[lower] = 1e6 * rng.standard_normal(lower[0].size)
    garbage[n - 1, 0] = np.nan
    assert np.array_equal(linalg.solve_spd(garbage, b), linalg.solve_spd(a, b))


def test_solve_shape_errors():
    with pytest.raises(ValueError, match="rhs shape"):
        linalg.solve_spd(np.eye(3), np.ones(2))
    with pytest.raises(ValueError, match="square"):
        linalg.solve_spd(np.ones((2, 3)), np.ones(2))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_solve_residual_bound_property(n, seed):
    rng = _rng(seed)
    r = rng.standard_normal((n, n))
    a = r.T @ r + np.eye(n)
    b = rng.standard_normal(n)
    x = linalg.solve_spd(a, b)
    resid = np.abs(a @ x - b).max()
    bound = 1e-9 * (np.linalg.norm(a) * np.abs(x).max(initial=0.0)
                    + np.abs(b).max(initial=0.0))
    assert resid <= bound


# ------------------------------------------------------------ sym_eigvals

def test_eigvals_diagonal():
    assert np.array_equal(linalg.sym_eigvals(np.diag([2.0, 5.0])), [2.0, 5.0])


def test_eigvals_known_spectrum():
    got = linalg.sym_eigvals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(got - [-1.0, 1.0]).max() <= 1e-14


def _charpoly_coeffs(a):
    """Characteristic polynomial via the trace recursion (no eigensolver)."""
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def test_eigvals_against_charpoly_roots():
    rng = _rng(6)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2.0
    got = linalg.sym_eigvals(a)
    roots = np.sort(np.roots(_charpoly_coeffs(a)).real)
    assert np.abs(got - roots).max() <= 1e-8 * max(1.0, np.abs(got).max())


def test_eigvals_shift_invariance():
    rng = _rng(7)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    base = linalg.sym_eigvals(a)
    shifted = linalg.sym_eigvals(a + 3.25 * np.eye(5))
    assert np.abs(shifted - (base + 3.25)).max() <= 1e-10


def test_eigvals_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigvals_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        linalg.sym_eigvals(np.ones((2, 3)))


# ------------------------------------------------------------- coercions

def test_as_matrix_checks():
    out = linalg.as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)
    with pytest.raises(ValueError, match="2-D"):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[np.nan, 0.0]])


def test_as_matrix_passes_contiguous_float64_through_and_copies_strided_views():
    # a sample-major batch is F-contiguous and must reach BLAS uncopied
    c = np.arange(12.0).reshape(3, 4)
    f = np.asfortranarray(c)
    assert linalg.as_matrix(c) is c
    assert linalg.as_matrix(f) is f
    strided = c[:, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    out = linalg.as_matrix(strided)
    assert not np.shares_memory(out, c)
    assert out.flags.c_contiguous and np.array_equal(out, strided)
    with pytest.raises(ValueError, match="2-D"):
        linalg.as_matrix(np.arange(4.0))
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix(np.asfortranarray([[0.0, np.inf], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix(np.array([[np.nan, 0.0, 1.0]])[:, ::2])


def test_as_vector_checks():
    out = linalg.as_vector([1, 2, 3])
    assert out.dtype == np.float64 and out.shape == (3,)
    with pytest.raises(ValueError, match="1-D"):
        linalg.as_vector([[1.0]])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_vector([np.inf])

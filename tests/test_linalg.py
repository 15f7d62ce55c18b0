"""Tests for the shared filter linear algebra."""
import re

import numpy as np
import pytest

from cdassim.filters.linalg import (
    _solve_lower_t,
    chol_psd,
    condition_number,
    solve_lower,
    solve_spd,
    symmetrize,
)
from cdassim.filters.pf import _log_gaussian
from cdassim.sde import DivergenceError


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * np.eye(n)


def test_symmetrize_averages_off_diagonal():
    P = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert np.allclose(symmetrize(P), [[1.0, 1.0], [1.0, 3.0]])


def test_chol_psd_matches_numpy_on_pd():
    P = random_spd(np.random.default_rng(1), 4)
    assert np.array_equal(chol_psd(P), np.linalg.cholesky(P))


def test_chol_psd_repairs_semidefinite():
    # rank-1 matrix: plain Cholesky fails, diagonal jitter makes it factorable
    v = np.array([1.0, 2.0, 3.0])
    P = np.outer(v, v)
    L = chol_psd(P)
    assert np.allclose(L @ L.T, P, atol=1e-5 * np.trace(P))


def test_chol_psd_rejects_indefinite():
    with pytest.raises(DivergenceError, match="not factorizable after jitter"):
        chol_psd(np.diag([1.0, -1.0]))


def test_solve_spd_matches_direct_solve():
    rng = np.random.default_rng(2)
    S = random_spd(rng, 5)
    B = rng.standard_normal((5, 3))
    assert np.allclose(solve_spd(S, B), np.linalg.solve(S, B), atol=1e-10)


def test_solve_spd_accepts_vector_rhs():
    S = np.diag([2.0, 4.0])
    assert np.allclose(solve_spd(S, np.array([2.0, 8.0])), [1.0, 2.0])


def test_solve_spd_rejects_singular():
    with pytest.raises(DivergenceError, match=r"condition inf > 1e\+12"):
        solve_spd(np.ones((2, 2)), np.ones(2))


def test_solve_spd_rejects_nonfinite():
    with pytest.raises(DivergenceError, match="non-finite"):
        solve_spd(np.array([[np.nan]]), np.ones(1))


def test_solve_spd_rejects_failed_factorization():
    # indefinite with a finite condition number: only the factorization catches it
    S = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert condition_number(S) == pytest.approx(3.0)
    with pytest.raises(DivergenceError, match="not PD"):
        solve_spd(S, np.ones(2))


def _scalar_cases(rng, count, shapes):
    """1x1 SPD matrices with scales from 1e-3 to 1e4, right-hand sides of the given shapes."""
    for _ in range(count):
        S = np.array([[10.0 ** rng.uniform(-3.0, 4.0) * rng.uniform(0.5, 2.0)]])
        shape = shapes[rng.integers(len(shapes))]
        yield S, 10.0 ** rng.uniform(-3.0, 4.0) * rng.standard_normal(shape)


def test_scalar_closed_form_is_bitwise_the_factor_and_substitute_path():
    rng = np.random.default_rng(13)
    for S, B in _scalar_cases(rng, 2000, [(1,), (1, 1), (1, 4), (1, 1000)]):
        L = np.linalg.cholesky(S)
        expected = _solve_lower_t(L, solve_lower(L, B))
        got = solve_spd(S, B)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (S, B)
        assert chol_psd(S).tobytes() == L.tobytes(), S


@pytest.mark.parametrize("s, chol_message, solve_message", [
    (0.0, "covariance not factorizable after jitter (trace/n=0.000e+00)",
     "innovation covariance condition inf > 1e+12"),
    (-1.0, "covariance not factorizable after jitter (trace/n=-1.000e+00)",
     "innovation covariance not PD: Matrix is not positive definite"),
    (np.nan, None, "innovation covariance is non-finite"),
    (np.inf, None, "innovation covariance is non-finite"),
])
def test_scalar_degenerate_cases_keep_the_general_path_errors(s, chol_message, solve_message):
    S = np.array([[s]])
    if chol_message is None:
        # numpy's Cholesky passes NaN and +inf through instead of failing
        assert chol_psd(S).tobytes() == np.linalg.cholesky(S).tobytes()
    else:
        with pytest.raises(DivergenceError, match=f"^{re.escape(chol_message)}$") as info:
            chol_psd(S)
        assert info.type is DivergenceError
    with pytest.raises(DivergenceError, match=f"^{re.escape(solve_message)}$") as info:
        solve_spd(S, np.ones(1))
    assert info.type is DivergenceError


# -- scipy as an oracle (a test-only comparison; the package uses numpy only) --


def test_scalar_solve_spd_is_bitwise_cho_solve():
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for S, B in _scalar_cases(rng, 2000, [(1,), (1, 1), (1, 4), (1, 1000)]):
        expected = sl.cho_solve(sl.cho_factor(S, lower=True), B)
        got = solve_spd(S, B)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (S, B)


def test_scalar_log_gaussian_lower_solve_is_bitwise_solve_triangular():
    # One column per particle. A single column is left out: LAPACK's triangular
    # solve then divides instead of multiplying by the reciprocal, but a lone
    # particle's normalized weight is 1 whatever its likelihood.
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(12)
    for R, E in _scalar_cases(rng, 2000, [(1, 2), (1, 7), (1, 1000)]):
        L = chol_psd(R)
        z = sl.solve_triangular(L, E, lower=True)
        assert solve_lower(L, E).tobytes() == z.tobytes(), (R, E)
        assert _log_gaussian(E, R).tobytes() == (-0.5 * np.einsum("ij,ij->j", z, z)).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_spd_agrees_with_cho_solve(n):
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(20 + n)
    for _ in range(50):
        S = random_spd(rng, n, scale=10.0 ** rng.uniform(-2.0, 2.0))
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            expected = sl.cho_solve(sl.cho_factor(S, lower=True), B)
            np.testing.assert_allclose(solve_spd(S, B), expected, rtol=1e-12)
            L = np.linalg.cholesky(S)
            np.testing.assert_allclose(
                solve_lower(L, B), sl.solve_triangular(L, B, lower=True), rtol=1e-12)


def test_condition_number_diagonal():
    assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)


def test_condition_number_scalar_cases():
    assert condition_number(np.array([[5.0]])) == 1.0
    assert condition_number(np.array([[0.0]])) == np.inf

"""Shared linear algebra for the filter updates.

All innovation-covariance solves go through a Cholesky factorization;
explicit matrix inversion is deliberately absent. Factorization failures on
nominally-PSD matrices are repaired by a two-stage diagonal jitter tied to
the matrix trace, after which they raise the package's one numerical-failure
type, :class:`~cdassim.sde.DivergenceError`, as does a singular, non-finite
or non-positive-definite innovation covariance; the message says which.

The module uses numpy alone: ``np.linalg.cholesky`` factors and two small
substitution helpers solve. The substitutions multiply by the reciprocal of
each diagonal entry instead of dividing by it, as the OpenBLAS ``trsm``
kernels behind LAPACK's triangular solves do. Every innovation of the CSTR
experiment is scalar (only the temperature is measured), so its solve is
``B * (1/l) * (1/l)`` with ``l = sqrt(S)``. That is bitwise what LAPACK's
``potrs`` returns, which earlier versions of the package called; ``B / S``
or ``B / l / l`` differ from it in the last bit for most inputs and would
change every filter output. :func:`chol_psd` (for a positive 1x1 matrix)
and :func:`solve_spd` (for a positive finite one) take that closed form
directly, skipping the factorization call and the substitution loops; any
other 1x1 matrix goes the general way and fails as it does there.
"""
from __future__ import annotations

import math

import numpy as np

from cdassim.sde import DivergenceError

__all__ = [
    "symmetrize",
    "chol_psd",
    "solve_lower",
    "solve_spd",
    "condition_number",
]

# Relative jitter levels applied as delta * trace(P)/n on the diagonal.
_JITTER_LEVELS = (1e-10, 1e-6)

_COND_LIMIT = 1e12


def symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def chol_psd(P: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a nominally-PSD matrix, with jitter repair.

    On factorization failure retries with ``1e-10 * trace(P)/n`` added to
    the diagonal, then ``1e-6 * trace(P)/n``, then raises
    :class:`~cdassim.sde.DivergenceError`.
    """
    P = np.asarray(P, dtype=float)
    if P.shape == (1, 1) and P[0, 0] > 0.0:
        return np.array([[math.sqrt(P[0, 0])]])
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        pass
    n = P.shape[0]
    base = float(np.trace(P)) / n
    for level in _JITTER_LEVELS:
        try:
            return np.linalg.cholesky(P + (level * base) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise DivergenceError(
        f"covariance not factorizable after jitter (trace/n={base:.3e})")


def solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for lower-triangular L by forward substitution."""
    X = np.array(B, dtype=float)
    for i in range(L.shape[0]):
        X[i] = (X[i] - L[i, :i] @ X[:i]) * (1.0 / L[i, i])
    return X


def _solve_lower_t(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L^T X = B`` for lower-triangular L by backward substitution."""
    X = np.array(B, dtype=float)
    for i in reversed(range(L.shape[0])):
        X[i] = (X[i] - L[i + 1:, i] @ X[i + 1:]) * (1.0 / L[i, i])
    return X


def solve_spd(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``S X = B`` for symmetric positive definite S via Cholesky.

    Raises :class:`~cdassim.sde.DivergenceError` when S is non-finite,
    fails to factor, or its condition number exceeds 1e12.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape == (1, 1) and 0.0 < S[0, 0] < math.inf:
        r = 1.0 / math.sqrt(S[0, 0])
        return np.asarray(B, dtype=float) * r * r
    if not np.isfinite(S).all():
        raise DivergenceError("innovation covariance is non-finite")
    cond = condition_number(S)
    if cond > _COND_LIMIT:
        raise DivergenceError(
            f"innovation covariance condition {cond:.3e} > {_COND_LIMIT:.0e}")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"innovation covariance not PD: {exc}") from exc
    return _solve_lower_t(L, solve_lower(L, B))


def condition_number(S: np.ndarray) -> float:
    """2-norm condition estimate from the symmetric eigenvalues."""
    S = np.atleast_2d(S)
    if S.shape == (1, 1):
        v = abs(float(S[0, 0]))
        return np.inf if v == 0.0 else 1.0
    w = np.abs(np.linalg.eigvalsh(symmetrize(S)))
    lo = w.min()
    return np.inf if lo == 0.0 else float(w.max() / lo)

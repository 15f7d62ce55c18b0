"""Extended Kalman filtering for SDE dynamics with discrete updates.

Prediction integrates the joint moment ODEs

    dm/dt = f(t, m, u)
    dP/dt = A P + P A^T + sigma sigma^T,    A = df/dx(t, m, u)

with the shared classical Runge-Kutta stepper (:func:`cdassim.sde.rk4_step`)
between measurements, advancing mean and covariance as one flat moment
vector ``(m, vec P)``. The measurement update is the Joseph-form update

    P+ = (I - K C) P (I - K C)^T + K R K^T,

whose additive term uses the measurement-noise covariance R (not the
innovation covariance), keeping the posterior consistent for any gain.
"""
from __future__ import annotations

import numpy as np

from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.linalg import solve_spd, symmetrize, condition_number
from cdassim.sde import DivergenceError, SdeModel, per_input, rk4_step

__all__ = ["ekf_predict", "kalman_update"]


def _moment_rhs(model: SdeModel, n: int):
    """Right-hand side of the moment ODEs on the flat vector ``(m, vec P)``.

    One ``model.linearize`` call gives the drift and its Jacobian at the
    mean; ``sigma sigma^T`` comes from :func:`~cdassim.sde.per_input`, so
    it is computed once per input value of one prediction.
    """

    @per_input
    def noise_cov(t, m, u):
        g = np.asarray(model.diffusion(t, m, u), dtype=float)
        return g @ g.T

    def rhs(t, y, u):
        m = y[:n]
        f, A = model.linearize(t, m, u)
        AP = A @ y[n:].reshape(n, n)
        rate = np.empty(y.size)
        rate[:n] = f
        dP = np.add(AP, AP.T, out=rate[n:].reshape(n, n))
        dP += noise_cov(t, m, u)
        return rate

    return rhs


def ekf_predict(model: SdeModel, belief: GaussianBelief, inputs: np.ndarray,
                t1: float) -> GaussianBelief:
    """Propagate a Gaussian belief to time ``t1`` through the moment ODEs.

    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`~cdassim.sde.rk4_inputs`), shape ``(substeps, 3, dim_u)``: one
    Runge-Kutta step per row, of size ``(t1 - belief.time) / substeps``.
    Each stage makes one ``model.linearize`` call. The model's ``constrain``
    is applied to the mean after each substep, and the covariance is
    re-symmetrized.
    """
    t0 = belief.time
    if t1 < t0:
        raise ValueError("cannot predict backwards in time")
    if t1 == t0:
        return belief
    n = belief.dim
    rhs = _moment_rhs(model, n)
    h = (t1 - t0) / len(inputs)
    y = np.concatenate((belief.mean, belief.cov.ravel()))
    for j, stage in enumerate(inputs):
        y = rk4_step(rhs, t0 + j * h, y, h, stage)
        P = y[n:].reshape(n, n)
        P[...] = symmetrize(P)
        y[:n] = model.constrain(y[:n])
    m, P = y[:n], y[n:].reshape(n, n)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(P))):
        raise DivergenceError(f"EKF moments diverged by t={t1}")
    return GaussianBelief(m, P, t1)


def kalman_update(belief: GaussianBelief, model: SdeModel, y: np.ndarray,
                  R: np.ndarray) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """Joseph-form linearized measurement update.

    Returns (posterior, innovation, innovation covariance).
    """
    t, m, P = belief.time, belief.mean, belief.cov
    y = np.atleast_1d(np.asarray(y, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    C = np.atleast_2d(model.measure_jacobian(t, m))
    yhat = np.atleast_1d(np.asarray(model.measure(t, m), dtype=float))
    e = y - yhat
    CP = C @ P
    Re = CP @ C.T + R
    # K = P C^T Re^{-1}, via the Cholesky solve of the innovation covariance
    K = solve_spd(Re, CP).T
    m_post = m + K @ e
    J = np.eye(belief.dim) - K @ C
    P_post = symmetrize(J @ P @ J.T + K @ R @ K.T)
    if not np.all(np.isfinite(m_post)):
        raise DivergenceError(f"Kalman update diverged at t={t}")
    return GaussianBelief(m_post, P_post, t), e, Re


def innovation_stats(e: np.ndarray, Re: np.ndarray) -> tuple[float, float]:
    """Normalized innovation squared and innovation-covariance condition."""
    q = solve_spd(Re, e)
    return float(e @ q), condition_number(Re)

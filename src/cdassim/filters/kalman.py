"""Extended Kalman filtering for SDE dynamics with discrete updates.

Prediction integrates the joint moment ODEs

    dm/dt = f(t, m, u)
    dP/dt = A P + P A^T + sigma(u) sigma(u)^T,    A = df/dx(t, m, u)

with the shared classical Runge-Kutta stepper (:func:`cdassim.sde.rk4_step`)
between measurements, on one ``(n + 1, n)`` block ``[m; P]``, and
symmetrizes P once, on return. The model's ``linearize`` hands back the
drift and its Jacobian in that same layout, ``[f; A]``, and each stage's
rate is built in that block, so a stage allocates no rate block of its own.
The measurement update is the Joseph form

    P+ = (I - K C) P (I - K C)^T + K R K^T,

whose additive term uses the measurement-noise covariance R (not the
innovation covariance), keeping the posterior consistent for any gain.
"""
from __future__ import annotations

import numpy as np

from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.linalg import solve_spd, symmetrize
from cdassim.sde import DivergenceError, SdeModel, per_input, rk4_step

__all__ = ["ekf_predict", "kalman_update"]


def _moment_rhs(model: SdeModel):
    """Right-hand side of the moment ODEs on the block ``y = [m; P]``.

    One ``model.linearize`` call gives the fresh block ``[f; A]`` at the
    mean, which becomes the rate: ``f`` stays in row 0 and the rows of
    ``A`` are overwritten with ``A P + (A P)^T + sigma sigma^T``, exactly
    symmetric if P is. ``sigma sigma^T`` comes from
    :func:`~cdassim.sde.per_input`, once per input value of one prediction.
    """

    @per_input
    def noise_cov(u):
        g = np.asarray(model.diffusion(u), dtype=float)
        return g @ g.T

    def rhs(t, y, u):
        m = y[0]
        rate = model.linearize(t, m, u)
        A = rate[1:]
        # np.dot: bitwise the matmul for these small products, and cheaper to call
        AP = np.dot(A, y[1:])
        np.add(AP, AP.T, out=A)
        A += noise_cov(u)
        return rate

    return rhs


def ekf_predict(model: SdeModel, belief: GaussianBelief, inputs: np.ndarray,
                t1: float) -> GaussianBelief:
    """Propagate a Gaussian belief to time ``t1`` through the moment ODEs.

    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`~cdassim.sde.rk4_inputs`), shape ``(substeps, 3, dim_u)``: one
    Runge-Kutta step per row, of size ``(t1 - belief.time) / substeps``.
    Each stage makes one ``model.linearize`` call, and the model's
    ``constrain`` is applied to the mean after each substep.
    """
    t0 = belief.time
    if t1 < t0:
        raise ValueError("cannot predict backwards in time")
    if t1 == t0:
        return belief
    rhs = _moment_rhs(model)
    h = (t1 - t0) / len(inputs)
    y = np.vstack((belief.mean, belief.cov))
    for j, stage in enumerate(inputs):
        y = rk4_step(rhs, t0 + j * h, y, h, stage)
        y[0] = model.constrain(y[0])
    m, P = y[0], symmetrize(y[1:])
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(P))):
        raise DivergenceError(f"EKF moments diverged by t={t1}")
    return GaussianBelief(m, P, t1)


def kalman_update(belief: GaussianBelief, model: SdeModel, y: np.ndarray,
                  R: np.ndarray) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """Joseph-form linearized measurement update.

    Returns (posterior, innovation, innovation covariance). Takes ``y``
    ``(ny,)`` and ``R`` ``(ny, ny)`` as float arrays, as ``run_filter`` passes them.
    """
    t, m, P = belief.time, belief.mean, belief.cov
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

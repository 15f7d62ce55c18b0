"""Unscented Kalman filtering for SDE dynamics with discrete updates.

The time update draws sigma points from the state augmented with the
Wiener increment over the whole sampling interval: with n state dimensions
and q noise dimensions, 2(n+q)+1 points are generated from

    blockdiag(P, dt * I_q),

and the noise coordinates of each point become its increment, applied in
equal parts across the integrator substeps while the drift advances the
whole point batch with the shared classical Runge-Kutta stepper
(:func:`cdassim.sde.rk4_step`). The measurement update regenerates sigma
points from the predicted belief without noise augmentation and adds the
measurement-noise covariance to the predicted innovation covariance.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.linalg import chol_psd, solve_spd, symmetrize
from cdassim.sde import DivergenceError, SdeModel, per_input, rk4_step

__all__ = ["UkfScaling", "ukf_sigma_points", "ukf_predict", "ukf_update"]


@dataclass(frozen=True)
class UkfScaling:
    """Unscented-transform spread parameters (alpha, beta, kappa).

    No defaults: the config's ``ukf`` section supplies all three.
    """

    alpha: float
    beta: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")


@functools.lru_cache(maxsize=None)
def _weights(n: int, scaling: UkfScaling) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean and covariance weights and spread ``c`` of 2n+1 points, read-only and cached."""
    c = scaling.alpha**2 * (n + scaling.kappa)
    lam = c - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * c))
    wm[0] = lam / c
    wc = wm.copy()
    wc[0] += 1.0 - scaling.alpha**2 + scaling.beta
    wm.flags.writeable = wc.flags.writeable = False
    return wm, wc, c


def ukf_sigma_points(belief: GaussianBelief,
                     scaling: UkfScaling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2n+1 sigma points of a belief, as columns, with their weights.

    Returns ``(points, mean_weights, cov_weights)``; the weights are cached
    per dimension and scaling and are read-only.
    """
    n = belief.dim
    wm, wc, c = _weights(n, scaling)
    spread = np.sqrt(c) * chol_psd(belief.cov)
    pts = np.repeat(belief.mean[:, None], 2 * n + 1, axis=1)
    pts[:, 1:n + 1] += spread
    pts[:, n + 1:] -= spread
    return pts, wm, wc


def ukf_predict(model: SdeModel, belief: GaussianBelief, inputs: np.ndarray, t1: float,
                scaling: UkfScaling) -> GaussianBelief:
    """Propagate via noise-augmented sigma points to ``t1``.

    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`~cdassim.sde.rk4_inputs`), shape ``(substeps, 3, dim_u)``: one
    substep per row, of size ``(t1 - belief.time) / substeps``. Each
    point's total increment is split evenly across substeps, applied half
    before and half after the drift advance of the substep (the trapezoidal
    placement keeps the induced covariance second-order accurate in the
    substep size). The whole point set advances as one column batch and is
    recombined with the unscented weights. Each half-step push ``g dW``
    comes from :func:`~cdassim.sde.per_input`.
    """
    t0 = belief.time
    if t1 < t0:
        raise ValueError("cannot predict backwards in time")
    if t1 == t0:
        return belief
    n, q = belief.dim, model.dim_noise
    cov = np.zeros((n + q, n + q))
    cov[:n, :n] = belief.cov
    cov[n:, n:] = (t1 - t0) * np.eye(q)
    augmented = GaussianBelief(np.concatenate((belief.mean, np.zeros(q))), cov, t0)
    points, wm, wc = ukf_sigma_points(augmented, scaling)
    substeps = len(inputs)
    h = (t1 - t0) / substeps
    pts = points[:n]
    dW = points[n:] / (2.0 * substeps)  # half-increment per substep
    push = per_input(lambda u: np.asarray(model.diffusion(u), dtype=float) @ dW)

    for j, stage in enumerate(inputs):
        t = t0 + j * h
        pts = pts + push(stage[0])
        pts = rk4_step(model.drift, t, pts, h, stage)
        pts = model.constrain(pts + push(stage[2]))
    if not np.all(np.isfinite(pts)):
        raise DivergenceError(f"UKF sigma points diverged by t={t1}")
    m = pts @ wm
    dev = pts - m[:, None]
    P = symmetrize((dev * wc) @ dev.T)
    return GaussianBelief(m, P, t1)


def ukf_update(belief: GaussianBelief, model: SdeModel, y: np.ndarray, R: np.ndarray,
               scaling: UkfScaling) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """Unscented measurement update.

    Returns (posterior, innovation, innovation covariance). Sigma points
    are regenerated from the predicted belief without noise augmentation;
    the additive measurement noise enters through
    ``R_yy = sum W_c dy dy^T + R`` and the posterior covariance is
    ``P - K R_yy K^T``. Takes ``y`` ``(ny,)`` and ``R`` ``(ny, ny)`` as
    float arrays, as ``run_filter`` passes them.
    """
    t, m, P = belief.time, belief.mean, belief.cov
    points, wm, wc = ukf_sigma_points(belief, scaling)
    Y = np.atleast_2d(np.asarray(model.measure(t, points), dtype=float))
    yhat = Y @ wm
    dy = Y - yhat[:, None]
    dx = points - m[:, None]
    Ryy = symmetrize((dy * wc) @ dy.T + R)
    Rxy = (dx * wc) @ dy.T
    K = solve_spd(Ryy, Rxy.T).T
    e = y - yhat
    m_post = m + K @ e
    P_post = symmetrize(P - K @ Ryy @ K.T)
    if not np.all(np.isfinite(m_post)):
        raise DivergenceError(f"UKF update diverged at t={t}")
    return GaussianBelief(m_post, P_post, t), e, Ryy

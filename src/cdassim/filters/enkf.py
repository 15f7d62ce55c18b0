"""Ensemble Kalman filter with perturbed observations: the analysis step.

The prediction is the runner's Monte Carlo one, shared with the PF. The
analysis step perturbs the observation once per member with fresh
measurement noise, drawn as one ``(len(y), N)`` block from a generator
positioned at the start of its stream, estimates the cross and innovation
covariances from the sample deviations with 1/(N-1) normalization, adds the
measurement-noise covariance to the innovation covariance, and applies one
shared gain to every member.
"""
from __future__ import annotations

import numpy as np

from cdassim.filters.beliefs import Ensemble
from cdassim.filters.linalg import chol_psd, solve_spd
from cdassim.sde import SdeModel

__all__ = ["enkf_update"]


def enkf_update(ensemble: Ensemble, model: SdeModel, y: np.ndarray, R: np.ndarray,
                rng: np.random.Generator) -> tuple[Ensemble, np.ndarray, np.ndarray]:
    """Perturbed-observation analysis.

    Returns (posterior ensemble, innovation against the ensemble-mean
    prediction, innovation covariance), the runner's update contract; the
    runner summarizes the ensemble. Each member sees its own perturbed copy
    ``y + v_i`` with ``v_i ~ N(0, R)``, drawn from ``rng`` as one
    ``(ny, N)`` block. Takes ``y`` ``(ny,)`` and ``R`` ``(ny, ny)`` as float
    arrays, as ``run_filter`` passes them.
    """
    X = ensemble.members
    t = ensemble.time
    N = X.shape[1]

    Yp = np.atleast_2d(np.asarray(model.measure(t, X), dtype=float))
    if Yp.shape != (y.size, N):
        raise ValueError(f"measurement map returned {Yp.shape}, expected {(y.size, N)}")

    V = chol_psd(R) @ rng.standard_normal((y.size, N))
    E = (y[:, None] + V) - Yp  # per-member innovations

    yhat = Yp.sum(axis=1) / N  # bitwise Yp.mean(axis=1)
    Xd = X - (X.sum(axis=1) / N)[:, None]
    Yd = Yp - yhat[:, None]
    Rxy = (Xd @ Yd.T) / (N - 1)
    Ryy = (Yd @ Yd.T) / (N - 1) + R
    K = solve_spd(Ryy, Rxy.T).T
    return Ensemble(X + K @ E, t), y - yhat, Ryy

"""Shared sample-propagation machinery for the ensemble and particle filters.

Each propagation takes one counter-based :class:`NoiseStream` and draws the
Wiener increments of every member and substep from it as one
``(substeps, dim_noise, N)`` block. The operation is therefore a pure,
replayable function of its stream; callers give each role and assimilation
step its own stream, so no stream is consumed twice.
"""
from __future__ import annotations

import numpy as np

from cdassim.sde import DivergenceError, NoiseStream, SdeModel, euler_maruyama_step

__all__ = ["propagate_members"]


def propagate_members(model: SdeModel, X: np.ndarray, inputs: np.ndarray, t0: float,
                      t1: float, noise: NoiseStream) -> np.ndarray:
    """Euler-Maruyama propagation of column members from ``t0`` to ``t1``.

    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`~cdassim.sde.rk4_inputs`), shape ``(substeps, 3, dim_u)``:
    substep ``j`` runs on ``inputs[j, 0]``, the input at its start time.
    All increments come from one ``(substeps, dim_noise, N)`` standard-normal
    draw of ``noise``: substep ``j`` of member ``i`` uses ``block[j, :, i]``.
    The substep arithmetic is vectorized across members, which is equivalent
    to independent integration because members never interact.
    """
    if t1 < t0:
        raise ValueError("cannot propagate backwards in time")
    if t1 == t0:
        return X.copy()
    substeps = len(inputs)
    h = (t1 - t0) / substeps
    shape = (substeps, model.dim_noise, X.shape[1])
    draws = noise.generator().standard_normal(shape) * np.sqrt(h)

    X = X.copy()
    for j in range(substeps):
        t = t0 + j * h
        X = euler_maruyama_step(model, t, X, inputs[j, 0], h, draws[j])
        if model.constrain is not None:
            X = model.constrain(X)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
        raise DivergenceError(f"member {bad} diverged by t={t1}")
    return X

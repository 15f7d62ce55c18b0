"""Shared sample-propagation machinery for the ensemble and particle filters.

Each propagation takes one counter-based :class:`NoiseStream` and draws the
Wiener increments of every member and substep from it as one
``(substeps, dim_noise, N)`` block. The operation is therefore a pure,
replayable function of its stream; callers give each role and assimilation
step its own stream, so no stream is consumed twice.
"""
from __future__ import annotations

import numpy as np

from cdassim.filters.kalman import DivergenceError
from cdassim.sde import IntegrationError, NoiseStream, SdeModel, euler_maruyama_step, rk4_inputs

__all__ = ["propagate_members"]


def propagate_members(model: SdeModel, X: np.ndarray, u, t0: float, t1: float,
                      noise: NoiseStream, substeps: int) -> np.ndarray:
    """Euler-Maruyama propagation of column members from ``t0`` to ``t1``.

    All increments come from one ``(substeps, dim_noise, N)`` standard-normal
    draw of ``noise``: substep ``j`` of member ``i`` uses ``block[j, :, i]``.
    The substep arithmetic is vectorized across members, which is equivalent
    to independent integration because members never interact. Substep
    ``j`` runs on the input at its start time, the first stage of the
    :func:`~cdassim.sde.rk4_inputs` table of the interval, so ``u`` is looked
    up once per propagation.
    """
    if t1 < t0:
        raise ValueError("cannot propagate backwards in time")
    if t1 == t0:
        return X.copy()
    h = (t1 - t0) / substeps
    inputs = rk4_inputs(u, t0, h, substeps)[:, 0]
    shape = (substeps, model.dim_noise, X.shape[1])
    draws = noise.generator().standard_normal(shape) * np.sqrt(h)

    X = X.copy()
    for j in range(substeps):
        t = t0 + j * h
        try:
            X = euler_maruyama_step(model, t, X, inputs[j], h, draws[j])
        except IntegrationError as exc:
            raise DivergenceError(str(exc), time=exc.time) from exc
        if model.constrain is not None:
            X = model.constrain(X)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
        raise DivergenceError(f"member {bad} diverged by t={t1}", time=t1)
    return X

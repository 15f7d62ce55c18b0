"""Shared sample-propagation machinery for the ensemble and particle filters.

Each propagation takes one counter-based generator, positioned at the start
of its stream, and draws the Wiener increments of every member and substep
from it as one ``(substeps, dim_noise, N)`` block. The operation is
therefore a pure, replayable function of that stream. The runner builds one
generator per noise role per run and seats it (:meth:`NoiseStream.seat
<cdassim.sde.NoiseStream.seat>`) at ``stream.child(role).child(k)`` before
step ``k``, so no stream is consumed twice.
"""
from __future__ import annotations

import numpy as np

from cdassim.sde import DivergenceError, SdeModel

__all__ = ["propagate_members"]


def propagate_members(model: SdeModel, X: np.ndarray, inputs: np.ndarray, t0: float,
                      t1: float, rng: np.random.Generator) -> np.ndarray:
    """Euler-Maruyama propagation of column members from ``t0`` to ``t1``.

    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`~cdassim.sde.rk4_inputs`), shape ``(substeps, 3, dim_u)``:
    substep ``j`` runs on ``inputs[j, 0]``, the input at its start time.
    All increments come from one ``(substeps, dim_noise, N)`` standard-normal
    draw of ``rng``: substep ``j`` of member ``i`` uses ``block[j, :, i]``.
    The substep arithmetic is vectorized across members, which is equivalent
    to independent integration because members never interact.

    Each substep is ``x + f dt + g dw`` in that order, computed in place on
    one copy of ``X``, followed by the model's ``constrain``. The diffusion
    depends only on the input (the :class:`~cdassim.sde.SdeModel` diffusion
    contract), so it is evaluated and checked once per distinct input value
    of the interval. A non-finite drift at a substep, or a non-finite
    diffusion at the first substep with its input, raises
    :class:`~cdassim.sde.DivergenceError` naming that substep's start time.
    """
    if t1 < t0:
        raise ValueError("cannot propagate backwards in time")
    if t1 == t0:
        return X.copy()
    substeps = len(inputs)
    h = (t1 - t0) / substeps
    draws = rng.standard_normal((substeps, model.dim_noise, X.shape[1]))
    draws *= np.sqrt(h)

    # C order, as X.copy() gives: the summaries' products round by memory layout
    X = np.array(X, dtype=float, order="C")
    fh = np.empty_like(X)
    gdw = np.empty_like(X)
    # with one channel g dw is one product per entry, bitwise the matmul
    push = np.multiply if model.dim_noise == 1 else np.matmul
    diffusions = {}  # g by input value
    for j in range(substeps):
        t = t0 + j * h
        u = inputs[j, 0]
        f = np.asarray(model.drift(t, X, u), dtype=float)
        key = u.tobytes()
        g = diffusions.get(key)
        if g is None:
            g = diffusions[key] = np.asarray(model.diffusion(t, X, u), dtype=float)
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite drift/diffusion at t={t}")
        if not np.isfinite(f).all():
            raise DivergenceError(f"non-finite drift/diffusion at t={t}")
        X += np.multiply(f, h, out=fh)
        X += push(g, draws[j], out=gdw)
        if model.constrain is not None:
            X = model.constrain(X)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
        raise DivergenceError(f"member {bad} diverged by t={t1}")
    return X

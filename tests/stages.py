"""Test-side helpers for the model contract.

:func:`cdassim.filters.runner.run_filter` looks up one
:func:`cdassim.sde.rk4_inputs` table per run and hands each prediction its
interval's rows; a test that calls a prediction directly builds the
one-interval table with :func:`interval_inputs`. Every input is a
:class:`~cdassim.sde.PiecewiseConstant`; :func:`constant` is the
one-breakpoint profile of a fixed input. :func:`fd_jacobian` is the
central-difference reference that closed-form Jacobians are checked against.
"""
import numpy as np

from cdassim.sde import PiecewiseConstant, rk4_inputs


def constant(u=()) -> PiecewiseConstant:
    """Input profile that holds ``u`` at every time; empty ``u`` for an input-free model."""
    return PiecewiseConstant(times=[0.0], values=[np.atleast_1d(np.asarray(u, dtype=float))])


def interval_inputs(u: PiecewiseConstant, t0: float, t1: float, substeps: int = 10):
    """Rows ``(substeps, 3, dim_u)`` of ``u`` for the interval from ``t0`` to ``t1``."""
    return rk4_inputs(u, [t0], [(t1 - t0) / substeps], substeps)[0]


def fd_jacobian(fun, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-component step ``rel_step * max(1, |x_i|)``."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fun(xp), dtype=float) - np.asarray(fun(xm), dtype=float)) / (2 * h)
    return J

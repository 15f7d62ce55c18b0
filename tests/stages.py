"""Test-side helpers for the model contract.

:func:`cdassim.filters.runner.run_filter` looks up one
:func:`cdassim.sde.rk4_inputs` table per run and hands each prediction its
interval's rows; a test that calls a prediction directly builds the
one-interval table with :func:`interval_inputs`. Every input is a
:class:`~cdassim.sde.PiecewiseConstant`; :func:`constant` is the
one-breakpoint profile of a fixed input. :func:`fd_jacobian` is the
central-difference reference that closed-form Jacobians are checked against.

The filter settings have no defaults in the package; the experiment config
is their one source. :data:`FILTER_SETTINGS` names, per filter kind, the
ones the unit tests run on, and only those that kind reads besides the
initial belief, the measurement covariance and the noise stream: 10
integrator substeps for every kind, the unscented transform at
:data:`UNIT_SCALING` (alpha 1, where the packaged config has 0.2) for the
UKF, 1000 members for the EnKF and the PF, and :data:`ESS_HALF` resampling
for the PF.
"""
import numpy as np

from cdassim.filters.pf import ResamplePolicy
from cdassim.filters.unscented import UkfScaling
from cdassim.sde import PiecewiseConstant, rk4_inputs

UNIT_SCALING = UkfScaling(alpha=1.0, beta=2.0, kappa=0.0)
ESS_HALF = ResamplePolicy(kind="ess", threshold=0.5)  # resample when ESS < N / 2
FILTER_SETTINGS = {
    "ekf": {"substeps": 10},
    "ukf": {"substeps": 10, "scaling": UNIT_SCALING},
    "enkf": {"substeps": 10, "size": 1000},
    "pf": {"substeps": 10, "size": 1000, "resample": ESS_HALF},
}


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

"""Stage-input rows of one prediction interval, for calling a prediction alone.

:func:`cdassim.filters.runner.run_filter` looks up one
:func:`cdassim.sde.rk4_inputs` table per run and hands each prediction its
interval's rows; a test that calls a prediction directly builds the
one-interval table here.
"""
from cdassim.sde import rk4_inputs


def interval_inputs(u, t0: float, t1: float, substeps: int = 10):
    """Rows ``(substeps, 3, dim_u)`` of ``u`` for the interval from ``t0`` to ``t1``."""
    return rk4_inputs(u, [t0], [(t1 - t0) / substeps], substeps)[0]

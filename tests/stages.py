"""Test-side helpers for the model contract, and the shared test model and config.

:func:`cdassim.filters.runner.run_filter` looks up one
:func:`cdassim.sde.rk4_inputs` table per run and hands each prediction its
interval's rows; a test that calls a prediction directly builds the
one-interval table with :func:`interval_inputs`. Every input is a
:class:`~cdassim.sde.PiecewiseConstant`; :func:`constant` is the
one-breakpoint profile of a fixed input. :func:`fd_jacobian` is the
central-difference reference that closed-form Jacobians are checked against,
and :func:`euler_maruyama_path` the plain Euler-Maruyama stepper that the
members' kernel, :func:`cdassim.sde.propagate_members`, is checked against
and that the order study and the test truths run on.

:func:`linear_sde` builds the one linear test SDE, a scalar
Ornstein-Uhlenbeck process driven by its input, on which the filters are
checked against closed forms. :data:`SMALL_CONFIG` is the experiment-config
override of the command and harness tests: the default 10 s sampling on a
shorter horizon with smaller ensembles.

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
from cdassim.sde import NoiseStream, PiecewiseConstant, SdeModel, rk4_inputs

SMALL_CONFIG = {
    "horizon_minutes": 5.0,
    "n_samples": 30,
    "monte_carlo": {"ensemble_size": 50, "particle_count": 100,
                    "oracle_particle_count": 1000},
}

UNIT_SCALING = UkfScaling(alpha=1.0, beta=2.0, kappa=0.0)
ESS_HALF = ResamplePolicy(kind="ess", threshold=0.5)  # resample when ESS < N / 2
FILTER_SETTINGS = {
    "ekf": {"substeps": 10},
    "ukf": {"substeps": 10, "scaling": UNIT_SCALING},
    "enkf": {"substeps": 10, "size": 1000},
    "pf": {"substeps": 10, "size": 1000, "resample": ESS_HALF},
}


def linear_sde(a: float, sigma: float) -> SdeModel:
    """The scalar SDE ``dx = (u - a x) dt + sigma dw``, measured directly.

    The input ``u`` is a 1-vector, so the model runs on a profile such as
    ``constant(b)``; its linearization and measurement Jacobian are exact.
    """
    return SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: -a * x + u,
        diffusion=lambda u: np.array([[sigma]]),
        measure=lambda t, x: x,
        linearize=lambda t, x, u: np.vstack((-a * x + u, [[-a]])),
        measure_jacobian=lambda t, x: np.array([[1.0]]),
    )


def constant(u=()) -> PiecewiseConstant:
    """Input profile that holds ``u`` at every time; empty ``u`` for an input-free model."""
    return PiecewiseConstant(times=[0.0], values=[np.atleast_1d(np.asarray(u, dtype=float))])


def interval_inputs(u: PiecewiseConstant, t0: float, t1: float, substeps: int = 10):
    """Rows ``(substeps, 3, dim_u)`` of ``u`` for the interval from ``t0`` to ``t1``."""
    return rk4_inputs(u, t0, [t1], substeps)[0]


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


def euler_maruyama_path(model: SdeModel, x0, u: PiecewiseConstant, t0: float, t1: float,
                        dt: float, noise: NoiseStream, diffusion=None):
    """Euler-Maruyama sample path of ``model`` on the grid ``t0, t0 + dt, ..., t1``.

    ``x0`` is one state ``(n,)`` or a column batch ``(n, m)``. One block of
    standard normals, of shape ``(steps, dim_noise)`` followed by the batch
    width, comes from a fresh generator of ``noise`` and is scaled by
    ``sqrt(dt)``; step ``i`` is ``x + f dt + g @ dw`` with ``f``, ``g`` and
    ``u`` evaluated at its start time, followed by the model's
    ``constrain``. ``g`` is the model's ``diffusion(u)``, evaluated at every
    step, unless ``diffusion``, a ``sigma(t, x, u)`` that may depend on the
    state, is given: the order study's multiplicative noise, which no
    integrator of the package accepts. Returns the grid and the states on
    it, one row (or one ``(n, m)`` block) per time.
    """
    steps = int(round((t1 - t0) / dt))
    times = t0 + dt * np.arange(steps + 1)
    times[-1] = t1
    x = np.array(x0, dtype=float)
    dws = noise.generator().standard_normal((steps, model.dim_noise, *x.shape[1:]))
    dws *= np.sqrt(dt)
    states = np.empty((steps + 1, *x.shape))
    states[0] = x
    for i, t in enumerate(times[:-1]):
        ut = u.at(t)
        g = model.diffusion(ut) if diffusion is None else diffusion(t, x, ut)
        x = x + model.drift(t, x, ut) * dt + g @ dws[i]
        states[i + 1] = x = model.constrain(x)
    return times, states

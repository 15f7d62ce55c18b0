"""Adiabatic CSTR benchmark: second-order exothermic reaction A + 2B -> products.

Provides the 3-state stochastic model (concentrations CA, CB and temperature
T with diffusion on T only), reduced 2-state (extent of reaction, T) and
1-state (T) deterministic approximations, the steady-state flow/temperature
curve with its ignition fold, analytic Jacobians, and the joint
state-and-parameter estimation model. The joint model is the paper's: the
heat-rise coefficient beta is a fourth state (CA, CB, T, beta) with zero
drift. It is one plain :class:`~cdassim.sde.SdeModel` whose drift and
Jacobian kernels read beta from the state's fourth row, so a single
evaluation serves any value of the parameter, for one state or a column
batch.

The twin experiment's values (initial states, the true and guessed beta,
sigma_T, the observation variance and the flow schedule) live only in the
packaged ``data/default_config.json``; :mod:`cdassim.config` turns them into
:class:`CstrParams` and the flow profile. This module holds the reactor's
physical constants alone.

Units: seconds, Kelvin, mol/L, L/s throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cdassim.sde import PiecewiseConstant, SdeModel

__all__ = [
    "CstrParams",
    "SteadyStateRangeError",
    "CstrExperiment",
    "rate_constant",
    "cstr3_drift",
    "cstr3_linearize",
    "cstr2_drift",
    "cstr1_drift",
    "adiabatic_concentrations",
    "steady_state_range",
    "steady_state_flow",
    "steady_state_curve",
    "cstr3_model",
    "default_experiment_model",
]


class SteadyStateRangeError(ValueError):
    """Requested steady-state temperature leaves the physical branch."""


@dataclass(frozen=True, kw_only=True)
class CstrParams:
    """Reactor constants.

    ``beta`` is the adiabatic heat-rise coefficient in K.L/mol; its sign
    encodes the reaction type (positive for exothermic). ``beta`` and
    ``sigma_T`` belong to the twin experiment and have no default: the
    config supplies both (:meth:`cdassim.config.ExperimentConfig.cstr_params`).
    """

    rho: float = 1.0            # kg/L
    cp: float = 4.186           # kJ/(kg K)
    k0: float = math.exp(24.6)  # L/(mol s)
    EaR: float = 8500.0         # K
    V: float = 0.105            # L
    CA_in: float = 0.8          # mol/L
    CB_in: float = 1.2          # mol/L
    T_in: float = 273.65        # K
    beta: float                 # K L/mol
    sigma_T: float              # K

    def __post_init__(self):
        for name in ("rho", "cp", "k0", "EaR", "V", "CA_in", "CB_in", "T_in"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.beta == 0:
            raise ValueError("beta must be nonzero (adiabatic relations divide by it)")
        if self.sigma_T < 0:
            raise ValueError("sigma_T must be non-negative")

    @cached_property
    def inlet(self) -> np.ndarray:
        """Feed ``(CA_in, CB_in, T_in)`` as a read-only ``(3, 1)`` column."""
        column = np.array([[self.CA_in], [self.CB_in], [self.T_in]])
        column.setflags(write=False)
        return column

    @cached_property
    def reaction_column(self) -> np.ndarray:
        """``(1, 2, -beta)`` as a read-only ``(3, 1)`` column: the 3-state
        rates are the flow terms less this times the reaction rate."""
        column = np.array([[1.0], [2.0], [-self.beta]])
        column.setflags(write=False)
        return column


def rate_constant(T, params: CstrParams):
    """Arrhenius rate k(T) = k0 exp(-EaR / T); broadcasts over T."""
    return params.k0 * np.exp(-params.EaR / np.asarray(T, dtype=float))


def cstr3_drift(x, F, params: CstrParams):
    """Deterministic rates of the 3-state model, or of the joint 4-state model.

    ``x`` is ``(CA, CB, T)`` or the joint ``(CA, CB, T, beta)``, as an array
    of shape ``(n,)`` or a column batch ``(n, m)``. A fourth row is the
    heat-rise coefficient: it replaces ``params.beta`` and its rate is zero.

    ``x.ndim`` alone picks the path: a single state is worked on Python
    floats, a batch with one ``exp`` over its temperature row, the reaction
    rate ``r`` built in place and the three flow terms as one ``(3, m)``
    block against the cached :attr:`CstrParams.inlet`, less
    ``(1, 2, -beta) r``. Both keep the per-element operation order of
    ``FV * (inlet - x) - r`` with ``FV = F / V`` and
    ``r = k0 exp(-EaR / T) CA CB`` (Python floats round exactly as numpy
    scalars do, and subtracting ``-beta r`` is exactly adding ``beta r``), so
    a rate is bitwise the same whichever path or batch computes it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        CA, CB, T, *rest = x.tolist()
        FV = float(F) / params.V
        # numpy's exp, not math.exp: the two differ in the last bit of some values
        r = params.k0 * float(np.exp(-params.EaR / T)) * CA * CB  # reaction rate, mol/(L s)
        beta = rest[0] if rest else params.beta
        f = [FV * (params.CA_in - CA) - r,
             FV * (params.CB_in - CB) - 2.0 * r,
             FV * (params.T_in - T) + beta * r]
        if rest:
            f.append(0.0)
        return np.array(f)
    r = np.divide(-params.EaR, x[2])
    np.exp(r, out=r)
    np.multiply(params.k0, r, out=r)
    r *= x[0]
    r *= x[1]
    out = np.empty(x.shape)
    flow = out[:3]
    np.subtract(params.inlet, x[:3], out=flow)
    np.multiply(F / params.V, flow, out=flow)
    coef = params.reaction_column
    if len(x) > 3:  # joint state: beta per column, zero rate
        coef = np.empty((3, x.shape[1]))
        coef[:2] = params.reaction_column[:2]
        np.negative(x[3], out=coef[2])
        out[3] = 0.0
    flow -= coef * r
    return out


def cstr3_linearize(x, F, params: CstrParams) -> tuple[np.ndarray, np.ndarray]:
    """Rates of :func:`cstr3_drift` and their analytic state Jacobian at one state.

    ``x`` is ``(CA, CB, T)`` or the joint ``(CA, CB, T, beta)``, shape
    ``(n,)``; returns ``(f, A)`` with shapes ``(n,)`` and ``(n, n)``. Both
    come from a single ``exp(-EaR/T)``, with dk/dT = k EaR/T^2, worked on
    Python floats, which round exactly as numpy scalars do, so ``f`` is
    bitwise :func:`cstr3_drift`. For the joint state the beta column holds
    d(dT/dt)/d(beta), the reaction rate, and the beta row is zero.
    """
    CA, CB, T, *rest = x.tolist()
    n = len(x)
    beta = rest[0] if rest else params.beta
    FV = float(F) / params.V
    # numpy's exp, not math.exp: the two differ in the last bit of some values
    k = params.k0 * float(np.exp(-params.EaR / T))
    kp = k * params.EaR / (T * T)
    kCA = k * CA
    kCB = k * CB
    kpAB = kp * CA * CB
    r = kCA * CB  # reaction rate, mol/(L s)
    f = [FV * (params.CA_in - CA) - r,
         FV * (params.CB_in - CB) - 2.0 * r,
         FV * (params.T_in - T) + beta * r]
    A = [-FV - kCB, -kCA, -kpAB,
         -2.0 * kCB, -FV - 2.0 * kCA, -2.0 * kpAB,
         beta * kCB, beta * kCA, -FV + beta * kpAB]
    if rest:  # beta: zero rate, the reaction rate as its column, a zero row
        v = [*f, 0.0, *A[0:3], 0.0, *A[3:6], 0.0, *A[6:9], r, 0.0, 0.0, 0.0, 0.0]
    else:
        v = f + A
    # one (n + 1, n) array: the rates, then the Jacobian rows
    v = np.array(v).reshape(n + 1, n)
    return v[0], v[1:]


def cstr2_drift(X, T, F, params: CstrParams) -> np.ndarray:
    """Reduced 2-state rates in (extent of reaction, temperature).

    X = (CB_in - CB)/CB_in recovers CB = CB_in (1 - X) and, by stoichiometry,
    CA = CA_in - (CB_in / 2) X.
    """
    CA = params.CA_in - 0.5 * params.CB_in * X
    CB = params.CB_in * (1.0 - X)
    FV = F / params.V
    r = rate_constant(T, params) * CA * CB
    return np.array([
        -FV * X + 2.0 * r / params.CB_in,
        FV * (params.T_in - T) + params.beta * r,
    ])


def adiabatic_concentrations(T, params: CstrParams):
    """Concentrations implied by temperature along the adiabatic branch."""
    rise = (np.asarray(T, dtype=float) - params.T_in) / params.beta
    return params.CA_in - rise, params.CB_in - 2.0 * rise


def cstr1_drift(T, F, params: CstrParams) -> float:
    """Reduced 1-state temperature rate with CA, CB eliminated adiabatically."""
    CA, CB = adiabatic_concentrations(T, params)
    r = rate_constant(T, params) * CA * CB
    return F / params.V * (params.T_in - T) + params.beta * r


def steady_state_range(params: CstrParams) -> tuple[float, float]:
    """Open interval of temperatures with a physical steady state.

    Above T_in the inflow can balance the heat release; the upper end is
    where the limiting feed concentration is exhausted.
    """
    span = params.beta * min(params.CA_in, 0.5 * params.CB_in)
    return params.T_in, params.T_in + span


def steady_state_flow(T_s: float, params: CstrParams) -> float:
    """Flow rate holding the reactor at temperature ``T_s``.

    Setting the three rates to zero couples the states through the adiabatic
    relations and leaves F_s = V beta k(T_s) CA(T_s) CB(T_s) / (T_s - T_in).
    """
    lo, hi = steady_state_range(params)
    if not lo < T_s < hi:
        raise SteadyStateRangeError(
            f"T_s={T_s} is outside the admissible branch ({lo:.4f}, {hi:.4f})"
        )
    CA, CB = adiabatic_concentrations(T_s, params)
    if CA <= 0 or CB <= 0:  # unreachable for sane params, cheap to keep
        raise SteadyStateRangeError(f"T_s={T_s} exhausts the feed")
    k = rate_constant(T_s, params)
    return params.V * params.beta * k * CA * CB / (T_s - params.T_in)


def steady_state_curve(params: CstrParams, n: int = 400,
                       margin: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Sample the steady-state flow curve F_s(T_s) across the admissible range.

    ``margin`` (K) keeps the grid off both open endpoints, where F_s blows
    up (lower) or the feed runs out (upper). The curve is non-monotonic:
    the fold between its local extrema is what makes ignition possible.
    """
    lo, hi = steady_state_range(params)
    if n < 2:
        raise ValueError("need at least two curve points")
    if 2 * margin >= hi - lo:
        raise ValueError("margin leaves no admissible temperatures")
    T_s = np.linspace(lo + margin, hi - margin, n)
    F_s = np.array([steady_state_flow(float(T), params) for T in T_s])
    return T_s, F_s


def _clamp_concentrations(x):
    # noise and measurement updates can push CA, CB slightly negative
    np.maximum(x[:2], 0.0, out=x[:2])
    return x


def _cstr_sde(params: CstrParams, dim_state: int, param_sigma: float = 0.0) -> SdeModel:
    """CSTR SDE on (CA, CB, T) or the joint (CA, CB, T, beta) state.

    Diffusion is (F/V) sigma_T on T, plus a second channel of constant
    intensity ``param_sigma`` on beta when that is positive; the measurement
    is T, with a constant Jacobian.
    """
    dim_noise = 2 if param_sigma > 0 else 1
    H = np.zeros((1, dim_state))
    H[0, 2] = 1.0
    H.setflags(write=False)

    def diffusion(t, x, u):
        g = np.zeros((dim_state, dim_noise))
        g[2, 0] = u[0] / params.V * params.sigma_T
        if dim_noise == 2:
            g[3, 1] = param_sigma
        return g

    return SdeModel(
        dim_state=dim_state,
        dim_noise=dim_noise,
        dim_obs=1,
        drift=lambda t, x, u: cstr3_drift(x, u[0], params),
        diffusion=diffusion,
        measure=lambda t, x: x[2:3],
        linearize=lambda t, x, u: cstr3_linearize(x, u[0], params),
        measure_jacobian=lambda t, x: H,
        constrain=_clamp_concentrations,
    )


def cstr3_model(params: CstrParams) -> SdeModel:
    """3-state SDE with temperature-only diffusion (F/V) sigma_T.

    The input ``u`` is the 1-vector flow rate, typically the config's
    :class:`~cdassim.sde.PiecewiseConstant` flow profile.
    """
    return _cstr_sde(params, 3)


@dataclass(frozen=True)
class CstrExperiment:
    """The joint estimation model and the flow profile that drives it."""

    model: SdeModel
    flow: PiecewiseConstant


def default_experiment_model(params: CstrParams, flow: PiecewiseConstant,
                             param_diffusion: float) -> CstrExperiment:
    """Joint state-and-parameter estimation model for the CSTR twin experiment.

    The model state is (CA, CB, T, beta): beta rides along as a fourth state
    with zero drift. With ``param_diffusion`` zero, beta carries no process
    noise and the model keeps a single noise channel; a positive value adds
    a random-walk channel of that intensity on beta.
    """
    if param_diffusion < 0:
        raise ValueError("param_diffusion must be non-negative")
    return CstrExperiment(model=_cstr_sde(params, 4, param_diffusion), flow=flow)

"""Adiabatic CSTR benchmark: second-order exothermic reaction A + 2B -> products.

Provides the paper's stochastic model, on the joint state (CA, CB, T, beta):
the concentrations, the temperature with diffusion on T only, and the
heat-rise coefficient beta as a fourth state with zero drift. It is one
plain :class:`~cdassim.sde.SdeModel` whose drift and Jacobian kernels read
beta from the state's fourth row, so a single evaluation serves any value
of the parameter. The drift takes column batches only, so one state, such
as the truth's, is a ``(4, 1)`` column; the EKF's linearization takes one
``(4,)`` state. The filters run the model with an optional random-walk
channel on beta; the twin experiment's truth runs it without one, so its
beta stays at the configured value. Beside it: reduced 2-state (extent of
reaction, T) and 1-state (T) deterministic approximations, the steady-state
flow/temperature curve with its ignition fold, and analytic Jacobians.

The twin experiment's values (initial states, the true and guessed beta,
sigma_T, the observation variance and the flow schedule) live only in the
packaged ``data/default_config.json``; :mod:`cdassim.config` turns them into
:class:`CstrParams` and the flow profile. This module holds the reactor's
physical constants alone.

Units: seconds, Kelvin, mol/L, L/s throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cdassim.sde import PiecewiseConstant, SdeModel

__all__ = [
    "CstrParams",
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
    "default_experiment_model",
]


@dataclass(frozen=True, kw_only=True)
class CstrParams:
    """Reactor constants.

    ``beta`` is the adiabatic heat-rise coefficient in K.L/mol; its sign
    encodes the reaction type (positive for exothermic). The joint model's
    kernels read beta from the state, so ``beta`` here serves only the
    reduced models and the steady-state curve. ``beta`` and ``sigma_T``
    belong to the twin experiment and have no default: the config supplies
    both (:meth:`cdassim.config.ExperimentConfig.cstr_params`).
    """

    k0: float = math.exp(24.6)  # L/(mol s)
    EaR: float = 8500.0         # K
    V: float = 0.105            # L
    CA_in: float = 0.8          # mol/L
    CB_in: float = 1.2          # mol/L
    T_in: float = 273.65        # K
    beta: float                 # K L/mol
    sigma_T: float              # K

    def __post_init__(self):
        for name in ("k0", "EaR", "V", "CA_in", "CB_in", "T_in"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.beta == 0:
            raise ValueError("beta must be nonzero (adiabatic relations divide by it)")
        if self.sigma_T < 0:
            raise ValueError("sigma_T must be non-negative")

    # per batch width m > 1: the read-only (4, m) feed [CA_in, CB_in, T_in, 0]
    # and (3, m) reaction signs [-1, -2, 0], so that no drift op broadcasts a
    # column; one column takes the float rates of cstr3_linearize and no table
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def width_tables(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The drift's feed and sign tables for width ``m``, built on first use."""
        feed = np.repeat([[self.CA_in], [self.CB_in], [self.T_in], [0.0]], m, axis=1)
        signs = np.repeat([[-1.0], [-2.0], [0.0]], m, axis=1)
        feed.setflags(write=False)
        signs.setflags(write=False)
        self.tables[m] = feed, signs
        return feed, signs


def rate_constant(T, params: CstrParams):
    """Arrhenius rate k(T) = k0 exp(-EaR / T); broadcasts over T."""
    # np.float64 reads T as np.asarray(T, dtype=float) does, but one value
    # becomes a scalar, whose arithmetic costs far less than a 0-d array's
    return params.k0 * np.exp(-params.EaR / np.float64(T))


def cstr3_drift(x, F, params: CstrParams):
    """Deterministic rates of the joint model at each column ``(CA, CB, T, beta)`` of ``x``.

    ``x`` is a column batch of shape ``(4, m)``; a single state, such as the
    truth's, is the ``(4, 1)`` column. Beta is read from the fourth row, and
    its rate is zero; ``params.beta`` is not used.

    One column takes row 0 of :func:`cstr3_linearize`, its rates worked on
    Python floats, as a fresh ``(4, 1)`` column: for four numbers that costs
    less than the eleven ufunc calls below, and it builds no constant table.

    A wider batch runs one ``exp`` over the temperature row and builds the
    reaction rate ``r`` in place; every other op works on whole row blocks
    against the feed and sign tables that :meth:`CstrParams.width_tables`
    keeps per width, because broadcasting a ``(4, 1)`` column across a wide
    batch costs more than the arithmetic. The three state rows get
    ``FV * (feed - x) + signs * r``, with the temperature row's reaction
    term replaced by ``beta r``, and the beta row gets zero. Since
    ``a + (-b)`` is ``a - b`` and ``(-2) r`` is ``-(2 r)`` exactly, each
    element keeps the rounding of ``FV * (feed - x) - r`` with
    ``FV = F / V`` and ``r = k0 exp(-EaR / T) CA CB``, so a column's rates
    are bitwise the same in any batch, one column included.
    """
    m = x.shape[1]
    if m == 1:
        return cstr3_linearize(x[:, 0], F, params)[0, :, None]
    feed, signs = params.tables.get(m) or params.width_tables(m)
    r = np.divide(-params.EaR, x[2])
    np.exp(r, out=r)
    np.multiply(params.k0, r, out=r)
    r *= x[0]
    r *= x[1]
    out = np.subtract(feed, x)
    flow = out[:3]
    flow *= F / params.V
    react = np.multiply(signs, r)
    np.multiply(x[3], r, out=react[2])
    flow += react
    out[3] = 0.0
    return out


def cstr3_linearize(x, F, params: CstrParams) -> np.ndarray:
    """Rates of :func:`cstr3_drift` and their analytic state Jacobian at one state.

    ``x`` is ``(CA, CB, T, beta)``, shape ``(4,)``; returns one fresh
    ``(5, 4)`` block ``[f; A]``: the rates in row 0, then the Jacobian rows,
    the layout of the EKF's moment block ``[m; P]``. Both come from a single
    ``exp(-EaR/T)``, with dk/dT = k EaR/T^2, worked on Python floats, which
    round exactly as numpy scalars do, so row 0 is bitwise the column of
    :func:`cstr3_drift` in any batch. The EKF calls it for its moment
    stages, and :func:`cstr3_drift` for a single column's rates.
    The beta column holds d(dT/dt)/d(beta), the reaction rate, and the beta
    row is zero. Where ``T * T`` is zero the rates are computed on numpy
    scalars, whose division by zero gives IEEE's infinities where Python's
    float division raises: the rates are then the batch kernel's (at T = 0,
    r = 0), and dk/dT is not finite.
    """
    CA, CB, T, beta = x.tolist()
    TT = T * T
    if TT == 0.0:
        T = np.float64(T)
        TT = T * T
    FV = float(F) / params.V
    # numpy's exp, not math.exp: the two differ in the last bit of some values
    k = params.k0 * float(np.exp(-params.EaR / T))
    kp = k * params.EaR / TT
    kCA = k * CA
    kCB = k * CB
    kpAB = kp * CA * CB
    r = kCA * CB  # reaction rate, mol/(L s)
    return np.array([FV * (params.CA_in - CA) - r,
                     FV * (params.CB_in - CB) - 2.0 * r,
                     FV * (params.T_in - T) + beta * r,
                     0.0,
                     -FV - kCB, -kCA, -kpAB, 0.0,
                     -2.0 * kCB, -FV - 2.0 * kCA, -2.0 * kpAB, 0.0,
                     beta * kCB, beta * kCA, -FV + beta * kpAB, r,
                     0.0, 0.0, 0.0, 0.0]).reshape(5, 4)


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
    rise = (np.float64(T) - params.T_in) / params.beta  # as in rate_constant
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
        raise ValueError(
            f"T_s={T_s} is outside the admissible branch ({lo:.4f}, {hi:.4f})"
        )
    CA, CB = adiabatic_concentrations(T_s, params)
    k = rate_constant(T_s, params)
    return params.V * params.beta * k * CA * CB / (T_s - params.T_in)


def steady_state_curve(params: CstrParams) -> tuple[np.ndarray, np.ndarray]:
    """Sample the steady-state flow curve F_s(T_s) across the admissible range.

    400 temperatures, kept a margin of 0.25 K off both open endpoints, where
    F_s blows up (lower) or the feed runs out (upper). The curve is
    non-monotonic: the fold between its local extrema is what makes
    ignition possible.
    """
    lo, hi = steady_state_range(params)
    margin = 0.25
    if 2 * margin >= hi - lo:
        raise ValueError("margin leaves no admissible temperatures")
    T_s = np.linspace(lo + margin, hi - margin, 400)
    F_s = np.array([steady_state_flow(float(T), params) for T in T_s])
    return T_s, F_s


def _clamp_concentrations(x):
    # noise and measurement updates can push CA, CB slightly negative
    v = x[:2]
    np.maximum(v, 0.0, out=v)
    return x


@dataclass(frozen=True)
class CstrExperiment:
    """The joint estimation model and the flow profile that drives it."""

    model: SdeModel
    flow: PiecewiseConstant


def default_experiment_model(params: CstrParams, flow: PiecewiseConstant,
                             param_diffusion: float) -> CstrExperiment:
    """The CSTR SDE on the joint state (CA, CB, T, beta), with its flow profile.

    Beta rides along as a fourth state with zero drift. Diffusion is
    (F/V) sigma_T on T; with ``param_diffusion`` zero, beta carries no
    process noise and the model keeps that single noise channel, which is
    how the truth runs it. A positive value adds a random-walk channel of
    that intensity on beta. The measurement is T, with a constant Jacobian.
    The input ``u`` is the 1-vector flow rate.
    """
    if param_diffusion < 0:
        raise ValueError("param_diffusion must be non-negative")
    dim_noise = 2 if param_diffusion > 0 else 1
    H = np.array([[0.0, 0.0, 1.0, 0.0]])
    H.setflags(write=False)

    def diffusion(u):
        g = np.zeros((4, dim_noise))
        g[2, 0] = u[0] / params.V * params.sigma_T
        if dim_noise == 2:
            g[3, 1] = param_diffusion
        return g

    model = SdeModel(
        dim_state=4,
        dim_noise=dim_noise,
        drift=lambda t, x, u: cstr3_drift(x, u[0], params),
        diffusion=diffusion,
        measure=lambda t, x: x[2:3],
        linearize=lambda t, x, u: cstr3_linearize(x, u[0], params),
        measure_jacobian=lambda t, x: H,
        constrain=_clamp_concentrations,
    )
    return CstrExperiment(model=model, flow=flow)

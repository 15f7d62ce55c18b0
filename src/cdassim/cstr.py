"""Adiabatic CSTR benchmark: second-order exothermic reaction A + 2B -> products.

Provides the paper's stochastic model, on the joint state (CA, CB, T, beta):
the concentrations, the temperature with diffusion on T only, and the
heat-rise coefficient beta as a fourth state with zero drift. It is one
plain :class:`~cdassim.sde.SdeModel` whose drift and Jacobian kernels read
beta from the state's fourth row, so a single evaluation serves any value
of the parameter. The drift takes column batches, the filters' members and
sigma points; :func:`cstr3_rates` works one state's rates on Python floats
and is the one single-state copy of the rate law: the EKF's linearization,
the twin experiment's truth, the reduced-model comparison and the
steady-state curve all read it. The filters run the model with an optional
random-walk channel on beta; the truth steps the same equations without
one, so its beta stays at the configured value.

The reduced 2-state (extent of reaction, T) and 1-state (T) models, and the
steady-state flow/temperature curve with its ignition fold, are this
reactor held on its adiabatic invariants: 2 CA - CB stays at its feed value,
and T - T_IN = beta (CA_IN - CA). They map their states to concentrations
(:func:`adiabatic_concentrations` for the 1-state model and the curve) and
evaluate :func:`cstr3_rates` there, with beta at ``CstrParams.beta``.

The twin experiment's values (initial states, the true and guessed beta,
sigma_T, the observation variance and the flow schedule) live only in the
packaged ``data/default_config.json``; :mod:`cdassim.config` turns them into
:class:`CstrParams` and the flow profile. The reactor's physical constants
are this module's constants, which every kernel reads directly.

Units: seconds, Kelvin, mol/L, L/s throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cdassim.sde import PiecewiseConstant, SdeModel

__all__ = [
    "K0", "EA_R", "V", "CA_IN", "CB_IN", "T_IN",
    "CstrParams",
    "CstrExperiment",
    "cstr3_rates",
    "cstr3_drift",
    "cstr3_linearize",
    "adiabatic_concentrations",
    "steady_state_range",
    "steady_state_flow",
    "steady_state_curve",
    "default_experiment_model",
]

K0 = math.exp(24.6)  # Arrhenius prefactor, L/(mol s)
EA_R = 8500.0        # activation energy over the gas constant, K
V = 0.105            # reactor volume, L
CA_IN = 0.8          # feed concentration of A, mol/L
CB_IN = 1.2          # feed concentration of B, mol/L
T_IN = 273.65        # feed temperature, K


@dataclass(frozen=True, kw_only=True)
class CstrParams:
    """The twin experiment's two reactor values; the constants are the module's.

    ``beta`` is the adiabatic heat-rise coefficient in K.L/mol; its sign
    encodes the reaction type (positive for exothermic). The joint model's
    kernels read beta from the state, so ``beta`` here serves only the
    reduced models and the steady-state curve. ``sigma_T`` scales the
    temperature diffusion. Neither has a default: the config supplies both
    (:meth:`cdassim.config.ExperimentConfig.cstr_params`).
    """

    beta: float     # K L/mol
    sigma_T: float  # K

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero (adiabatic relations divide by it)")
        if self.sigma_T < 0:
            raise ValueError("sigma_T must be non-negative")


# the drift's read-only tables per batch width m, built on first use from
# the module constants (threads that race build equal ones; either is kept):
# the (4, m) feed [CA_IN, CB_IN, T_IN, 0] and (3, m) signs [-1, -2, 0]
_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _width_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    feed = np.repeat([[CA_IN], [CB_IN], [T_IN], [0.0]], m, axis=1)
    signs = np.repeat([[-1.0], [-2.0], [0.0]], m, axis=1)
    feed.setflags(write=False)
    signs.setflags(write=False)
    _TABLES[m] = feed, signs
    return feed, signs


def cstr3_rates(CA, CB, T, beta, FV):
    """Rates of (CA, CB, T) at one state, on Python floats, with k(T) and the reaction rate.

    ``FV`` is the dilution rate F / V; beta's rate is zero. Returns
    ``(dCA, dCB, dT, k, r)`` with ``r = k CA CB``. Floats round exactly as
    numpy scalars do, so the rates are bitwise a column of
    :func:`cstr3_drift` in any batch, at a fraction of its ufunc calls'
    cost; this is their one copy on floats. Where T is zero the division
    runs on numpy scalars, which give -inf where Python's raises, so k = 0.
    """
    if T == 0.0:
        T = np.float64(T)
    # numpy's exp, not math.exp: the two differ in the last bit of some values
    k = K0 * float(np.exp(-EA_R / T))
    r = k * CA * CB  # reaction rate, mol/(L s)
    return FV * (CA_IN - CA) - r, FV * (CB_IN - CB) - 2.0 * r, FV * (T_IN - T) + beta * r, k, r


def cstr3_drift(x, F):
    """Deterministic rates of the joint model at each column ``(CA, CB, T, beta)`` of ``x``.

    ``x`` is a column batch of shape ``(4, m)``, such as the UKF's sigma
    points or the EnKF's and PF's members. Beta is read from the fourth
    row, and its rate is zero.

    One ``exp`` runs over the temperature row and builds the reaction rate
    ``r`` in place; every other op works on whole row blocks against the
    module cache ``_TABLES``'s feed and sign tables of the batch's width,
    because broadcasting a ``(4, 1)`` column across a wide batch costs more
    than the arithmetic. The three state rows get ``FV * (feed - x) +
    signs * r``, with the temperature row's reaction term replaced by
    ``beta r``, and the beta row gets zero. Since ``a + (-b)`` is ``a - b``
    and ``(-2) r`` is ``-(2 r)`` exactly, each element keeps the rounding
    of ``FV * (feed - x) - r`` with ``FV = F / V`` and ``r = K0 exp(-EA_R /
    T) CA CB``, so a column's rates are bitwise the same in any batch, one
    column included, and bitwise those of :func:`cstr3_rates`.
    """
    m = x.shape[1]
    feed, signs = _TABLES.get(m) or _width_tables(m)
    r = np.divide(-EA_R, x[2])
    np.exp(r, out=r)
    np.multiply(K0, r, out=r)
    r *= x[0]
    r *= x[1]
    out = np.subtract(feed, x)
    flow = out[:3]
    flow *= F / V
    react = np.multiply(signs, r)
    np.multiply(x[3], r, out=react[2])
    flow += react
    out[3] = 0.0
    return out


def cstr3_linearize(x, F) -> np.ndarray:
    """Rates of :func:`cstr3_rates` and their analytic state Jacobian at one state.

    ``x`` is ``(CA, CB, T, beta)``, shape ``(4,)``; returns one fresh
    ``(5, 4)`` block ``[f; A]``: the rates in row 0, then the Jacobian
    rows, the layout of the EKF's moment block ``[m; P]``. Both come from
    the single ``exp(-EA_R/T)`` of :func:`cstr3_rates`, with dk/dT = k
    EA_R/T^2, worked on Python floats, so row 0 is bitwise the column of
    :func:`cstr3_drift` in any batch. The EKF calls it for its moment stages.
    The beta column holds d(dT/dt)/d(beta), the reaction rate, and the beta
    row is zero. Where ``T * T`` is zero, dk/dT is divided on numpy scalars,
    whose division by zero gives IEEE's infinities where Python's float
    division raises, so dk/dT is not finite.
    """
    CA, CB, T, beta = x.tolist()
    FV = float(F) / V
    dCA, dCB, dT, k, r = cstr3_rates(CA, CB, T, beta, FV)
    TT = T * T
    if TT == 0.0:
        TT = np.float64(TT)
    kp = k * EA_R / TT
    kCA = k * CA
    kCB = k * CB
    kpAB = kp * CA * CB
    return np.array([dCA, dCB, dT, 0.0,
                     -FV - kCB, -kCA, -kpAB, 0.0,
                     -2.0 * kCB, -FV - 2.0 * kCA, -2.0 * kpAB, 0.0,
                     beta * kCB, beta * kCA, -FV + beta * kpAB, r,
                     0.0, 0.0, 0.0, 0.0]).reshape(5, 4)


def adiabatic_concentrations(T, params: CstrParams):
    """Concentrations implied by temperature along the adiabatic branch."""
    # np.float64 reads T as np.asarray(T, dtype=float) does, but one value
    # becomes a scalar, whose arithmetic costs far less than a 0-d array's
    rise = (np.float64(T) - T_IN) / params.beta
    return CA_IN - rise, CB_IN - 2.0 * rise


def steady_state_range(params: CstrParams) -> tuple[float, float]:
    """Open interval ``(lo, hi)`` of temperatures with a physical steady state.

    One end is T_IN, approached as the flow grows without bound; the other,
    T_IN + beta min(CA_IN, CB_IN / 2), is where the limiting feed is
    exhausted. That end lies above T_IN for an exothermic reaction
    (beta > 0) and below it for an endothermic one.
    """
    end = T_IN + params.beta * min(CA_IN, 0.5 * CB_IN)
    return min(T_IN, end), max(T_IN, end)


def steady_state_flow(T_s: float, params: CstrParams) -> float:
    """Flow rate holding the reactor at temperature ``T_s``.

    Setting the three rates to zero couples the states through the adiabatic
    relations and leaves F_s = V beta k(T_s) CA(T_s) CB(T_s) / (T_s - T_IN).
    """
    lo, hi = steady_state_range(params)
    if not lo < T_s < hi:
        raise ValueError(
            f"T_s={T_s} is outside the admissible branch ({lo:.4f}, {hi:.4f})"
        )
    CA, CB = adiabatic_concentrations(T_s, params)
    k = cstr3_rates(CA, CB, T_s, params.beta, 0.0)[3]
    return V * params.beta * k * CA * CB / (T_s - T_IN)


def steady_state_curve(params: CstrParams) -> tuple[np.ndarray, np.ndarray]:
    """Sample the steady-state flow curve F_s(T_s) across the admissible range.

    400 increasing temperatures, kept a margin of 0.25 K off both open
    endpoints: F_s blows up toward T_IN, at the lower end for an exothermic
    reaction and the upper for an endothermic one, and the feed runs out at
    the other end. The exothermic curve is non-monotonic: the fold between
    its local extrema is what makes ignition possible.
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
    process noise and the model keeps that single noise channel, the one
    that drives the twin experiment's truth. A positive value adds a
    random-walk channel of that intensity on beta. The measurement is T,
    with a constant Jacobian. The input ``u`` is the 1-vector flow rate.
    """
    if param_diffusion < 0:
        raise ValueError("param_diffusion must be non-negative")
    dim_noise = 2 if param_diffusion > 0 else 1
    H = np.array([[0.0, 0.0, 1.0, 0.0]])
    H.setflags(write=False)

    def diffusion(u):
        g = np.zeros((4, dim_noise))
        g[2, 0] = u[0] / V * params.sigma_T
        if dim_noise == 2:
            g[3, 1] = param_diffusion
        return g

    model = SdeModel(
        dim_noise=dim_noise,
        drift=lambda t, x, u: cstr3_drift(x, u[0]),
        diffusion=diffusion,
        measure=lambda t, x: x[2:3],
        linearize=lambda t, x, u: cstr3_linearize(x, u[0]),
        measure_jacobian=lambda t, x: H,
        constrain=_clamp_concentrations,
    )
    return CstrExperiment(model=model, flow=flow)

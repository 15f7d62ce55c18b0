"""Ito SDE models with discrete-time observations, and their integration.

A model couples continuous dynamics

    dx = f(t, x, u) dt + sigma(u) dw,

driven by a standard Wiener process w (unit spectral density, so all noise
scaling lives inside ``sigma``), with measurements taken at discrete instants

    y_k = h(t_k, x(t_k)) + v_k,    v_k ~ N(0, R).

The module provides the model container, a counter-based noise-stream
abstraction that makes every random draw a pure function of
``(seed, stream_id, call sequence)``, and every integrator: the one
Euler-Maruyama loop, which steps the sample filters' members (the twin
experiment's truth keeps its order on floats), and the one classical
Runge-Kutta stepper (with its stage-input lookup) that the moment and
sigma-point filters and the reduced-model comparison share. The input
``u`` is always a :class:`PiecewiseConstant` profile. Joint
state/parameter estimation needs no machinery here: a model simply
carries its parameters as extra state components with zero drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DivergenceError",
    "NoiseStream",
    "SdeModel",
    "PiecewiseConstant",
    "per_input",
    "propagate_members",
    "rk4_inputs",
    "rk4_step",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment
# Philox's counter and buffer at the start of a stream; its state setter copies them
_ZERO_WORDS = np.zeros(4, np.uint64)
_ZERO_WORDS.setflags(write=False)


class DivergenceError(RuntimeError):
    """A state, moment or weight became non-finite or degenerate.

    The one numerical-failure type of the truth's propagation and of every
    filter's predict and update, factorizations included; the message names
    what failed and when.
    """


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class NoiseStream:
    """Handle for one reproducible stream of Wiener increments.

    Streams are counter-based (Philox keyed by ``(seed, stream_id)``):
    the same handle always replays the identical sequence, regardless of
    what other streams were consumed, in which order, or on which worker.
    Hierarchies of independent substreams (one per harness role, filter
    noise role, or assimilation step) are derived with :meth:`child`.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return self.seat(np.random.Generator(np.random.Philox(key=0)))

    def seat(self, gen: np.random.Generator) -> np.random.Generator:
        """Reposition ``gen`` at the start of this stream and return it.

        ``gen`` is a Philox generator, such as one from :meth:`generator`.
        Its key becomes this stream's ``(seed, stream_id)``, which only this
        method encodes, its counter returns to 0 and its buffered words are
        dropped, so it next draws this stream bit for bit, whatever it drew
        before. This is far cheaper than building a generator, so a filter
        run builds one per noise role and seats it at every step.
        """
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS,
                      "key": np.array([self.stream_id & _MASK64, self.seed & _MASK64],
                                      np.uint64)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def child(self, index: int) -> "NoiseStream":
        """Derive the ``index``-th independent substream of this stream."""
        mixed = _splitmix64((self.stream_id ^ _splitmix64(index & _MASK64)) & _MASK64)
        return NoiseStream(self.seed, mixed)


def _unconstrained(x: np.ndarray) -> np.ndarray:
    return x


@dataclass(frozen=True, kw_only=True)
class SdeModel:
    """Continuous-discrete model container.

    ``drift`` has signature ``(t, x, u)`` and ``measure`` ``(t, x)``; both
    must accept column-batched states ``(n, m)`` by broadcasting.

    Diffusion contract: ``diffusion(u)`` takes the input alone and returns
    one ``(n, dim_noise)`` matrix, so the noise is additive at each
    input value, the case every integrator here approximates. Each of them
    evaluates it through :func:`per_input`, once per distinct input value.

    ``linearize(t, x, u)`` returns the drift and its Jacobian d f / d x at
    one state ``(n,)`` as one ``(n + 1, n)`` block ``[f; A]``: ``f`` in
    row 0, ``A`` below it, the layout of the EKF's moment block ``[m; P]``.
    The block is fresh on every call and the caller may overwrite it (the
    EKF overwrites rows 1..n with the covariance rate).
    ``measure_jacobian(t, x)`` returns d h / d x. Only the EKF calls them,
    and it needs both.
    ``constrain`` projects a state back into the admissible region after
    each integrator substep (the identity unless given); it may modify its
    argument in place and must return it.
    """

    dim_noise: int
    drift: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    measure: Callable[[float, np.ndarray], np.ndarray]
    linearize: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    measure_jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    constrain: Callable[[np.ndarray], np.ndarray] = _unconstrained

    def __post_init__(self):
        if self.dim_noise < 0:
            raise ValueError("dim_noise must be non-negative")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant input profile u(t).

    ``times`` are strictly increasing breakpoints; ``values[i]`` holds on
    ``[times[i], times[i+1])`` and the last value extends to infinity.
    Queries before ``times[0]`` return the first value.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or len(t) != len(v):
            raise ValueError("times and values must have matching leading length")
        if len(t) == 0:
            raise ValueError("profile needs at least one breakpoint")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def at(self, times) -> np.ndarray:
        """Values at a time or an array of times, one row per time, in one lookup."""
        idx = np.searchsorted(self.times, times, side="right") - 1
        return self.values[np.maximum(idx, 0)]


def per_input(fn: Callable) -> Callable:
    """``fn(u)``, evaluated once per distinct input value ``u``, keyed on its bytes.

    The returned function keeps each value for as long as it lives, which
    is one prediction; this is how every integrator applies the diffusion
    contract of :class:`SdeModel`.
    """
    table = {}

    def once(u):
        key = u.tobytes()
        value = table.get(key)
        if value is None:
            value = table[key] = fn(u)
        return value

    return once


def propagate_members(model: SdeModel, X: np.ndarray, inputs: np.ndarray, t0: float,
                      t1: float, rng: np.random.Generator) -> np.ndarray:
    """Euler-Maruyama propagation of column members from ``t0`` to ``t1``.

    The one Euler-Maruyama loop: the EnKF and PF step their members with
    it; the twin experiment's truth keeps its order on Python floats.
    ``inputs`` holds the interval's rows of a run's stage-input table
    (:func:`rk4_inputs`), shape ``(substeps, 3, dim_u)``: substep ``j`` runs
    on ``inputs[j, 0]``, the input at its start time. All increments come
    from the next ``(substeps, dim_noise, N)`` standard-normal draw of
    ``rng``: substep ``j`` of member ``i`` uses ``block[j, :, i]``. Members
    never interact, so the substeps are vectorized across them.

    Each substep is ``x + f dt + g dw`` in that order, computed in place on
    one copy of ``X``, followed by the model's ``constrain``; ``g`` is
    evaluated and checked by :func:`per_input`, which also records the
    span of rows where ``g`` is nonzero. The push ``g dw`` goes into that
    span only: every other row would gain an exact zero. A non-finite
    drift at a substep, or a non-finite diffusion at the first substep with
    its input, raises :class:`DivergenceError` naming that substep's start
    time.
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
    # with one channel g dw is one product per entry, bitwise the matmul
    push = np.multiply if model.dim_noise == 1 else np.matmul

    @per_input
    def diffusion(u):
        g = np.asarray(model.diffusion(u), dtype=float)
        if not np.isfinite(g).all():
            # t: the loop's, the start of the first substep with this input
            raise DivergenceError(f"non-finite drift/diffusion at t={t}")
        driven = np.flatnonzero(g.any(axis=1))
        rows = slice(driven[0], driven[-1] + 1) if driven.size else slice(0, 0)
        return g[rows], rows

    for j in range(substeps):
        t = t0 + j * h
        u = inputs[j, 0]
        f = np.asarray(model.drift(t, X, u), dtype=float)
        g, rows = diffusion(u)
        if not np.isfinite(f).all():
            raise DivergenceError(f"non-finite drift/diffusion at t={t}")
        X += np.multiply(f, h, out=fh)
        pushed = X[rows]
        pushed += push(g, draws[j])
        X = model.constrain(X)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
        raise DivergenceError(f"member {bad} diverged by t={t1}")
    return X


def rk4_inputs(profile: PiecewiseConstant, t0: float, times, substeps: int) -> np.ndarray:
    """Inputs at every Runge-Kutta stage time of a run from ``t0`` through ``times``.

    The one owner of a run's interval grid: interval ``i`` runs from its
    start ``s``, ``times[i - 1]`` (``t0`` for the first), to ``times[i]`` in
    ``substeps`` steps of ``h = (times[i] - s) / substeps``, a caller's
    ``(t1 - t0) / substeps`` bit for bit; step ``j`` starts at ``t = s +
    j*h``. Entry ``[i, j]`` holds the inputs at ``t``, ``t + 0.5*h`` and
    ``t + h``, ready for :func:`rk4_step`; its first is the input of an
    explicit step from ``t``. ``times`` is 1-D; the table, shape
    ``(len(times), substeps, 3, dim_u)``, comes from one ``profile.at`` call.
    """
    times = np.asarray(times, dtype=float)
    starts = np.concatenate(([t0], times))[:-1]
    h = ((times - starts) / substeps)[:, None]
    t = starts[:, None] + np.arange(substeps) * h
    return profile.at(np.stack((t, t + 0.5 * h, t + h), axis=-1))


def rk4_step(rhs: Callable, t: float, y, h: float, inputs):
    """One classical Runge-Kutta step of ``y' = rhs(t, y, u)`` from ``t`` to ``t + h``.

    ``inputs`` holds ``u`` at ``t``, ``t + 0.5*h`` and ``t + h`` (one
    ``[i, j]`` entry of :func:`rk4_inputs`). ``y`` may be a scalar, a state
    vector, a column batch or any 2-D block, such as the EKF's moment block
    ``[m; P]``; ``rhs`` returns a rate of the same shape.
    """
    u0, um, u1 = inputs
    tm = t + 0.5 * h
    k1 = rhs(t, y, u0)
    k2 = rhs(tm, y + 0.5 * h * k1, um)
    k3 = rhs(tm, y + 0.5 * h * k2, um)
    k4 = rhs(t + h, y + h * k3, u1)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

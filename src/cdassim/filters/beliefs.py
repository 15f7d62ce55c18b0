"""Posterior representations shared by the filters."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdassim.filters.linalg import symmetrize

__all__ = [
    "GaussianBelief",
    "Ensemble",
    "ParticleSet",
    "FilterOutput",
    "posterior_summary",
]


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state estimate (mean, covariance) pinned to a time."""

    mean: np.ndarray
    cov: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        P = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if P.shape != (m.size, m.size):
            raise ValueError(f"cov shape {P.shape} does not match mean size {m.size}")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", P)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class Ensemble:
    """Equally weighted sample representation; members are columns.

    At least two members, so that the sample covariance is defined.
    """

    members: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.members, dtype=float))
        if X.shape[1] < 2:
            raise ValueError("ensemble needs at least two members")
        object.__setattr__(self, "members", X)


@dataclass(frozen=True)
class ParticleSet:
    """Weighted sample representation; members (the particles) are columns.

    Weights are non-negative and sum to one (within roundoff).
    """

    members: np.ndarray
    weights: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.members, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.size != X.shape[1]:
            raise ValueError("one weight per particle required")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        s = float(w.sum())
        if not np.isfinite(s) or abs(s - 1.0) > 1e-8:
            raise ValueError(f"weights must sum to one (got {s!r})")
        object.__setattr__(self, "members", X)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.members.shape[1]


def posterior_summary(sample) -> GaussianBelief:
    """Gaussian summary of an :class:`Ensemble` or :class:`ParticleSet`.

    Uses the sample mean and the ``1/(n-1)``-normalized sample covariance;
    particle sets use their weighted analogue ``n/(n-1) * sum w_i d_i d_i^T``,
    which reduces to the unweighted formula for uniform weights. A single
    particle yields zero covariance.
    """
    if isinstance(sample, Ensemble):
        X, t = sample.members, sample.time
        n = X.shape[1]
        m = X.sum(axis=1) / n  # bitwise X.mean(axis=1)
        dev = X - m[:, None]
        P = (dev @ dev.T) / (n - 1)
        return GaussianBelief(m, symmetrize(P), t)
    if isinstance(sample, ParticleSet):
        X, w, t = sample.members, sample.weights, sample.time
        n = X.shape[1]
        m = X @ w
        if n == 1:
            return GaussianBelief(m, np.zeros((X.shape[0], X.shape[0])), t)
        dev = X - m[:, None]
        P = (dev * w) @ dev.T * (n / (n - 1))
        return GaussianBelief(m, symmetrize(P), t)
    raise TypeError(f"cannot summarize {type(sample).__name__}")


@dataclass
class FilterOutput:
    """Per-assimilation-step record of one filter run; ``ess`` and ``resampled`` are the PF's."""

    initial: GaussianBelief
    times: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    post_mean: np.ndarray
    post_cov: np.ndarray
    innovation: np.ndarray
    innovation_cov: np.ndarray
    nis: np.ndarray
    gain_condition: np.ndarray
    step_seconds: np.ndarray
    ess: np.ndarray | None
    resampled: np.ndarray | None

"""Bootstrap particle filter (sequential importance resampling).

Weights are accumulated in log space and normalized with a log-sum-exp,
so small Gaussian likelihoods far from the measurement underflow the
weights only when every particle is incompatible with the data, which is
reported as an error rather than silently uniformized. Resampling is
systematic (one uniform offset, n_p strata) and triggered by a
:class:`ResamplePolicy`; the packaged config resamples when the effective
sample size falls below half the particle count.

A step is the Monte Carlo prediction the PF shares with the EnKF (the
runner moves the particles with :func:`~cdassim.sde.propagate_members` and
keeps the weights), :func:`pf_update` (reweight) and :func:`pf_resample`.
Each draw takes a generator positioned at the start of its stream: the
runner seats step ``k``'s increments at ``stream.child(1).child(k)`` and the
resampling offset at its child 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdassim.filters.beliefs import ParticleSet
from cdassim.filters.linalg import chol_psd, solve_lower
from cdassim.sde import DivergenceError, SdeModel

__all__ = [
    "ResamplePolicy",
    "effective_sample_size",
    "systematic_resample",
    "pf_update",
    "pf_resample",
]


@dataclass(frozen=True)
class ResamplePolicy:
    """When to resample: 'always', 'never', or 'ess' below threshold * n_p.

    No defaults: the config's ``resample`` section supplies both fields.
    """

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in ("always", "never", "ess"):
            raise ValueError(f"unknown resample policy {self.kind!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")

    def should_resample(self, ess: float, n: int) -> bool:
        if self.kind == "always":
            return True
        if self.kind == "never":
            return False
        return ess < self.threshold * n


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size 1 / sum(w_i^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    s = float((w * w).sum())
    if s <= 0.0 or not np.isfinite(s):
        raise ValueError("weights must be normalized and finite")
    return 1.0 / s


def systematic_resample(particles: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Systematic (single-offset stratified) resampling to uniform weights.

    Uses one uniform draw u ~ U[0,1): stratum k picks the first particle
    whose cumulative weight exceeds (k + u) / n_p, so a position that lands
    exactly on a cumulative weight goes to the next particle and a
    zero-weight particle before the last is never drawn. Particle i is drawn
    floor(n_p w_i) or ceil(n_p w_i) times, up to roundoff at the stratum
    edges: where the cumulative sums round past k / n_p, an offset of 0, one
    that is tiny but not zero, or one as close to 1 (within about 1e-11 for
    n_p < 400) can still move a stratum edge, so that uniform weights
    replace a particle by its neighbour.
    """
    n = particles.size
    u0 = rng.uniform() / n
    positions = u0 + np.arange(n) / n
    cumw = np.cumsum(particles.weights)
    cumw[-1] = np.inf  # the last stratum may round up to 1; the last particle takes it
    idx = np.searchsorted(cumw, positions, side="right")
    return ParticleSet(particles.members[:, idx], np.full(n, 1.0 / n), particles.time)


def _log_gaussian(e: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Log N(e; 0, R) per column of e, up to the weight-invariant constant."""
    LR = chol_psd(R)
    z = solve_lower(LR, e)
    return -0.5 * np.einsum("ij,ij->j", z, z)


def pf_update(particles: ParticleSet, model: SdeModel, y: np.ndarray,
              R: np.ndarray) -> tuple[ParticleSet, np.ndarray, np.ndarray]:
    """Reweight by the likelihood of ``y``; returns (weighted set, innovation, its covariance).

    The particles do not move. The innovation is taken against the
    predictive mean under the incoming weights, and its covariance is their
    weighted spread of predicted observations plus ``R``. Every weight
    underflowing raises :class:`~cdassim.sde.DivergenceError` naming the time.
    Takes ``y`` ``(ny,)`` and ``R`` ``(ny, ny)`` as float arrays, as
    ``run_filter`` passes them.
    """
    X, w, t = particles.members, particles.weights, particles.time
    Yp = np.atleast_2d(np.asarray(model.measure(t, X), dtype=float))
    yhat = Yp @ w
    dY = Yp - yhat[:, None]
    Re = (dY * w) @ dY.T + R
    E = y[:, None] - Yp
    with np.errstate(divide="ignore"):
        logw = np.log(w) + _log_gaussian(E, R)
    peak = logw.max()
    if not np.isfinite(peak):
        raise DivergenceError(f"all particle weights underflowed at t={t}")
    w = np.exp(logw - peak)
    w /= w.sum()
    return ParticleSet(X, w, t), y - yhat, Re


def pf_resample(particles: ParticleSet, policy: ResamplePolicy,
                rng: np.random.Generator) -> tuple[ParticleSet, float, bool]:
    """Apply ``policy``; returns (set, ESS of the incoming weights, whether it resampled).

    ``rng`` gives the systematic offset, drawn only when resampling.
    """
    ess = effective_sample_size(particles.weights)
    if not policy.should_resample(ess, particles.size):
        return particles, ess, False
    return systematic_resample(particles, rng), ess, True

"""Bootstrap particle filter (sequential importance resampling).

Weights are accumulated in log space and normalized with a log-sum-exp,
so small Gaussian likelihoods far from the measurement underflow the
weights only when every particle is incompatible with the data, which is
reported as an error rather than silently uniformized. Resampling is
systematic (one uniform offset, n_p strata) and triggered by a
:class:`ResamplePolicy`; the packaged config resamples when the effective
sample size falls below half the particle count.

A step takes one noise stream: it draws the propagation increments as one
block from the stream itself and the resampling offset from its child 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdassim.filters.beliefs import GaussianBelief, ParticleSet, posterior_summary
from cdassim.filters.linalg import chol_psd, solve_lower
from cdassim.filters.montecarlo import propagate_members
from cdassim.sde import DivergenceError, NoiseStream, SdeModel

__all__ = [
    "ResamplePolicy",
    "PfStepInfo",
    "effective_sample_size",
    "systematic_resample",
    "pf_step",
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


@dataclass(frozen=True)
class PfStepInfo:
    """Diagnostics of one assimilation step."""

    posterior: GaussianBelief          # weighted summary before resampling
    prior: GaussianBelief              # propagated summary with pre-update weights
    innovation: np.ndarray             # y - weighted predicted observation
    innovation_cov: np.ndarray         # weighted obs spread + R
    ess: float                         # after reweighting, before resampling
    resampled: bool


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size 1 / sum(w_i^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    s = float((w * w).sum())
    if s <= 0.0 or not np.isfinite(s):
        raise ValueError("weights must be normalized and finite")
    return 1.0 / s


def systematic_resample(particles: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Systematic (single-offset stratified) resampling to uniform weights.

    Uses one uniform draw u ~ U[0,1): stratum k picks the particle whose
    cumulative weight first reaches (k + u) / n_p, so particle i is drawn
    floor(n_p w_i) or ceil(n_p w_i) times, up to roundoff at the stratum
    edges. Uniform weights return every particle once unless u lies within
    that roundoff (about 1e-11 for n_p < 400) of 0 or of 1, where a particle
    can be replaced by its neighbour.
    """
    n = particles.size
    u0 = rng.uniform() / n
    positions = u0 + np.arange(n) / n
    cumw = np.cumsum(particles.weights)
    cumw[-1] = 1.0  # guard the last stratum against roundoff in the sum
    idx = np.searchsorted(cumw, positions)
    return ParticleSet(particles.particles[:, idx], np.full(n, 1.0 / n), particles.time)


def _log_gaussian(e: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Log N(e; 0, R) per column of e, up to the weight-invariant constant."""
    LR = chol_psd(R)
    z = solve_lower(LR, e)
    return -0.5 * np.einsum("ij,ij->j", z, z)


def pf_step(model: SdeModel, particles: ParticleSet, inputs: np.ndarray, t1: float,
            y: np.ndarray, R: np.ndarray, noise: NoiseStream,
            resample: ResamplePolicy) -> tuple[ParticleSet, PfStepInfo]:
    """One propagate/reweight/resample cycle; returns (particles, diagnostics).

    ``inputs`` holds the interval's rows of the run's stage-input table.
    ``noise`` itself supplies the propagation increments (one block for all
    particles, see :func:`propagate_members`) and ``noise.child(0)`` the
    uniform offset of systematic resampling, drawn only when resampling.
    """
    n_p = particles.size
    y = np.atleast_1d(np.asarray(y, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    X = propagate_members(model, particles.particles, inputs, particles.time, t1, noise)
    propagated = ParticleSet(X, particles.weights, t1)
    prior = posterior_summary(propagated)

    Yp = np.atleast_2d(np.asarray(model.measure(t1, X), dtype=float))
    E = y[:, None] - Yp
    with np.errstate(divide="ignore"):
        logw = np.log(particles.weights) + _log_gaussian(E, R)
    peak = logw.max()
    if not np.isfinite(peak):
        raise DivergenceError(f"all particle weights underflowed at t={t1}")
    w = np.exp(logw - peak)
    w /= w.sum()

    weighted = ParticleSet(X, w, t1)
    posterior = posterior_summary(weighted)
    yhat = Yp @ w
    dY = Yp - yhat[:, None]
    Re = (dY * w) @ dY.T + R
    ess = effective_sample_size(w)
    do_resample = resample.should_resample(ess, n_p)
    out = (systematic_resample(weighted, noise.child(0).generator()) if do_resample
           else weighted)
    info = PfStepInfo(
        posterior=posterior,
        prior=prior,
        innovation=y - yhat,
        innovation_cov=Re,
        ess=ess,
        resampled=do_resample,
    )
    return out, info

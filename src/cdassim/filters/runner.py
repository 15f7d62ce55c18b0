"""Measurement-sequence driver shared by the four filter kinds.

Three predictions feed four updates: the EKF's moment ODE, the UKF's sigma
points, and the Monte Carlo members that the EnKF and the PF share
(:func:`~cdassim.sde.propagate_members`; a PF keeps its weights). Each kind
updates its own state (a :class:`GaussianBelief`, an :class:`Ensemble` or a
:class:`ParticleSet`), and one loop runs them all. Step ``k`` is ``state =
predict(state, inputs, t1, k)``, ``prior = summary(state)``, ``state, e, Re
= update(state, y, k)``, ``post = summary(state)``, where ``summary`` is the
identity on a belief and :func:`posterior_summary` on a sample; the PF then
resamples by its policy. Per-step diagnostics (moments, innovations, NIS,
timing) go to a :class:`FilterOutput`. Reproducibility comes from fixed
child-stream roles under the configured noise stream. Sample-based filters
draw their initial members from role ``STREAM_INIT``; step ``k`` draws from
one block stream per role, ``stream.child(role).child(k)``:
``STREAM_PROPAGATE`` for the members' propagation, whose child 0 gives the
PF's resampling offset, and ``STREAM_PERTURB`` for the EnKF observation
perturbations. A run builds one generator per noise role and, before each
step's draw, seats it at that step's stream
(:meth:`~cdassim.sde.NoiseStream.seat`), which replays the stream exactly as
a fresh generator would. Two runs with the same stream are therefore bitwise
identical however work is scheduled.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from cdassim.filters.beliefs import (
    Ensemble,
    FilterOutput,
    GaussianBelief,
    ParticleSet,
    posterior_summary,
)
from cdassim.filters.enkf import enkf_update
from cdassim.filters.kalman import ekf_predict, kalman_update
from cdassim.filters.linalg import chol_psd, condition_number, solve_spd
from cdassim.filters.pf import ResamplePolicy, pf_resample, pf_update
from cdassim.filters.unscented import UkfScaling, ukf_predict, ukf_update
from cdassim.sde import (
    DivergenceError,
    NoiseStream,
    PiecewiseConstant,
    SdeModel,
    propagate_members,
    rk4_inputs,
)

__all__ = [
    "FILTER_KINDS",
    "SAMPLE_KINDS",
    "STREAM_INIT",
    "STREAM_PROPAGATE",
    "STREAM_PERTURB",
    "FilterConfig",
    "run_filter",
]

# What each kind reads beyond the shared initial, obs_cov and substeps: the
# model fields, then the FilterConfig settings. No other module says which.
_READS = {
    "ekf": (("linearize", "measure_jacobian"), ()),
    "ukf": ((), ("scaling",)),
    "enkf": ((), ("stream", "size")),
    "pf": ((), ("stream", "size", "resample")),
}
FILTER_KINDS = tuple(_READS)
# the kinds that run members drawn from the config's stream
SAMPLE_KINDS = tuple(k for k, (_, settings) in _READS.items() if "size" in settings)

# Child-stream roles under a filter's root stream.
STREAM_INIT = 0
STREAM_PROPAGATE = 1
STREAM_PERTURB = 2


@dataclass(frozen=True, kw_only=True)
class FilterConfig:
    """Everything a filter run needs besides the model and the data.

    Every kind reads ``initial``, ``obs_cov`` (the measurement-noise
    covariance, checked square, finite, symmetric and positive definite) and
    ``substeps``. Each of the other four is read by some kinds only (see
    ``_READS``) and may be left unset: ``None`` means absent, not a default,
    and :func:`run_filter` rejects a kind that reads an unset one. ``size``,
    the member count, is at least 2 when given; the particle filter reports
    the importance-weighted posterior summary. The experiment config is the
    one source of every setting (``harness._filter_config``).
    """

    initial: GaussianBelief
    obs_cov: np.ndarray
    substeps: int
    stream: NoiseStream | None = None
    scaling: UkfScaling | None = None
    size: int | None = None
    resample: ResamplePolicy | None = None

    def __post_init__(self):
        R = np.atleast_2d(np.asarray(self.obs_cov, dtype=float))
        if R.shape[0] != R.shape[1]:
            raise ValueError("obs_cov must be square")
        if not np.isfinite(R).all():
            raise ValueError("obs_cov must be finite")
        if not np.allclose(R, R.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(R).max()))):
            raise ValueError("obs_cov must be symmetric")
        if np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("obs_cov must be positive definite")
        object.__setattr__(self, "obs_cov", R)
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        if self.size is not None and self.size < 2:
            raise ValueError("size must be at least 2")


def _contract(kind: str, model: SdeModel, config: FilterConfig):
    """``(initial state, predict, update, resample)`` of one kind.

    ``resample(state, k) -> (state, ess, resampled)`` is the PF's and None
    for the other kinds; see the module docstring.
    """
    R = config.obs_cov
    if kind == "ekf":
        return (config.initial,
                lambda b, inputs, t1, k: ekf_predict(model, b, inputs, t1),
                lambda b, y, k: kalman_update(b, model, y, R), None)
    if kind == "ukf":
        scaling = config.scaling
        return (config.initial,
                lambda b, inputs, t1, k: ukf_predict(model, b, inputs, t1, scaling),
                lambda b, y, k: ukf_update(b, model, y, R, scaling), None)
    draws = config.stream.child(STREAM_INIT).generator().standard_normal(
        (config.initial.dim, config.size))
    X0 = model.constrain(config.initial.mean[:, None] + chol_psd(config.initial.cov) @ draws)
    propagate_root = config.stream.child(STREAM_PROPAGATE)
    propagate_rng = propagate_root.generator()

    def predict(sample, inputs, t1, k):
        X = propagate_members(model, sample.members, inputs, sample.time, t1,
                              propagate_root.child(k).seat(propagate_rng))
        return replace(sample, members=X, time=t1)

    if kind == "enkf":
        perturb_root = config.stream.child(STREAM_PERTURB)
        perturb_rng = perturb_root.generator()
        return (Ensemble(X0, config.initial.time), predict,
                lambda ens, y, k: enkf_update(ens, model, y, R,
                                              perturb_root.child(k).seat(perturb_rng)),
                None)
    offset_rng = propagate_root.generator()
    policy = config.resample
    return (ParticleSet(X0, np.full(config.size, 1.0 / config.size), config.initial.time),
            predict,
            lambda ps, y, k: pf_update(ps, model, y, R),
            lambda ps, k: pf_resample(ps, policy,
                                      propagate_root.child(k).child(0).seat(offset_rng)))


def run_filter(kind: str, model: SdeModel, config: FilterConfig, times, measurements,
               u: PiecewiseConstant) -> FilterOutput:
    """Assimilate a measurement sequence with the requested filter.

    ``times`` are finite, strictly increasing measurement times at or after
    the initial belief's time; ``measurements`` holds one finite observation
    row per time, shaped here once: each update takes its ``(ny,)`` float
    row and the checked ``(ny, ny)`` ``obs_cov`` as they are. ``u`` is the
    :class:`~cdassim.sde.PiecewiseConstant` input profile. Its values at
    every Runge-Kutta stage time of the run are looked up once, in one
    :func:`~cdassim.sde.rk4_inputs` table, and each prediction receives its
    interval's rows. Before anything else, every
    model field and config setting the kind reads is checked present (the
    EKF reads the model's closed-form ``linearize`` and ``measure_jacobian``;
    see ``_READS``), and a missing one raises ValueError naming the kind and
    the field. A :class:`~cdassim.sde.DivergenceError` of step ``k`` is
    raised again as one whose message names the filter, step and time ahead
    of the cause's, with ``step=k``; one before the first step, such as an
    initial covariance that does not factor, as one that names the filter,
    with ``step=None``. The loop runs with numpy's
    division-by-zero, overflow and invalid-value warnings off: a blow-up,
    such as the EKF's linearization at T = 0, reaches the caller as that
    error, not as a warning naming a source line.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
    model_fields, settings = _READS[kind]
    for field in model_fields:
        if getattr(model, field) is None:
            raise ValueError(f"{kind} needs the model's {field}")
    for field in settings:
        if getattr(config, field) is None:
            raise ValueError(f"{kind} needs the config's {field}")
    ny = config.obs_cov.shape[0]
    n = config.initial.dim

    times = np.atleast_1d(np.asarray(times, dtype=float))
    Y = np.asarray(measurements, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None] if ny == 1 else np.atleast_2d(Y)
    if Y.shape != (times.size, ny):
        raise ValueError(f"measurements shape {Y.shape}, expected {(times.size, ny)}")
    if not np.isfinite(times).all():
        raise ValueError("measurement times must be finite")
    if not np.isfinite(Y).all():
        raise ValueError("measurements must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("measurement times must be strictly increasing")
    if times.size and times[0] < config.initial.time:
        raise ValueError("first measurement precedes the initial belief")

    n_steps = times.size
    stage_inputs = rk4_inputs(u, config.initial.time, times, config.substeps)
    try:
        state, predict, update, resample = _contract(kind, model, config)
    except DivergenceError as exc:  # the sample kinds' initial draw
        raise DivergenceError(f"{kind} failed before its first step: {exc}", step=None) from exc
    summary = posterior_summary if kind in SAMPLE_KINDS else (lambda belief: belief)
    out = FilterOutput(
        initial=config.initial,
        times=times.copy(),
        prior_mean=np.empty((n_steps, n)),
        prior_cov=np.empty((n_steps, n, n)),
        post_mean=np.empty((n_steps, n)),
        post_cov=np.empty((n_steps, n, n)),
        innovation=np.empty((n_steps, ny)),
        innovation_cov=np.empty((n_steps, ny, ny)),
        nis=np.empty(n_steps),
        gain_condition=np.empty(n_steps),
        step_seconds=np.empty(n_steps),
        ess=None if resample is None else np.empty(n_steps),
        resampled=None if resample is None else np.zeros(n_steps, dtype=bool),
    )

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t1 = float(times[k])
            tic = time.perf_counter()
            try:
                state = predict(state, stage_inputs[k], t1, k)
                prior = summary(state)
                state, e, Re = update(state, Y[k], k)
                post = summary(state)
                if resample is not None:
                    state, out.ess[k], out.resampled[k] = resample(state, k)
                out.step_seconds[k] = time.perf_counter() - tic
                out.nis[k] = e @ solve_spd(Re, e)
                out.gain_condition[k] = condition_number(Re)
            except DivergenceError as exc:
                raise DivergenceError(f"{kind} failed at step {k} (t={t1:g}): {exc}",
                                      step=k) from exc
            out.prior_mean[k] = prior.mean
            out.prior_cov[k] = prior.cov
            out.post_mean[k] = post.mean
            out.post_cov[k] = post.cov
            out.innovation[k] = e
            out.innovation_cov[k] = Re
    return out

"""Whole runs of every filter kind on a scalar linear benchmark.

The home of a run's contracts: the step order and noise-stream layout that
each kind replays through, per-stream reproducibility, the settings each
kind reads, and the step a failure names.
"""
import dataclasses

import numpy as np
import pytest

from cdassim.filters import runner
from cdassim.filters.beliefs import Ensemble, GaussianBelief, ParticleSet, posterior_summary
from cdassim.filters.enkf import enkf_update
from cdassim.filters.kalman import ekf_predict, kalman_update
from cdassim.filters.linalg import chol_psd
from cdassim.filters.pf import ResamplePolicy, pf_resample, pf_update
from cdassim.filters.unscented import ukf_predict, ukf_update
from cdassim.filters.runner import (
    FILTER_KINDS,
    SAMPLE_KINDS,
    STREAM_INIT,
    STREAM_PERTURB,
    STREAM_PROPAGATE,
    FilterConfig,
    run_filter,
)
from cdassim.sde import DivergenceError, NoiseStream, SdeModel, propagate_members

from closedform import scalar_kalman
from digests import _output_digest
from stages import FILTER_SETTINGS, constant, euler_maruyama_path, interval_inputs, linear_sde
from test_acceptance import OU_A, OU_DT, OU_INPUT, OU_M0, OU_P0, OU_R, OU_SIGMA

A, B_IN, SIGMA, R_OBS = 0.4, 0.2, 0.6, 0.25
MODEL, U_IN = linear_sde(A, SIGMA), constant(B_IN)
M0, P0 = 0.0, 1.0


def kind_settings(kind):
    """Exactly what ``kind`` reads: its unit settings, plus a stream if it samples."""
    return {**FILTER_SETTINGS[kind], **({"stream": NoiseStream(3)} if kind in SAMPLE_KINDS else {})}


def base_config(kind, **kw):
    """A config with exactly what ``kind`` reads, overridden by ``kw``."""
    return FilterConfig(initial=GaussianBelief(np.array([M0]), np.array([[P0]])),
                        obs_cov=np.array([[R_OBS]]), **{**kind_settings(kind), **kw})


@pytest.fixture(scope="module")
def ou_data():
    stream = NoiseStream(4242)
    times, states = euler_maruyama_path(MODEL, np.array([0.5]), U_IN, 0.0, 15.0, 0.05,
                                        stream.child(0))
    idx = np.arange(10, len(times), 10)
    rng = stream.child(1).generator()
    ys = states[idx, 0] + np.sqrt(R_OBS) * rng.standard_normal(idx.size)
    return times[idx], ys


def test_rejects_bad_requests(ou_data):
    times, ys = ou_data
    cfg = base_config("ekf")
    with pytest.raises(ValueError):
        run_filter("kf", MODEL, cfg, times, ys, U_IN)
    with pytest.raises(ValueError):
        run_filter("ekf", MODEL, cfg, times[::-1], ys, U_IN)
    with pytest.raises(ValueError):
        run_filter("ekf", MODEL, cfg, times, ys[:-1], U_IN)
    # a non-finite time or measurement is a bad request, not a divergence at a later step
    for kind in FILTER_KINDS:
        cfg = base_config(kind)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^measurement times must be finite$"):
                run_filter(kind, MODEL, cfg, [1.0, 2.0, bad], [0.1, 0.2, 0.3], U_IN)
            with pytest.raises(ValueError, match="^measurements must be finite$"):
                run_filter(kind, MODEL, cfg, [1.0, 2.0, 3.0], [0.1, bad, 0.3], U_IN)


def test_zero_measurements_returns_initial_belief():
    for kind in FILTER_KINDS:
        cfg = base_config(kind)
        out = run_filter(kind, MODEL, cfg, [], np.zeros((0, 1)), U_IN)
        assert out.times.size == 0
        assert out.initial is cfg.initial
        assert out.prior_mean.shape == out.post_mean.shape == (0, 1)
        assert out.prior_cov.shape == out.post_cov.shape == (0, 1, 1)
        assert out.innovation.shape == (0, 1) and out.innovation_cov.shape == (0, 1, 1)
        assert out.nis.shape == out.gain_condition.shape == out.step_seconds.shape == (0,)
        if kind == "pf":
            assert out.ess.shape == (0,) and out.resampled.dtype == bool
        else:
            assert out.ess is None and out.resampled is None


def test_gaussian_filters_match_closed_form(ou_data):
    times, ys = ou_data
    oracle = scalar_kalman(A, B_IN, SIGMA, R_OBS, M0, P0, times, ys)
    tols = {"ekf": (1e-8, 1e-8), "ukf": (5e-3, 1e-2)}
    for kind, (mean_atol, var_rtol) in tols.items():
        out = run_filter(kind, MODEL, base_config(kind), times, ys, u=U_IN)
        assert out.times.size == times.size
        assert np.allclose(out.prior_mean[:, 0], oracle["prior_mean"], atol=mean_atol)
        assert np.allclose(out.post_mean[:, 0], oracle["post_mean"], atol=mean_atol)
        assert np.allclose(out.post_cov[:, 0, 0], oracle["post_var"], rtol=var_rtol)
        assert np.all(out.nis > 0.0)
        assert np.allclose(out.nis, out.innovation[:, 0] ** 2 / out.innovation_cov[:, 0, 0],
                           rtol=1e-14, atol=0.0)
        assert np.all(out.gain_condition == 1.0)
        assert np.all(out.step_seconds >= 0.0)


def test_sample_filters_track_closed_form(ou_data):
    times, ys = ou_data
    oracle = scalar_kalman(A, B_IN, SIGMA, R_OBS, M0, P0, times, ys)
    for kind, cfg in (
        ("enkf", base_config("enkf", stream=NoiseStream(2024, 1), size=4000)),
        ("pf", base_config("pf", stream=NoiseStream(2024, 2), size=4000)),
    ):
        out = run_filter(kind, MODEL, cfg, times, ys, u=U_IN)
        assert np.allclose(out.post_mean[:, 0], oracle["post_mean"], atol=0.06)
        assert np.allclose(out.post_cov[:, 0, 0], oracle["post_var"], rtol=0.2)
    assert np.all(out.ess > 100.0)  # the linear problem keeps the PF healthy


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_runs_are_reproducible_and_sample_runs_seed_sensitive(kind, ou_data):
    # equal requests give equal outputs in every numeric field; a sample
    # kind's output moves with its noise stream, which a Gaussian kind does not read
    times, ys = ou_data

    def run(seed):
        cfg = base_config(kind, **({"stream": NoiseStream(seed), "size": 50}
                                   if kind in SAMPLE_KINDS else {}))
        return _output_digest(run_filter(kind, MODEL, cfg, times, ys, u=U_IN))

    first = run(5)
    assert run(5) == first
    assert (run(6) != first) == (kind in SAMPLE_KINDS)


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_every_kind_replays_through_the_step_contract(kind):
    # step k: predict, summarize, update, summarize, then the PF resamples by
    # its policy; the sample kinds draw from stream.child(role).child(k), and
    # the PF's resampling offset from child 0 of its propagation stream, each
    # through one generator per role seated at that stream before the draw
    model = linear_sde(OU_A, OU_SIGMA)
    times = OU_DT * np.arange(1, 4)
    ys = np.array([5.3, 4.6, 5.1])
    R = np.array([[OU_R]])
    init = GaussianBelief(np.array([OU_M0]), np.array([[OU_P0]]))
    root = NoiseStream(31337, 6)
    N = 64
    always = ResamplePolicy("always", 0.5)
    init_rng = root.child(STREAM_INIT).generator()
    x0 = init.mean[:, None] + chol_psd(init.cov) @ init_rng.standard_normal((1, N))
    propagate, perturb = root.child(STREAM_PROPAGATE), root.child(STREAM_PERTURB)
    prop_rng, pert_rng, offset_rng = propagate.generator(), perturb.generator(), root.generator()
    scaling = FILTER_SETTINGS["ukf"]["scaling"]

    def members(s, u, t1, k):  # the one Monte Carlo prediction of both sample kinds
        X = propagate_members(model, s.members, u, s.time, t1, propagate.child(k).seat(prop_rng))
        return dataclasses.replace(s, members=X, time=t1)

    contracts = {
        "ekf": (init, lambda b, u, t1, k: ekf_predict(model, b, u, t1),
                lambda b, y, k: kalman_update(b, model, y, R)),
        "ukf": (init, lambda b, u, t1, k: ukf_predict(model, b, u, t1, scaling),
                lambda b, y, k: ukf_update(b, model, y, R, scaling)),
        "enkf": (Ensemble(x0, 0.0), members,
                 lambda s, y, k: enkf_update(s, model, y, R, perturb.child(k).seat(pert_rng))),
        "pf": (ParticleSet(x0, np.full(N, 1.0 / N), 0.0), members,
               lambda s, y, k: pf_update(s, model, y, R)),
    }
    assert tuple(contracts) == FILTER_KINDS
    state, predict, update = contracts[kind]
    settings = {**FILTER_SETTINGS[kind],
                **({"stream": root, "size": N} if kind in SAMPLE_KINDS else {}),
                **({"resample": always} if kind == "pf" else {})}
    out = run_filter(kind, model, FilterConfig(initial=init, obs_cov=R, **settings),
                     times, ys, OU_INPUT)
    summary = posterior_summary if kind in SAMPLE_KINDS else (lambda belief: belief)
    for k, t1 in enumerate(times):
        state = predict(state, interval_inputs(OU_INPUT, state.time, t1), t1, k)
        prior = summary(state)
        state, e, Re = update(state, ys[k:k + 1], k)
        post = summary(state)
        assert np.array_equal(out.prior_mean[k], prior.mean)
        assert np.array_equal(out.prior_cov[k], prior.cov)
        assert np.array_equal(out.post_mean[k], post.mean)
        assert np.array_equal(out.post_cov[k], post.cov)
        assert np.array_equal(out.innovation[k], e)
        assert np.array_equal(out.innovation_cov[k], Re)
        if kind == "pf":
            state, ess, resampled = pf_resample(state, always,
                                                propagate.child(k).child(0).seat(offset_rng))
            assert out.ess[k] == ess and out.resampled[k] == resampled


@pytest.mark.parametrize("kind", SAMPLE_KINDS)
def test_sample_runs_build_one_generator_per_noise_role(kind, ou_data, monkeypatch):
    # the initial draw and each per-step role build one generator per run,
    # which is then seated at every step's stream; the count is the same for
    # any number of steps
    times, ys = ou_data
    assert times.size > 3
    built = []
    generator = NoiseStream.generator
    monkeypatch.setattr(NoiseStream, "generator", lambda s: built.append(s) or generator(s))
    cfg = base_config(kind, size=20, **({"resample": ResamplePolicy("always", 0.5)}
                                        if kind == "pf" else {}))
    counts = []
    for n_steps in (1, 3, times.size):
        built.clear()
        out = run_filter(kind, MODEL, cfg, times[:n_steps], ys[:n_steps], u=U_IN)
        assert out.times.size == n_steps
        counts.append(len(built))
    assert counts == [3, 3, 3]


@pytest.mark.parametrize("kind, step", [*((kind, 2) for kind in FILTER_KINDS), ("enkf", None)])
def test_failures_carry_step_information(kind, step):
    # the linear model's drift and linearization turn NaN from t = 2.5 on,
    # inside step 2's prediction interval (2, 3]; before the first step, a
    # sample kind's initial draw cannot factor a negative initial variance
    def rate(t, x, u):
        return (-A * x + u) * (1.0 if t < 2.5 else np.nan)

    model = dataclasses.replace(MODEL, drift=rate,
                                linearize=lambda t, x, u: np.vstack((rate(t, x, u), [[-A]])))
    cfg = base_config(kind)
    if step is None:
        cfg = dataclasses.replace(cfg, initial=GaussianBelief(np.array([M0]), np.array([[-P0]])))
    with pytest.raises(DivergenceError) as err:
        run_filter(kind, model, cfg, [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4], U_IN)
    assert err.value.step == step
    assert str(err.value).startswith(f"{kind} failed before its first step: covariance not "
                                     if step is None else f"{kind} failed at step 2 (t=3): ")
    assert type(err.value.__cause__) is DivergenceError
    assert err.value.__cause__.step is None
    assert str(err.value).endswith(str(err.value.__cause__))


def test_linear_algebra_failure_is_a_divergence_with_step_information():
    # an infinite measurement Jacobian makes the innovation covariance
    # non-finite, so the gain's Cholesky solve fails inside the update
    model = dataclasses.replace(MODEL, measure_jacobian=lambda t, x: np.array([[np.inf]]))
    with pytest.raises(DivergenceError) as err:
        run_filter("ekf", model, base_config("ekf"), [1.0], [[0.0]], U_IN)
    assert type(err.value.__cause__) is DivergenceError
    assert err.value.step == 0
    assert str(err.value) == "ekf failed at step 0 (t=1): innovation covariance is non-finite"


@pytest.mark.filterwarnings("ignore:overflow")
def test_enkf_analysis_failure_carries_step_information():
    # the constraint keeps an unmeasured row at 1e306 times the measured one,
    # so the analysis of a large innovation overflows it
    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda u: np.zeros((2, 1)),
        measure=lambda t, x: x[:1],
        constrain=lambda x: np.vstack((x[:1], 1e306 * x[:1])),
    )
    cfg = FilterConfig(initial=GaussianBelief(np.zeros(2), np.eye(2)),
                       obs_cov=np.array([[1.0]]), stream=NoiseStream(8),
                       **{**FILTER_SETTINGS["enkf"], "size": 50, "substeps": 1})
    with pytest.raises(DivergenceError) as err:
        run_filter("enkf", model, cfg, [1.0], [[1e3]], constant())
    assert err.value.step == 0
    assert str(err.value) == "enkf failed at step 0 (t=1): EnKF update diverged at t=1.0"


def test_config_validation():
    good = FilterConfig(initial=GaussianBelief(np.zeros(1), np.ones((1, 1))),
                        obs_cov=np.array([[1.0]]), substeps=10)
    with pytest.raises(ValueError):
        dataclasses.replace(good, substeps=0)
    for size in (0, 1):  # both sample filters need two members, as the schema says
        with pytest.raises(ValueError, match="size must be at least 2"):
            dataclasses.replace(good, size=size)
    assert dataclasses.replace(good, size=2).size == 2
    # the shared settings have no defaults, and keywords only: the experiment
    # config is the one source; the per-kind ones are checked by run_filter
    for missing in ("initial", "obs_cov", "substeps"):
        shared = {"initial": good.initial, "obs_cov": good.obs_cov, "substeps": 10}
        del shared[missing]
        with pytest.raises(TypeError, match=missing):
            FilterConfig(**shared)
    with pytest.raises(TypeError):
        FilterConfig(good.initial, good.obs_cov, 10)


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_each_kind_runs_with_only_what_it_reads(ou_data, kind):
    # only the EKF reads the model's closed-form derivatives
    times, ys = ou_data
    cfg = base_config(kind)
    given = {f for f in ("stream", "scaling", "size", "resample") if getattr(cfg, f) is not None}
    assert given == {"ekf": set(), "ukf": {"scaling"}, "enkf": {"stream", "size"},
                     "pf": {"stream", "size", "resample"}}[kind]
    model = MODEL if kind == "ekf" else dataclasses.replace(MODEL, linearize=None,
                                                             measure_jacobian=None)
    out = run_filter(kind, model, cfg, times[:3], ys[:3], U_IN)
    assert np.all(np.isfinite(out.post_mean)) and np.all(np.isfinite(out.post_cov))


@pytest.mark.parametrize("kind, owner, missing", [
    ("ekf", "model", "linearize"), ("ekf", "model", "measure_jacobian"),
    *[(kind, "config", field) for kind in FILTER_KINDS
      for field in kind_settings(kind) if field != "substeps"],
])
def test_missing_setting_is_rejected_before_the_run(ou_data, monkeypatch, kind, owner, missing):
    # checked first: no stage-input table, no output, no model call, and the
    # mismatched measurements below are never looked at
    def untouched(*args, **kwargs):
        raise AssertionError("reached past the settings check")

    monkeypatch.setattr(runner, "rk4_inputs", untouched)
    monkeypatch.setattr(runner, "FilterOutput", untouched)
    model = dataclasses.replace(MODEL, drift=untouched, diffusion=untouched,
                                measure=untouched, linearize=untouched,
                                measure_jacobian=untouched)
    cfg = base_config(kind)
    if owner == "model":
        model = dataclasses.replace(model, **{missing: None})
    else:
        cfg = dataclasses.replace(cfg, **{missing: None})
    times, ys = ou_data
    with pytest.raises(ValueError, match=f"^{kind} needs the {owner}'s {missing}$"):
        run_filter(kind, model, cfg, times, ys[:-1], U_IN)


@pytest.mark.parametrize("obs_cov, problem", [
    (np.ones((1, 2)), "square"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
    (np.array([[np.inf]]), "finite"),  # would pass the symmetry check with an inf tolerance
    (np.array([[np.nan]]), "finite"),  # would fail it as "symmetric"
])
def test_obs_cov_must_be_square_symmetric_positive_definite(obs_cov, problem):
    with pytest.raises(ValueError, match=f"obs_cov must be {problem}"):
        FilterConfig(initial=GaussianBelief(np.zeros(2), np.eye(2)), obs_cov=obs_cov,
                     substeps=10)

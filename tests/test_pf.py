"""Tests for the particle filter building blocks."""
import numpy as np
import pytest

from cdassim.filters.beliefs import ParticleSet
from cdassim.filters.montecarlo import propagate_members
from cdassim.filters.pf import (
    ResamplePolicy,
    effective_sample_size,
    pf_step,
    systematic_resample,
)
from cdassim.sde import DivergenceError, NoiseStream, SdeModel

from stages import ESS_HALF, constant, interval_inputs


def brownian_model(sigma=1.0):
    return SdeModel(
        dim_state=1,
        dim_noise=1,
        dim_obs=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.array([[sigma]]),
        measure=lambda t, x: x,
    )


def uniform_particles(values, time=0.0):
    values = np.asarray(values, dtype=float)
    return ParticleSet(values[None, :], np.full(values.size, 1.0 / values.size), time)


def test_effective_sample_size_bounds():
    assert effective_sample_size(np.full(8, 1.0 / 8.0)) == pytest.approx(8.0)
    onehot = np.zeros(8)
    onehot[3] = 1.0
    assert effective_sample_size(onehot) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        effective_sample_size(np.zeros(4))


def test_resample_policy_validation():
    with pytest.raises(ValueError):
        ResamplePolicy(kind="sometimes", threshold=0.5)
    with pytest.raises(ValueError):
        ResamplePolicy(kind="ess", threshold=0.0)
    with pytest.raises(TypeError):  # no defaults: the config names both fields
        ResamplePolicy()
    assert ResamplePolicy("always", 0.5).should_resample(10.0, 10)
    assert not ResamplePolicy("never", 0.5).should_resample(1.0, 10)
    assert ResamplePolicy("ess", 0.5).should_resample(4.9, 10)
    assert not ResamplePolicy("ess", 0.5).should_resample(5.0, 10)


def test_systematic_resample_uniform_weights_is_identity():
    ps = uniform_particles(np.arange(16.0))
    out = systematic_resample(ps, NoiseStream(5).generator())
    assert np.array_equal(np.sort(out.particles[0]), ps.particles[0])
    assert np.allclose(out.weights, 1.0 / 16.0)


def test_systematic_resample_single_survivor():
    w = np.zeros(6)
    w[2] = 1.0
    ps = ParticleSet(np.arange(6.0)[None, :], w)
    out = systematic_resample(ps, NoiseStream(8).generator())
    assert np.all(out.particles[0] == 2.0)


def test_systematic_resample_counts_stay_within_strata_bounds():
    # each particle is copied either floor(n w) or ceil(n w) times
    rng = np.random.default_rng(17)
    n = 10
    w = rng.random(n)
    w /= w.sum()
    ps = ParticleSet(np.arange(float(n))[None, :], w)
    g = NoiseStream(33).generator()
    totals = np.zeros(n)
    passes = 400
    for _ in range(passes):
        out = systematic_resample(ps, g)
        counts = np.bincount(out.particles[0].astype(int), minlength=n)
        assert np.all(counts >= np.floor(n * w))
        assert np.all(counts <= np.ceil(n * w))
        totals += counts
    assert np.allclose(totals / (passes * n), w, atol=0.02)


def test_pf_step_flat_likelihood_keeps_weights_uniform():
    model = brownian_model(sigma=0.1)
    ps = uniform_particles(np.linspace(-1.0, 1.0, 200))
    out, info = pf_step(model, ps, interval_inputs(constant(), 0.0, 1.0), 1.0,
                        np.array([0.0]), np.array([[1e12]]), NoiseStream(40), ESS_HALF)
    assert info.ess == pytest.approx(200.0, rel=1e-6)
    assert not info.resampled
    assert np.allclose(out.weights, 1.0 / 200.0)
    assert info.posterior.mean[0] == pytest.approx(info.prior.mean[0], abs=1e-9)
    assert out.time == 1.0


def test_pf_step_sharp_likelihood_concentrates_and_resamples():
    rng = np.random.default_rng(6)
    model = brownian_model(sigma=1e-3)
    ps = uniform_particles(rng.standard_normal(4000))
    out, info = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.1), 0.1,
                        np.array([2.0]), np.array([[0.01]]), NoiseStream(41), ESS_HALF)
    assert info.resampled
    assert info.ess < 2000.0
    assert info.posterior.mean[0] == pytest.approx(2.0, abs=0.3)
    assert np.allclose(out.weights, 1.0 / 4000.0)


def test_pf_step_log_weights_survive_extreme_likelihood_ratios():
    # the far cluster underflows to zero weight without breaking the step
    model = brownian_model(sigma=1e-3)
    values = np.concatenate([np.zeros(50), np.full(50, 100.0)])
    ps = uniform_particles(values)
    out, info = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.1), 0.1,
                        np.array([0.0]), np.array([[0.01]]), NoiseStream(42),
                        resample=ResamplePolicy("always", 0.5))
    assert info.ess == pytest.approx(50.0, rel=0.01)
    assert np.all(np.abs(out.particles[0]) < 1.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_pf_step_raises_when_every_weight_underflows():
    model = brownian_model(sigma=1e-3)
    ps = uniform_particles(np.zeros(20))
    with pytest.raises(DivergenceError, match="all particle weights underflowed at t=0.1"):
        pf_step(model, ps, interval_inputs(constant(), 0.0, 0.1), 0.1,
                np.array([1e200]), np.array([[1.0]]), NoiseStream(43), ESS_HALF)


def test_pf_step_never_policy_keeps_weighted_set():
    model = brownian_model(sigma=1e-3)
    rng = np.random.default_rng(9)
    ps = uniform_particles(rng.standard_normal(500))
    out, info = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.1), 0.1,
                        np.array([1.5]), np.array([[0.04]]), NoiseStream(44),
                        resample=ResamplePolicy("never", 0.5))
    assert not info.resampled
    assert out.weights.max() > 2.0 / 500.0  # informative data reweighted the set


def test_pf_step_stream_layout_matches_documented_contract():
    # the stream itself drives propagation, its child 0 drives resampling
    model = brownian_model(sigma=0.5)
    ps = uniform_particles(np.linspace(-2.0, 2.0, 30))
    stream = NoiseStream(45)
    by_stream, info_a = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.5), 0.5,
                                np.array([0.3]), np.array([[0.25]]), stream,
                                resample=ResamplePolicy("always", 0.5))
    X = propagate_members(model, ps.particles, interval_inputs(constant(), 0.0, 0.5), 0.0, 0.5,
                          stream)
    assert np.array_equal(info_a.prior.mean, X @ ps.weights)
    z = (0.3 - X[0]) / 0.5
    logw = np.log(ps.weights) + -0.5 * (z * z)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    by_parts = systematic_resample(ParticleSet(X, w, 0.5), stream.child(0).generator())
    assert np.array_equal(by_stream.particles, by_parts.particles)
    assert np.array_equal(info_a.posterior.mean, X @ w)


def test_pf_step_is_reproducible_per_stream():
    model = brownian_model()
    rng = np.random.default_rng(10)
    ps = uniform_particles(rng.standard_normal(100))
    a, _ = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.2), 0.2,
                   np.array([0.1]), np.array([[0.5]]), NoiseStream(46), ESS_HALF)
    b, _ = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.2), 0.2,
                   np.array([0.1]), np.array([[0.5]]), NoiseStream(46), ESS_HALF)
    c, _ = pf_step(model, ps, interval_inputs(constant(), 0.0, 0.2), 0.2,
                   np.array([0.1]), np.array([[0.5]]), NoiseStream(47), ESS_HALF)
    assert np.array_equal(a.particles, b.particles)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.particles, c.particles)

"""The particle filter's building blocks: weights, resampling and one assimilation step.

A whole run's noise-stream layout is tested in ``test_runner.py``.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from cdassim.filters.beliefs import ParticleSet, posterior_summary
from cdassim.filters.pf import (
    ResamplePolicy,
    effective_sample_size,
    pf_resample,
    pf_update,
    systematic_resample,
)
from cdassim.sde import DivergenceError, NoiseStream, propagate_members

from stages import ESS_HALF, constant, interval_inputs, linear_sde


def uniform_particles(values, time=0.0):
    values = np.asarray(values, dtype=float)
    return ParticleSet(values[None, :], np.full(values.size, 1.0 / values.size), time)


def assimilate(model, ps, t1, y, R, stream, policy):
    """One step as run_filter takes it, on a scalar measurement.

    Returns (propagated set, reweighted set, set after the policy, ESS,
    whether it resampled); the offset comes from ``stream.child(0)``.
    """
    X = propagate_members(model, ps.members, interval_inputs(constant(0.0), ps.time, t1),
                          ps.time, t1, stream.generator())
    propagated = ParticleSet(X, ps.weights, t1)
    weighted, _, _ = pf_update(propagated, model, np.array([y]), np.array([[R]]))
    out, ess, resampled = pf_resample(weighted, policy, stream.child(0).generator())
    return propagated, weighted, out, ess, resampled


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
    assert np.array_equal(np.sort(out.members[0]), ps.members[0])
    assert np.allclose(out.weights, 1.0 / 16.0)


def test_systematic_resample_single_survivor():
    w = np.zeros(6)
    w[2] = 1.0
    ps = ParticleSet(np.arange(6.0)[None, :], w)
    out = systematic_resample(ps, NoiseStream(8).generator())
    assert np.all(out.members[0] == 2.0)


@pytest.mark.parametrize("weights, u, drawn", [
    # at offset 0 the first position lands on the zero weight's cumulative weight 0
    ([0.0, 0.5, 0.5], 0.0, [1, 1, 2]),
    # the second position lands exactly on the first cumulative weight 0.5
    ([0.5, 0.5], 0.0, [0, 1]),
    # (1 - 2**-53) / 2 + 1 / 2 rounds to 1.0, which the last particle keeps
    ([0.5, 0.5], 1.0 - 2.0**-53, [0, 1]),
], ids=["zero-weight", "uniform", "last-rounds-to-one"])
def test_systematic_resample_tie_with_a_cumulative_weight(weights, u, drawn):
    # a stub generator fixes the offset; a tie goes to the next particle
    ps = ParticleSet(np.arange(float(len(weights)))[None, :], np.array(weights))
    out = systematic_resample(ps, SimpleNamespace(uniform=lambda: u))
    assert np.array_equal(out.members[0], drawn)


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
        counts = np.bincount(out.members[0].astype(int), minlength=n)
        assert np.all(counts >= np.floor(n * w))
        assert np.all(counts <= np.ceil(n * w))
        totals += counts
    assert np.allclose(totals / (passes * n), w, atol=0.02)


def test_pf_step_flat_likelihood_keeps_weights_uniform():
    model = linear_sde(0.0, 0.1)
    ps = uniform_particles(np.linspace(-1.0, 1.0, 200))
    prior, weighted, out, ess, resampled = assimilate(model, ps, 1.0, 0.0, 1e12,
                                                      NoiseStream(40), ESS_HALF)
    assert ess == pytest.approx(200.0, rel=1e-6)
    assert not resampled
    assert np.allclose(out.weights, 1.0 / 200.0)
    assert posterior_summary(weighted).mean[0] == pytest.approx(
        posterior_summary(prior).mean[0], abs=1e-9)
    assert out.time == 1.0


def test_pf_step_sharp_likelihood_concentrates_and_resamples():
    rng = np.random.default_rng(6)
    model = linear_sde(0.0, 1e-3)
    ps = uniform_particles(rng.standard_normal(4000))
    _, weighted, out, ess, resampled = assimilate(model, ps, 0.1, 2.0, 0.01, NoiseStream(41),
                                                  ESS_HALF)
    assert resampled
    assert ess < 2000.0
    assert posterior_summary(weighted).mean[0] == pytest.approx(2.0, abs=0.3)
    assert np.allclose(out.weights, 1.0 / 4000.0)


def test_pf_step_log_weights_survive_extreme_likelihood_ratios():
    # the far cluster underflows to zero weight without breaking the update
    model = linear_sde(0.0, 1e-3)
    values = np.concatenate([np.zeros(50), np.full(50, 100.0)])
    ps = uniform_particles(values)
    _, _, out, ess, _ = assimilate(model, ps, 0.1, 0.0, 0.01, NoiseStream(42),
                                   ResamplePolicy("always", 0.5))
    assert ess == pytest.approx(50.0, rel=0.01)
    assert np.all(np.abs(out.members[0]) < 1.0)


def test_pf_step_innovation_is_taken_under_the_incoming_weights():
    # the prior-predictive innovation, before the likelihood reweights the set
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 1.0, 50)
    ps = ParticleSet(rng.standard_normal((1, 50)), w / w.sum(), 0.5)
    weighted, e, Re = pf_update(ps, linear_sde(0.0, 1.0), np.array([0.7]), np.array([[0.3]]))
    yhat = ps.members[0] @ ps.weights
    assert e[0] == pytest.approx(0.7 - yhat, abs=1e-14)
    assert Re[0, 0] == pytest.approx(((ps.members[0] - yhat) ** 2) @ ps.weights + 0.3,
                                     rel=1e-12)
    # the incoming weights times the Gaussian likelihood, normalized
    logw = np.log(ps.weights) - 0.5 * (0.7 - ps.members[0]) ** 2 / 0.3
    w = np.exp(logw - logw.max())
    np.testing.assert_allclose(weighted.weights, w / w.sum(), rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_pf_step_raises_when_every_weight_underflows():
    model = linear_sde(0.0, 1e-3)
    ps = uniform_particles(np.zeros(20))
    X = propagate_members(model, ps.members, interval_inputs(constant(0.0), 0.0, 0.1), 0.0, 0.1,
                          NoiseStream(43).generator())
    propagated = ParticleSet(X, ps.weights, 0.1)
    with pytest.raises(DivergenceError, match="all particle weights underflowed at t=0.1"):
        pf_update(propagated, model, np.array([1e200]), np.array([[1.0]]))


def test_pf_step_never_policy_keeps_weighted_set():
    model = linear_sde(0.0, 1e-3)
    rng = np.random.default_rng(9)
    ps = uniform_particles(rng.standard_normal(500))
    _, weighted, out, _, resampled = assimilate(model, ps, 0.1, 1.5, 0.04, NoiseStream(44),
                                                ResamplePolicy("never", 0.5))
    assert not resampled
    assert out is weighted
    assert out.weights.max() > 2.0 / 500.0  # informative data reweighted the set

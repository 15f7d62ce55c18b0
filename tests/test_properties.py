"""Property tests: filter invariants.

From random admissible beliefs on the joint CSTR model (states near the
adiabatic branch, where the reactor's rates are what the default 1 s
Runge-Kutta substep resolves, and random correlated covariances), one EKF
and one UKF predict+update over a sampling interval (the UKF at the unit
and at the packaged sigma-point scaling) must return finite means and
symmetric PSD covariances, and one particle-filter step must leave
normalized weights with an effective sample size between 1 and the
particle count. One EnKF analysis of a random ensemble must leave a
symmetric PSD posterior summary and move every member's predicted
measurement toward its own perturbed observation by the shared fraction
S / (S + R) in [0, 1). Systematic resampling must keep every particle whose
weight is at least 1/N. On random linear models with a scalar measurement,
the Joseph-form Kalman update must equal the standard form.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdassim.config import load_config
from cdassim.cstr import adiabatic_concentrations, default_experiment_model
from cdassim.filters.beliefs import Ensemble, GaussianBelief, ParticleSet, posterior_summary
from cdassim.filters.enkf import enkf_update
from cdassim.filters.kalman import ekf_predict, kalman_update
from cdassim.filters.linalg import chol_psd, symmetrize
from cdassim.filters.pf import (
    ResamplePolicy,
    pf_resample,
    pf_update,
    systematic_resample,
)
from cdassim.filters.unscented import ukf_predict, ukf_update
from cdassim.sde import NoiseStream, SdeModel, propagate_members

from stages import UNIT_SCALING, interval_inputs

CONFIG = load_config()
PARAMS = CONFIG.cstr_params()
FLOW = CONFIG.flow_profile()
MODEL = default_experiment_model(PARAMS, FLOW, param_diffusion=CONFIG.sigma_theta).model
R = np.array([[CONFIG.obs_variance]])
DT = CONFIG.dt_sample


@st.composite
def admissible_beliefs(draw):
    T = draw(st.floats(275.0, 350.0))
    CA, CB = adiabatic_concentrations(T, PARAMS)
    offsets = draw(arrays(float, 2, elements=st.floats(-0.05, 0.05)))
    mean = np.array([max(CA + offsets[0], 0.0), max(CB + offsets[1], 0.0), T,
                     draw(st.floats(110.0, 160.0))])
    std = np.array([draw(st.floats(1e-3, 0.03)), draw(st.floats(1e-3, 0.03)),
                    draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 10.0))])
    M = draw(arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)))
    S = M @ M.T + 0.1 * np.eye(4)
    d = np.sqrt(np.diag(S))
    cov = (S / np.outer(d, d)) * np.outer(std, std)
    return GaussianBelief(mean, cov, time=draw(st.floats(0.0, 2000.0)))


def assert_symmetric_psd(P: np.ndarray, sym_tol: float = 1e-10, eig_tol: float = 1e-10) -> None:
    """Symmetric to ``sym_tol`` and no eigenvalue below ``-eig_tol * trace``, relative to P's scale."""
    scale = max(float(np.abs(P).max()), 1e-300)
    assert float(np.abs(P - P.T).max()) <= sym_tol * scale, "covariance is not symmetric"
    lo = float(np.linalg.eigvalsh(symmetrize(P)).min())
    assert lo >= -eig_tol * max(float(np.trace(P)), 1e-300), \
        f"covariance has eigenvalue {lo:.3e} below tolerance"


def check(belief: GaussianBelief) -> None:
    assert np.all(np.isfinite(belief.mean))
    assert np.all(np.isfinite(belief.cov))
    assert_symmetric_psd(belief.cov)


def sample_members(belief: GaussianBelief, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws from ``belief`` as columns, concentrations clipped at zero."""
    X = belief.mean[:, None] + np.linalg.cholesky(belief.cov) @ rng.standard_normal((4, n))
    X[:2] = np.maximum(X[:2], 0.0)
    return X


@settings(max_examples=60, deadline=None)
@given(belief=admissible_beliefs(), residual=st.floats(-10.0, 10.0))
def test_ekf_step_keeps_finite_mean_and_psd_covariance(belief, residual):
    t1 = belief.time + DT
    prior = ekf_predict(MODEL, belief, interval_inputs(FLOW, belief.time, t1), t1)
    check(prior)
    post, _, _ = kalman_update(prior, MODEL, np.array([prior.mean[2] + residual]), R)
    check(post)


@settings(max_examples=60, deadline=None)
@given(belief=admissible_beliefs(), residual=st.floats(-10.0, 10.0))
def test_ukf_step_keeps_finite_mean_and_psd_covariance(belief, residual):
    t1 = belief.time + DT
    inputs = interval_inputs(FLOW, belief.time, t1)
    # every example runs at the unit scaling and at the packaged one (alpha 0.2)
    for scaling in (UNIT_SCALING, CONFIG.ukf_scaling()):
        prior = ukf_predict(MODEL, belief, inputs, t1, scaling)
        check(prior)
        post, _, _ = ukf_update(prior, MODEL, np.array([prior.mean[2] + residual]), R, scaling)
        check(post)


@st.composite
def linear_scalar_updates(draw):
    """A Gaussian belief of dimension 1 to 5 and one scalar linear measurement ``y = C x + v``."""
    n = draw(st.integers(1, 5))
    std = draw(arrays(float, n, elements=st.floats(1e-2, 1e2)))
    M = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    S = M @ M.T + 0.1 * np.eye(n)
    d = np.sqrt(np.diag(S))
    P = (S / np.outer(d, d)) * np.outer(std, std)
    mean = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    C = draw(arrays(float, (1, n), elements=st.floats(-2.0, 2.0)))
    R = np.array([[draw(st.floats(1e-3, 1e3))]])
    y = np.array([draw(st.floats(-100.0, 100.0))])
    return GaussianBelief(mean, P), C, R, y


@settings(max_examples=100, deadline=None)
@given(case=linear_scalar_updates())
def test_joseph_update_equals_standard_form(case):
    belief, C, R, y = case
    n = belief.dim
    model = SdeModel(dim_noise=n,
                     drift=lambda t, x, u: np.zeros_like(x),
                     diffusion=lambda u: np.eye(n),
                     measure=lambda t, x: C @ x,
                     measure_jacobian=lambda t, x: C)
    post, e, _ = kalman_update(belief, model, y, R)
    P = belief.cov
    Re = C @ P @ C.T + R
    K = (P @ C.T) / Re[0, 0]
    standard = P - K @ Re @ K.T
    # each entry relative to its prior scale sqrt(P_ii P_jj)
    scale = np.sqrt(np.outer(np.diag(P), np.diag(P)))
    assert np.all(np.abs(post.cov - standard) <= 1e-9 * scale)
    assert np.all(np.abs(post.mean - (belief.mean + K @ e))
                  <= 1e-9 * (np.abs(belief.mean) + np.sqrt(np.diag(P))))


@settings(max_examples=60, deadline=None)
@given(belief=admissible_beliefs(), residual=st.floats(-10.0, 10.0),
       n_p=st.integers(1, 200), policy=st.sampled_from(["ess", "always", "never"]),
       seed=st.integers(0, 2**32 - 1))
def test_pf_step_leaves_normalized_weights_and_bounded_ess(belief, residual, n_p, policy, seed):
    rng = np.random.default_rng(seed)
    X = sample_members(belief, n_p, rng)
    w = rng.uniform(0.05, 1.0, n_p)
    t1 = belief.time + DT
    y = np.array([belief.mean[2] + residual])
    stream = NoiseStream(seed)
    X = propagate_members(MODEL, X, interval_inputs(FLOW, belief.time, t1), belief.time, t1,
                          stream.generator())
    propagated = ParticleSet(X, w / w.sum(), t1)
    weighted, _, _ = pf_update(propagated, MODEL, y, R)
    out, ess, _ = pf_resample(weighted, ResamplePolicy(policy, 0.5),
                              stream.child(0).generator())
    assert np.all(out.weights >= 0.0)
    assert abs(float(out.weights.sum()) - 1.0) <= 1e-12
    # 1 <= ESS <= N holds exactly for normalized weights; allow roundoff in 1 / sum(w^2)
    assert 1.0 - 1e-12 <= ess <= n_p * (1.0 + 1e-12)
    assert np.all(np.isfinite(out.members))
    check(posterior_summary(weighted))


@settings(max_examples=60, deadline=None)
@given(belief=admissible_beliefs(), residual=st.floats(-10.0, 10.0),
       obs_variance=st.floats(1e-2, 1e2), n=st.integers(2, 200),
       seed=st.integers(0, 2**32 - 1))
def test_enkf_update_keeps_psd_summary_and_moves_members_toward_their_data(
        belief, residual, obs_variance, n, seed):
    X = sample_members(belief, n, np.random.default_rng(seed))
    t = belief.time
    y = np.array([belief.mean[2] + residual])
    R = np.array([[obs_variance]])
    post, _, Re = enkf_update(Ensemble(X, t), MODEL, y, R, NoiseStream(seed).generator())
    check(posterior_summary(post))
    # the perturbations are one (dim_obs, N) standard-normal draw of the stream
    V = chol_psd(R) @ NoiseStream(seed).generator().standard_normal((1, n))
    before = MODEL.measure(t, X)
    towards = y[:, None] + V - before
    moved = MODEL.measure(t, post.members) - before
    # the temperature is measured directly, so H K = S / (S + R) with S = Re - R
    fraction = 1.0 - obs_variance / Re[0, 0]
    assert 0.0 <= fraction < 1.0
    assert np.all(np.abs(moved - fraction * towards)
                  <= 1e-9 * (np.abs(before) + np.abs(towards)))


@st.composite
def normalized_weights(draw):
    """Random weights, or uniform ones, where every weight is exactly 1/N."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        return np.full(n, 1.0 / n)
    w = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    w[draw(st.integers(0, n - 1))] += 1.0  # a positive total
    return w / w.sum()


@settings(max_examples=200, deadline=None)
@given(weights=normalized_weights(), seed=st.integers(0, 2**32 - 1))
def test_systematic_resample_keeps_every_particle_of_weight_at_least_one_over_n(weights,
                                                                              seed):
    n = weights.size
    labels = np.arange(n, dtype=float)[None, :]
    out = systematic_resample(ParticleSet(labels, weights), np.random.default_rng(seed))
    kept = set(out.members[0].astype(int))
    heavy = np.flatnonzero(weights >= 1.0 / n)
    assert set(heavy) <= kept, f"dropped {sorted(set(heavy) - kept)}"

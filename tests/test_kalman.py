"""Tests for the moment-ODE prediction and Joseph-form measurement update."""
import dataclasses

import numpy as np
import pytest

from cdassim.config import load_config
from cdassim.cstr import default_experiment_model
from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.kalman import _moment_rhs, ekf_predict, kalman_update
from cdassim.harness import generate_truth_and_measurements, run_all_filters
from cdassim.sde import DivergenceError, SdeModel

from closedform import ou_transition
from stages import constant, interval_inputs, linear_sde


def test_update_scalar_standard_values():
    # unit prior, unit observation noise, y = 1: gain 1/2, posterior (1/2, 1/2)
    post, e, Re = kalman_update(
        GaussianBelief(np.zeros(1), np.ones((1, 1))),
        linear_sde(1.0, 0.0), np.array([1.0]), np.array([[1.0]]))
    assert e[0] == pytest.approx(1.0)
    assert Re[0, 0] == pytest.approx(2.0)
    assert post.mean[0] == pytest.approx(0.5, abs=1e-14)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_update_joseph_form_keeps_covariance_psd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        ny = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        P = A @ A.T + 0.1 * np.eye(n)
        C = rng.standard_normal((ny, n))
        B = rng.standard_normal((ny, ny))
        R = B @ B.T + 0.1 * np.eye(ny)
        model = SdeModel(
            dim_noise=n,
            drift=lambda t, x, u: np.zeros(n),
            diffusion=lambda u: np.eye(n),
            measure=lambda t, x, C=C: C @ x,
            measure_jacobian=lambda t, x, C=C: C,
        )
        post, _, _ = kalman_update(
            GaussianBelief(np.zeros(n), P), model, rng.standard_normal(ny), R)
        assert np.allclose(post.cov, post.cov.T)
        w = np.linalg.eigvalsh(post.cov)
        assert w.min() > -1e-12 * w.max()
        # the update can only shrink the covariance
        shrink = np.linalg.eigvalsh(P - post.cov)
        assert shrink.min() > -1e-10 * np.linalg.eigvalsh(P).max()


def test_predict_exponential_decay():
    pred = ekf_predict(
        linear_sde(1.0, 0.0), GaussianBelief(np.ones(1), np.ones((1, 1))),
        interval_inputs(constant(0.0), 0.0, 1.0, substeps=40), 1.0)
    assert pred.mean[0] == pytest.approx(np.exp(-1.0), rel=1e-7)
    assert pred.cov[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)


def test_predict_pure_diffusion_grows_variance_linearly():
    pred = ekf_predict(
        linear_sde(0.0, 0.7), GaussianBelief(np.zeros(1), 0.25 * np.ones((1, 1))),
        interval_inputs(constant(0.0), 0.0, 2.0, substeps=10), 2.0)
    assert pred.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert pred.cov[0, 0] == pytest.approx(0.25 + 0.7**2 * 2.0, rel=1e-12)


def test_predict_with_constant_input_matches_exact_transition():
    a, b, sigma = 0.8, 0.4, 0.6
    pred = ekf_predict(
        linear_sde(a, sigma), GaussianBelief(np.array([2.0]), np.array([[0.5]])),
        interval_inputs(constant(b), 0.0, 0.7, substeps=50), 0.7)
    phi, shift, q = ou_transition(a, b, sigma, 0.7)
    assert pred.mean[0] == pytest.approx(phi * 2.0 + shift, rel=1e-8)
    assert pred.cov[0, 0] == pytest.approx(phi**2 * 0.5 + q, rel=1e-8)


def test_predict_time_handling():
    model, belief = linear_sde(1.0, 0.0), GaussianBelief(np.ones(1), np.ones((1, 1)), time=1.0)
    assert ekf_predict(model, belief, interval_inputs(constant(), 1.0, 1.0), 1.0) is belief
    with pytest.raises(ValueError):
        ekf_predict(model, belief, interval_inputs(constant(), 1.0, 0.5), 0.5)


def test_predict_applies_constraint_to_mean():
    model = dataclasses.replace(linear_sde(5.0, 0.0), constrain=lambda x: np.maximum(x, 0.5))
    pred = ekf_predict(model, GaussianBelief(np.ones(1), np.ones((1, 1))),
                       interval_inputs(constant(0.0), 0.0, 2.0), 2.0)
    assert pred.mean[0] == pytest.approx(0.5)


def cstr_across_breakpoint(sigma_theta):
    """The joint CSTR model and the stage inputs of 195 s to 205 s in 1 s substeps,
    across the flow step at 200 s."""
    cfg = load_config()
    flow = cfg.flow_profile()
    model = default_experiment_model(cfg.cstr_params(), flow, sigma_theta).model
    return model, interval_inputs(flow, 195.0, 205.0, substeps=10)


@pytest.mark.parametrize("sigma_theta", [0.0, 0.05])
def test_predict_keeps_a_symmetric_covariance_exactly_symmetric(sigma_theta):
    # every stage rate A P + (A P)^T + g g^T is exactly symmetric when P is,
    # so the one symmetrize on return gives what one after every substep gives
    model, inputs = cstr_across_breakpoint(sigma_theta)
    B = np.diag([1e-2, 1e-2, 2.0, 5.0]) @ np.random.default_rng(3).standard_normal((4, 4))
    prior = GaussianBelief(np.array([0.4, 0.8, 300.0, 125.0]), B @ B.T, time=195.0)
    assert prior.cov.tobytes() == prior.cov.T.tobytes()
    pred = ekf_predict(model, prior, inputs, 205.0)
    assert pred.cov.tobytes() == pred.cov.T.tobytes()
    stepped = prior
    for j in range(len(inputs)):  # one substep per call, symmetrized after each
        stepped = ekf_predict(model, stepped, inputs[j:j + 1], 196.0 + j)
    assert pred.mean.tobytes() == stepped.mean.tobytes()
    assert pred.cov.tobytes() == stepped.cov.tobytes()


def test_predict_returns_a_symmetric_covariance_from_an_asymmetric_prior():
    model, inputs = cstr_across_breakpoint(0.05)
    cov = np.diag([1e-4, 1e-4, 4.0, 25.0])
    cov[2, 3] = 0.5
    pred = ekf_predict(model, GaussianBelief(np.array([0.4, 0.8, 300.0, 125.0]), cov, 195.0),
                       inputs, 205.0)
    assert pred.cov.tobytes() == pred.cov.T.tobytes()


def test_moment_rate_is_the_drift_over_the_lyapunov_rate_bitwise():
    # the rate built in the model's [f; A] block holds the bits of the
    # assembly [f; A P + (A P)^T + g g^T] from a separate linearization
    cfg = load_config()
    flow = cfg.flow_profile()
    model = default_experiment_model(cfg.cstr_params(), flow, cfg.sigma_theta).model
    out = run_all_filters(cfg, generate_truth_and_measurements(cfg), ["ekf"],
                          serial=True)["ekf"].output
    rhs = _moment_rhs(model)
    for k in (0, 19, 20, 105, 209):
        t, m, P = out.times[k], out.post_mean[k], out.post_cov[k]
        u = flow.at(t)
        block = model.linearize(t, m, u)
        g = model.diffusion(u)
        AP = np.dot(block[1:], P)
        expected = np.vstack((block[0], AP + AP.T + g @ g.T))
        assert rhs(t, np.vstack((m, P)), u).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_predict_flags_divergence():
    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: x**3,
        diffusion=lambda u: np.zeros((1, 1)),
        measure=lambda t, x: x,
        linearize=lambda t, x, u: np.vstack((x**3, 3.0 * x**2)),
    )
    with pytest.raises(DivergenceError) as err:
        ekf_predict(model, GaussianBelief(10.0 * np.ones(1), np.ones((1, 1))),
                    interval_inputs(constant(), 0.0, 5.0, substeps=5), 5.0)
    assert str(err.value) == "EKF moments diverged by t=5.0"

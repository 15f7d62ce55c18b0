"""Tests for the sigma-point machinery and the unscented filter steps."""

import numpy as np
import pytest

from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.kalman import ekf_predict, kalman_update
from cdassim.filters.unscented import UkfScaling, ukf_predict, ukf_sigma_points, ukf_update
from cdassim.sde import SdeModel

from stages import UNIT_SCALING, constant, interval_inputs, linear_sde


def test_scaling_validation():
    with pytest.raises(ValueError):
        UkfScaling(alpha=0.0, beta=2.0, kappa=0.0)
    with pytest.raises(ValueError):
        UkfScaling(alpha=1.0, beta=2.0, kappa=-1.0)
    with pytest.raises(TypeError):  # no defaults: the config names all three
        UkfScaling()


def test_unit_scaling_single_state_points():
    # n = 1, alpha = 1, kappa = 0: points {0, +1, -1}, mean weights {0, 1/2, 1/2}
    points, wm, _ = ukf_sigma_points(GaussianBelief(np.zeros(1), np.ones((1, 1))),
                                     UNIT_SCALING)
    assert points.shape == (1, 3)
    assert np.allclose(points, [[0.0, 1.0, -1.0]])
    assert np.allclose(wm, [0.0, 0.5, 0.5])


def test_small_alpha_augmented_weights():
    # four states plus one noise coordinate of variance dt = 10, the belief
    # ukf_predict builds, at alpha 0.2: 11 points, center mean weight
    # (c - nbar)/c = -24, all others 1/(2c) = 2.5
    cov = np.eye(5)
    cov[4, 4] = 10.0
    points, wm, wc = ukf_sigma_points(GaussianBelief(np.zeros(5), cov),
                                      UkfScaling(0.2, 2.0, 0.0))
    assert points.shape == (5, 11)
    assert wm[0] == pytest.approx(-24.0)
    assert np.allclose(wm[1:], 2.5)
    assert wc[0] == pytest.approx(-24.0 + 1.0 - 0.2**2 + 2.0)
    assert np.allclose(wc[1:], 2.5)
    # the weights are cached per (dimension, scaling), so no caller may write to them
    assert not (wm.flags.writeable or wc.flags.writeable)
    # noise coordinates live on the fifth +/- pair only, at sqrt(c * dt)
    spread = np.sqrt(0.2 * 10.0)
    expected = np.zeros(11)
    expected[5], expected[10] = spread, -spread
    assert np.allclose(points[4], expected)


def test_sigma_points_reconstruct_moments():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    m = rng.standard_normal(3)
    for scaling in (UNIT_SCALING, UkfScaling(0.5, 2.0, 1.0), UkfScaling(0.2, 2.0, 0.0)):
        points, wm, wc = ukf_sigma_points(GaussianBelief(m, P), scaling)
        mean = points @ wm
        dev = points - mean[:, None]
        assert np.allclose(mean, m, atol=1e-12)
        assert np.allclose((dev * wc) @ dev.T, P, atol=1e-9)


def test_transform_mean_exact_for_quadratic():
    # weighted mean of the x -> x^2 images is m^2 + P for any scaling
    m, P = 0.7, 0.3
    for scaling in (UNIT_SCALING, UkfScaling(0.3, 2.0, 0.5)):
        points, wm, _ = ukf_sigma_points(GaussianBelief(np.array([m]), np.array([[P]])),
                                         scaling)
        val = (points[0] ** 2) @ wm
        assert val == pytest.approx(m * m + P, rel=1e-12)


def test_transform_mean_accurate_for_sine():
    # E sin(x) = sin(m) exp(-P/2) for Gaussian x; kappa = 2 matches the
    # fourth moment, leaving an O(P^3) error
    m, P = 0.7, 0.25
    points, wm, _ = ukf_sigma_points(GaussianBelief(np.array([m]), np.array([[P]])),
                                     UkfScaling(1.0, 2.0, 2.0))
    val = np.sin(points[0]) @ wm
    assert val == pytest.approx(np.sin(m) * np.exp(-P / 2.0), rel=1e-3)


def test_predict_matches_moment_ode_for_linear_sde():
    model = linear_sde(1e-3, 1.0)
    belief = GaussianBelief(np.array([2.0]), np.array([[0.5]]))
    u = interval_inputs(constant(0.01), 0.0, 0.1, substeps=10)
    by_ode = ekf_predict(model, belief, u, 0.1)
    by_points = ukf_predict(model, belief, u, 0.1, UNIT_SCALING)
    assert by_points.mean[0] == pytest.approx(by_ode.mean[0], rel=1e-10)
    assert by_points.cov[0, 0] == pytest.approx(by_ode.cov[0, 0], rel=1e-8)


def test_predict_pure_diffusion_is_exact():
    pred = ukf_predict(
        linear_sde(0.0, 0.7), GaussianBelief(np.zeros(1), 0.25 * np.ones((1, 1))),
        interval_inputs(constant(0.0), 0.0, 2.0, substeps=7), 2.0, UNIT_SCALING)
    assert pred.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert pred.cov[0, 0] == pytest.approx(0.25 + 0.7**2 * 2.0, rel=1e-12)


def test_update_matches_kalman_for_linear_measure():
    rng = np.random.default_rng(3)
    n, ny = 3, 2
    A = rng.standard_normal((n, n))
    P = A @ A.T + 0.3 * np.eye(n)
    C = rng.standard_normal((ny, n))
    B = rng.standard_normal((ny, ny))
    R = B @ B.T + 0.2 * np.eye(ny)
    y = rng.standard_normal(ny)
    model = SdeModel(
        dim_noise=n,
        drift=lambda t, x, u: np.zeros(n),
        diffusion=lambda u: np.eye(n),
        measure=lambda t, x: C @ x,
        measure_jacobian=lambda t, x: C,
    )
    belief = GaussianBelief(rng.standard_normal(n), P)
    for scaling in (UNIT_SCALING, UkfScaling(0.9, 2.0, 0.3)):
        u_post, u_e, u_Re = ukf_update(belief, model, y, R, scaling)
        k_post, k_e, k_Re = kalman_update(belief, model, y, R)
        assert np.allclose(u_post.mean, k_post.mean, atol=1e-8)
        assert np.allclose(u_post.cov, k_post.cov, atol=1e-8)
        assert np.allclose(u_e, k_e, atol=1e-10)
        assert np.allclose(u_Re, k_Re, atol=1e-8)


def test_update_weakly_nonlinear_against_sampling_oracle():
    # brute-force Bayes rule on a dense prior sample as the reference
    rng = np.random.default_rng(5)
    m0, P0, R, y = 0.2, 0.09, 0.04, 0.5

    def h(x):
        return x + 0.1 * x**2

    xs = m0 + np.sqrt(P0) * rng.standard_normal(400_000)
    logw = -0.5 * (y - h(xs)) ** 2 / R
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean_mc = float(w @ xs)
    var_mc = float(w @ (xs - mean_mc) ** 2)

    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: np.zeros(1),
        diffusion=lambda u: np.eye(1),
        measure=lambda t, x: h(x),
    )
    post, _, _ = ukf_update(GaussianBelief(np.array([m0]), np.array([[P0]])),
                            model, np.array([y]), np.array([[R]]),
                            UkfScaling(1.0, 2.0, 2.0))
    assert post.mean[0] == pytest.approx(mean_mc, abs=0.006)
    assert post.cov[0, 0] == pytest.approx(var_mc, rel=0.12)

"""Tests for ensemble propagation and the perturbed-observation analysis."""
import numpy as np
import pytest

from cdassim.filters.beliefs import Ensemble, posterior_summary
from cdassim.filters.enkf import enkf_update
from cdassim.filters.linalg import chol_psd
from cdassim.sde import DivergenceError, NoiseStream, SdeModel, propagate_members

from stages import constant, interval_inputs, linear_sde


def test_propagate_members_matches_discrete_chain_moments():
    # the per-substep update has exactly computable mean and variance, so
    # the sample statistics must match them to Monte Carlo accuracy
    a, sigma, x0, t1 = 0.8, 0.5, 2.0, 1.0
    K, N = 40, 20000
    model = linear_sde(a, sigma)
    X1 = propagate_members(model, np.full((1, N), x0), interval_inputs(constant(0.0), 0.0, t1, K),
                           0.0, t1, NoiseStream(7, 3).generator())
    h = t1 / K
    factor = 1.0 - a * h
    mean_exact = x0 * factor**K
    var_exact = sigma**2 * h * (1.0 - factor ** (2 * K)) / (1.0 - factor**2)
    assert X1.mean() == pytest.approx(mean_exact, abs=4.0 * np.sqrt(var_exact / N))
    assert X1.var(ddof=1) == pytest.approx(var_exact, rel=4.0 * np.sqrt(2.0 / N))


def test_propagate_members_time_edges():
    model = linear_sde(1.0, 0.5)
    X = np.array([[1.0, 2.0]])
    noise = NoiseStream(1).generator()
    same = propagate_members(model, X, interval_inputs(constant(0.0), 3.0, 3.0), 3.0, 3.0, noise)
    assert np.array_equal(same, X)
    assert same is not X
    with pytest.raises(ValueError):
        propagate_members(model, X, interval_inputs(constant(0.0), 3.0, 2.0), 3.0, 2.0, noise)


def test_propagate_members_is_euler_maruyama_over_one_block():
    # every increment comes from one (substeps, n_w, N) draw of the stream:
    # substep j of member i uses block[j, :, i]
    A = np.array([[-0.5, 0.2], [0.1, -0.3]])
    G = np.array([[0.4, 0.0], [0.3, 0.2]])
    model = SdeModel(
        dim_noise=2,
        drift=lambda t, x, u: A @ x + u[:, None] * (1.0 + t),
        diffusion=lambda u: G,
        measure=lambda t, x: x[:1],
    )
    rng = np.random.default_rng(3)
    X0 = rng.standard_normal((2, 7))
    u = np.array([0.1, -0.2])
    t0, t1, K = 0.5, 1.3, 6
    stream = NoiseStream(31, 4)
    X1 = propagate_members(model, X0, interval_inputs(constant(u), t0, t1, K), t0, t1,
                           stream.generator())

    h = (t1 - t0) / K
    block = stream.generator().standard_normal((K, 2, 7)) * np.sqrt(h)
    X = X0.copy()
    for j in range(K):
        t = t0 + j * h
        X = X + (A @ X + u[:, None] * (1.0 + t)) * h + G @ block[j]
    assert np.array_equal(X1, X)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_propagate_members_reports_diverged_member():
    # a bounded drift that pushes positive members past the float range
    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: np.where(x > 0, 1.7e308, 0.0),
        diffusion=lambda u: np.zeros((1, 1)),
        measure=lambda t, x: x,
    )
    with pytest.raises(DivergenceError) as err:
        propagate_members(model, np.array([[-1.0, 50.0]]),
                          interval_inputs(constant(0.0), 0.0, 2.0, 8), 0.0, 2.0,
                          NoiseStream(2).generator())
    assert "member 1" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_propagate_members_converts_midstep_overflow():
    # drift itself overflows during a substep; still surfaces as divergence
    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: x**3,
        diffusion=lambda u: np.zeros((1, 1)),
        measure=lambda t, x: x,
    )
    with pytest.raises(DivergenceError):
        propagate_members(model, np.array([[0.1, 50.0]]),
                          interval_inputs(constant(0.0), 0.0, 5.0, 5), 0.0, 5.0,
                          NoiseStream(2).generator())


def test_ensemble_needs_two_members():
    # the sample covariance of the EnKF gain and summary needs N - 1 > 0
    with pytest.raises(ValueError, match="at least two members"):
        Ensemble(np.ones((3, 1)))
    assert Ensemble(np.ones((3, 2))).members.shape == (3, 2)


def test_member_prediction_is_reproducible_per_stream():
    model = linear_sde(1.0, 0.5)
    X = np.linspace(-1.0, 1.0, 8)[None, :]
    stream = NoiseStream(12, 5)
    u = interval_inputs(constant(0.0), 0.0, 0.5)
    a = propagate_members(model, X, u, 0.0, 0.5, stream.generator())
    b = propagate_members(model, X, u, 0.0, 0.5, stream.generator())
    c = propagate_members(model, X, u, 0.0, 0.5, stream.child(1).generator())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_enkf_update_zero_spread_is_a_fixed_point():
    # identical members carry no sampled covariance, so the gain vanishes
    model = linear_sde(1.0, 0.5)
    ens = Ensemble(np.full((1, 5), 0.3))
    post, e, Re = enkf_update(ens, model, np.array([2.0]), np.array([[0.5]]),
                              NoiseStream(3).generator())
    assert np.array_equal(post.members, ens.members)
    assert posterior_summary(post).cov[0, 0] == 0.0
    assert e[0] == pytest.approx(2.0 - 0.3)
    assert Re[0, 0] == pytest.approx(0.5)


def test_enkf_update_matches_direct_formulas():
    # replicate the documented arithmetic with the same perturbation draws
    rng = np.random.default_rng(21)
    n, ny, N = 2, 2, 6
    X = rng.standard_normal((n, N))
    C = rng.standard_normal((ny, n))
    R = np.diag([0.09, 0.04])
    y = np.array([0.4, -0.2])
    model = SdeModel(
        dim_noise=n,
        drift=lambda t, x, u: np.zeros(n),
        diffusion=lambda u: np.eye(n),
        measure=lambda t, x: C @ x,
    )
    stream = NoiseStream(77)
    post, e, Re = enkf_update(Ensemble(X), model, y, R, stream.generator())

    V = chol_psd(R) @ stream.generator().standard_normal((ny, N))
    Yp = C @ X
    E = (y[:, None] + V) - Yp
    Xd = X - X.mean(axis=1, keepdims=True)
    Yd = Yp - Yp.mean(axis=1, keepdims=True)
    Ryy = (Yd @ Yd.T) / (N - 1) + R
    K = np.linalg.solve(Ryy, (Xd @ Yd.T).T / (N - 1)).T
    assert np.allclose(post.members, X + K @ E, atol=1e-12)
    assert np.allclose(Re, Ryy, atol=1e-14)
    assert np.allclose(e, y - Yp.mean(axis=1), atol=1e-14)


def test_enkf_update_requires_matching_measurement_shape():
    model = linear_sde(1.0, 0.5)
    ens = Ensemble(np.ones((1, 4)))
    with pytest.raises(ValueError):
        enkf_update(ens, model, np.array([1.0, 2.0]), np.eye(2), NoiseStream(0).generator())

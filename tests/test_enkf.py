"""The ensemble and the EnKF's perturbed-observation analysis.

The members' prediction, which the EnKF shares with the PF, is tested in
``test_sde.py``; a whole run's noise streams in ``test_runner.py``.
"""
import numpy as np
import pytest

from cdassim.filters.beliefs import Ensemble, posterior_summary
from cdassim.filters.enkf import enkf_update
from cdassim.filters.linalg import chol_psd
from cdassim.sde import DivergenceError, NoiseStream, SdeModel

from stages import linear_sde


def test_ensemble_needs_two_members():
    # the sample covariance of the EnKF gain and summary needs N - 1 > 0
    with pytest.raises(ValueError, match="at least two members"):
        Ensemble(np.ones((3, 1)))
    assert Ensemble(np.ones((3, 2))).members.shape == (3, 2)


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


@pytest.mark.filterwarnings("ignore:overflow")
def test_enkf_update_reports_an_analysis_that_leaves_the_finite_numbers():
    # 50 members measured in a row about N(0, 1), with an unmeasured row about
    # 1e306 times it: the innovation covariance is finite and the gain
    # solves, yet the gain times a large innovation overflows that row
    x = np.random.default_rng(5).standard_normal(50)
    model = SdeModel(
        dim_noise=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda u: np.zeros((2, 1)),
        measure=lambda t, x: x[:1],
    )
    with pytest.raises(DivergenceError, match=r"^EnKF update diverged at t=4\.0$"):
        enkf_update(Ensemble(np.vstack((x, 1e306 * x)), 4.0), model, np.array([1e3]),
                    np.array([[1.0]]), NoiseStream(6).generator())

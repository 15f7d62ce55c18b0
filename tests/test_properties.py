"""Property tests: Gaussian filter invariants on the joint CSTR model.

From random admissible beliefs (states near the adiabatic branch, where the
reactor's rates are what the default 1 s Runge-Kutta substep resolves, and
random correlated covariances), one EKF and one UKF predict+update over a
sampling interval must return finite means and symmetric PSD covariances.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdassim.config import load_config
from cdassim.cstr import adiabatic_concentrations, default_experiment_model
from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.kalman import ekf_predict, kalman_update
from cdassim.filters.unscented import UkfScaling, ukf_predict, ukf_update

from stages import interval_inputs

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


def check(belief: GaussianBelief) -> None:
    assert np.all(np.isfinite(belief.mean))
    assert np.all(np.isfinite(belief.cov))
    belief.validate()


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
    scaling = UkfScaling()
    t1 = belief.time + DT
    prior = ukf_predict(MODEL, belief, interval_inputs(FLOW, belief.time, t1), t1, scaling)
    check(prior)
    post, _, _ = ukf_update(prior, MODEL, np.array([prior.mean[2] + residual]), R, scaling)
    check(post)

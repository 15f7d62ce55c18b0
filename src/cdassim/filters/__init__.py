"""Continuous-discrete Bayesian filters over SDE models."""
from cdassim.filters.beliefs import (
    Ensemble,
    FilterOutput,
    GaussianBelief,
    ParticleSet,
    SigmaPointSet,
    posterior_summary,
)
from cdassim.filters.enkf import enkf_predict, enkf_update
from cdassim.filters.kalman import DivergenceError, ekf_predict, innovation_stats, kalman_update
from cdassim.filters.linalg import (
    FactorizationError,
    SingularInnovationError,
    chol_psd,
    condition_number,
    solve_spd,
    symmetrize,
)
from cdassim.filters.montecarlo import propagate_members
from cdassim.filters.pf import (
    DegenerateWeightsError,
    PfStepInfo,
    ResamplePolicy,
    effective_sample_size,
    pf_step,
    systematic_resample,
)
from cdassim.filters.runner import (
    FILTER_KINDS,
    FilterConfig,
    FilterRunError,
    run_filter,
)
from cdassim.filters.unscented import UkfScaling, ukf_predict, ukf_sigma_points, ukf_update

__all__ = [
    "Ensemble",
    "FilterOutput",
    "GaussianBelief",
    "ParticleSet",
    "SigmaPointSet",
    "posterior_summary",
    "enkf_predict",
    "enkf_update",
    "DivergenceError",
    "ekf_predict",
    "innovation_stats",
    "kalman_update",
    "FactorizationError",
    "SingularInnovationError",
    "chol_psd",
    "condition_number",
    "solve_spd",
    "symmetrize",
    "propagate_members",
    "DegenerateWeightsError",
    "PfStepInfo",
    "ResamplePolicy",
    "effective_sample_size",
    "pf_step",
    "systematic_resample",
    "FILTER_KINDS",
    "FilterConfig",
    "FilterRunError",
    "run_filter",
    "UkfScaling",
    "ukf_predict",
    "ukf_sigma_points",
    "ukf_update",
]

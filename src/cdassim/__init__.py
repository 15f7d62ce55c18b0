"""Continuous-discrete Bayesian filtering for SDE models with discrete observations."""

from cdassim.sde import (
    DivergenceError,
    NoiseStream,
    PiecewiseConstant,
    SdeModel,
    Trajectory,
    euler_maruyama_step,
    simulate_path,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "NoiseStream",
    "PiecewiseConstant",
    "SdeModel",
    "Trajectory",
    "euler_maruyama_step",
    "simulate_path",
    "__version__",
]

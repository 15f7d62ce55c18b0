"""Continuous-discrete Bayesian filtering for SDE models with discrete observations."""

__version__ = "0.1.0"

__all__ = ["__version__"]

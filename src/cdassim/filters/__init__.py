"""Continuous-discrete Bayesian filters over SDE models."""

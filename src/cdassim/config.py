"""Experiment configuration: strict schema, defaults file, canonical hashing.

Configs resolve in three layers: packaged defaults, then the user's JSON
file, then explicit overrides (CLI flags). Unknown or ill-typed keys are
hard errors that list every offending key at once, so a typo in a filter
setting cannot silently fall back to a default. The packaged defaults file
is the one place the twin experiment's values are written down.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from cdassim.cstr import CstrParams
from cdassim.filters.pf import ResamplePolicy
from cdassim.filters.unscented import UkfScaling
from cdassim.sde import PiecewiseConstant

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "default_config_dict"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """One or more invalid config entries; ``problems`` lists all of them."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _is_number(v) -> bool:
    # json parses Infinity and NaN; neither is a legal value of any key
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_number(x) for x in v)


# leaf name -> (predicate, description); nesting mirrors the JSON layout
_SCHEMA = {
    "schema_version": (lambda v: v == SCHEMA_VERSION, f"must equal {SCHEMA_VERSION}"),
    "horizon_minutes": (lambda v: _is_number(v) and v > 0, "must be a positive number"),
    "n_samples": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "must be an integer in [0, 2^64)"),
    "substeps": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "out_dir": (lambda v: isinstance(v, str) and len(v) > 0, "must be a non-empty string"),
    "noise": {
        "sigma_T": (lambda v: _is_number(v) and v >= 0, "must be a number >= 0"),
        # zero is legal for simulate only (a noiseless twin measures the
        # temperature exactly); the filters need a positive variance
        "obs_variance": (lambda v: _is_number(v) and v >= 0, "must be a number >= 0"),
        "sigma_theta": (lambda v: _is_number(v) and v >= 0, "must be a number >= 0"),
    },
    "truth": {
        "init_state": (lambda v: _number_list(v) and len(v) == 3, "must be a 3-number list"),
        "beta": (lambda v: _is_number(v) and v != 0, "must be a nonzero number"),
    },
    "filter": {
        "init_state": (lambda v: _number_list(v) and len(v) == 3, "must be a 3-number list"),
        "beta": (lambda v: _is_number(v), "must be a number"),
        "init_cov_diag": (lambda v: _number_list(v) and len(v) == 4 and all(x > 0 for x in v),
                          "must be a 4-list of positive numbers"),
    },
    "ukf": {
        "alpha": (lambda v: _is_number(v) and 0 < v <= 1, "must be a number in (0, 1]"),
        "beta": (lambda v: _is_number(v), "must be a number"),
        "kappa": (lambda v: _is_number(v) and v >= 0, "must be a number >= 0"),
    },
    "monte_carlo": {
        "ensemble_size": (lambda v: _is_int(v) and v >= 2, "must be an integer >= 2"),
        "particle_count": (lambda v: _is_int(v) and v >= 2, "must be an integer >= 2"),
        "oracle_particle_count": (lambda v: _is_int(v) and v >= 2, "must be an integer >= 2"),
    },
    "resample": {
        "kind": (lambda v: v in ("always", "never", "ess"), "must be one of always/never/ess"),
        "threshold": (lambda v: _is_number(v) and 0 < v <= 1, "must be a number in (0, 1]"),
    },
    "flow": {
        "breakpoints": (_number_list, "must be a non-empty number list"),
        "values": (lambda v: _number_list(v) and all(x > 0 for x in v),
                   "must be a non-empty list of positive numbers"),
    },
}


def default_config_dict() -> dict:
    """Packaged defaults reproducing the reference twin-experiment setup."""
    text = resources.files("cdassim").joinpath("data/default_config.json").read_text()
    return json.loads(text)


def _walk_unknown(data, schema, prefix, problems):
    for key, value in data.items():
        path = f"{prefix}{key}"
        if key not in schema:
            problems.append(f"unknown key: {path}")
        elif isinstance(schema[key], dict):
            if isinstance(value, dict):
                _walk_unknown(value, schema[key], path + ".", problems)
            else:
                problems.append(f"{path}: must be an object")


def _validate_leaves(data, schema, prefix, problems):
    for key, rule in schema.items():
        path = f"{prefix}{key}"
        if key not in data:
            problems.append(f"missing key: {path}")
        elif isinstance(rule, dict):
            if isinstance(data[key], dict):
                _validate_leaves(data[key], rule, path + ".", problems)
        else:
            check, desc = rule
            if not check(data[key]):
                problems.append(f"{path}: {desc} (got {data[key]!r})")


def _merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved twin-experiment configuration."""

    raw: dict = field(repr=False)

    # resolved scalars, unpacked for convenient access
    horizon_minutes: float = field(init=False)
    n_samples: int = field(init=False)
    seed: int = field(init=False)
    substeps: int = field(init=False)

    def __post_init__(self):
        r = self.raw
        object.__setattr__(self, "horizon_minutes", float(r["horizon_minutes"]))
        object.__setattr__(self, "n_samples", int(r["n_samples"]))
        object.__setattr__(self, "seed", int(r["seed"]))
        object.__setattr__(self, "substeps", int(r["substeps"]))

    # -- derived quantities ------------------------------------------------
    @property
    def horizon_seconds(self) -> float:
        return self.horizon_minutes * 60.0

    @property
    def dt_sample(self) -> float:
        return self.horizon_seconds / self.n_samples

    def sample_times(self) -> np.ndarray:
        """Assimilation instants t_1 .. t_n (t_0 = 0 is the prior, not a step)."""
        return self.dt_sample * np.arange(1, self.n_samples + 1)

    @property
    def out_dir(self) -> str:
        return str(self.raw["out_dir"])

    @property
    def sigma_T(self) -> float:
        return float(self.raw["noise"]["sigma_T"])

    @property
    def obs_variance(self) -> float:
        return float(self.raw["noise"]["obs_variance"])

    @property
    def sigma_theta(self) -> float:
        return float(self.raw["noise"]["sigma_theta"])

    @property
    def truth_beta(self) -> float:
        return float(self.raw["truth"]["beta"])

    def truth_init(self) -> np.ndarray:
        """Augmented ground-truth start (CA, CB, T, beta)."""
        return np.array([*self.raw["truth"]["init_state"], self.truth_beta], dtype=float)

    def filter_init_mean(self) -> np.ndarray:
        return np.array([*self.raw["filter"]["init_state"], self.raw["filter"]["beta"]],
                        dtype=float)

    def filter_init_cov(self) -> np.ndarray:
        return np.diag(np.asarray(self.raw["filter"]["init_cov_diag"], dtype=float))

    @property
    def ensemble_size(self) -> int:
        return int(self.raw["monte_carlo"]["ensemble_size"])

    @property
    def particle_count(self) -> int:
        return int(self.raw["monte_carlo"]["particle_count"])

    @property
    def oracle_particle_count(self) -> int:
        return int(self.raw["monte_carlo"]["oracle_particle_count"])

    def ukf_scaling(self) -> UkfScaling:
        u = self.raw["ukf"]
        return UkfScaling(alpha=float(u["alpha"]), beta=float(u["beta"]), kappa=float(u["kappa"]))

    def resample_policy(self) -> ResamplePolicy:
        r = self.raw["resample"]
        return ResamplePolicy(kind=r["kind"], threshold=float(r["threshold"]))

    def cstr_params(self) -> CstrParams:
        return CstrParams(beta=self.truth_beta, sigma_T=self.sigma_T)

    def flow_profile(self) -> PiecewiseConstant:
        """Flow rate F(t) in L/s; the schema has checked the schedule."""
        f = self.raw["flow"]
        return PiecewiseConstant(times=f["breakpoints"], values=f["values"])

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def config_hash(self) -> str:
        """SHA-256 of the resolved config as compact JSON with sorted keys."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def validate_config_dict(data: dict) -> list[str]:
    """All schema violations in ``data``; empty list when clean."""
    problems: list[str] = []
    _walk_unknown(data, _SCHEMA, "", problems)
    _validate_leaves(data, _SCHEMA, "", problems)
    if not problems:
        br = data["flow"]["breakpoints"]
        if any(b2 <= b1 for b1, b2 in zip(br, br[1:])):
            problems.append("flow.breakpoints: must be strictly increasing")
        if len(br) != len(data["flow"]["values"]):
            problems.append("flow.values: must match breakpoints in length")
    return problems


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve defaults, optional user file, and overrides into a config.

    ``overrides`` uses the same nested layout as the file; it participates
    in validation, so an ill-typed CLI value fails like an ill-typed file
    entry. Raises :class:`ConfigError` listing every violation.
    """
    resolved = default_config_dict()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError([f"config file not found: {p}"])
        try:
            text = p.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config file {p}: {exc}"]) from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file is not valid JSON: {p}: {exc}"]) from exc
        if not isinstance(user, dict):
            raise ConfigError([f"config file must hold a JSON object: {p}"])
        user.pop("config_hash", None)  # echo files are valid config inputs
        resolved = _merge(resolved, user)
    if overrides:
        resolved = _merge(resolved, overrides)

    problems = validate_config_dict(resolved)
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(raw=resolved)

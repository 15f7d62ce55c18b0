"""Config resolution: strict schema, layering, hashing, round-trips."""
import json

import numpy as np
import pytest

from cdassim.config import (
    ConfigError,
    ExperimentConfig,
    default_config_dict,
    load_config,
    validate_config_dict,
)


def test_defaults_resolve_to_reference_setup():
    cfg = load_config()
    assert cfg.horizon_minutes == 35.0
    assert cfg.horizon_seconds == 2100.0
    assert cfg.n_samples == 210
    assert cfg.dt_sample == 10.0
    assert cfg.substeps == 10
    assert cfg.sigma_T == 5.0
    assert cfg.obs_variance == 9.0
    assert cfg.sigma_theta == 0.0
    assert cfg.out_dir == "results"
    assert cfg.ensemble_size == 1000
    assert cfg.particle_count == 1000
    assert cfg.truth_beta == pytest.approx(133.7792)
    np.testing.assert_allclose(cfg.truth_init(), [0.0, 0.0, 273.65, 133.7792])
    np.testing.assert_allclose(cfg.filter_init_mean(), [0.1, 0.2, 293.65, 123.7792])
    np.testing.assert_allclose(np.diag(cfg.filter_init_cov()), [0.01, 0.01, 400.0, 100.0])
    s = cfg.ukf_scaling()
    assert (s.alpha, s.beta, s.kappa) == (0.2, 2.0, 0.0)
    times = cfg.sample_times()
    assert times.shape == (210,)
    assert times[0] == 10.0 and times[-1] == 2100.0


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("path", [
    "horizon_minutes", "noise.sigma_T", "noise.obs_variance", "noise.sigma_theta",
    "truth.beta", "filter.beta", "ukf.beta", "ukf.kappa", "truth.init_state",
    "filter.init_state", "filter.init_cov_diag", "flow.values", "flow.breakpoints",
])
def test_non_finite_numbers_are_config_errors(tmp_path, path, value):
    # json reads Infinity and NaN; the schema must list them, not pass them on
    raw = default_config_dict()
    *parents, leaf = path.split(".")
    section = raw
    for key in parents:
        section = section[key]
    if isinstance(section[leaf], list):
        section[leaf] = [*section[leaf][:-1], value]
    else:
        section[leaf] = value
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(raw))
    assert any(p.startswith(f"{path}: ") for p in validate_config_dict(raw))
    with pytest.raises(ConfigError, match=f"{path}: "):
        load_config(cfgfile)


def test_unknown_keys_are_all_listed():
    raw = default_config_dict()
    raw["typo_top"] = 1
    raw["noise"]["sigma_t"] = 5.0  # wrong case
    raw["ukf"]["gamma"] = 0.5
    with pytest.raises(ConfigError) as err:
        load_config(overrides=raw)
    msg = str(err.value)
    assert "unknown key: typo_top" in msg
    assert "unknown key: noise.sigma_t" in msg
    assert "unknown key: ukf.gamma" in msg


def test_type_violations_are_all_listed():
    bad = {
        "seed": True,  # bool is not an integer here
        "n_samples": 0,
        "noise": {"obs_variance": -1.0},
        "resample": {"kind": "sometimes"},
        "filter": {"init_cov_diag": [1.0, 1.0, 1.0]},
    }
    with pytest.raises(ConfigError) as err:
        load_config(overrides=bad)
    problems = err.value.problems
    paths = [p.split(":")[0] for p in problems]
    for path in ("seed", "n_samples", "noise.obs_variance", "resample.kind",
                 "filter.init_cov_diag"):
        assert path in paths, f"missing problem for {path}: {problems}"


def test_flow_profile_consistency_rules():
    raw = default_config_dict()
    raw["flow"]["breakpoints"] = [0.0, 200.0, 200.0]
    assert any("strictly increasing" in p for p in validate_config_dict(raw))
    raw = default_config_dict()
    raw["flow"]["values"] = [0.01, 0.004]
    assert any("match breakpoints" in p for p in validate_config_dict(raw))
    # the schema is the only guard of the flow's sign
    for bad in ([0.01, 0.0, 0.007], [0.01, -0.004, 0.007]):
        raw = default_config_dict()
        raw["flow"]["values"] = bad
        assert any(p.startswith("flow.values: must be a non-empty list of positive numbers")
                   for p in validate_config_dict(raw))


def test_missing_keys_reported():
    raw = default_config_dict()
    del raw["noise"]["sigma_T"]
    del raw["horizon_minutes"]
    problems = validate_config_dict(raw)
    assert "missing key: horizon_minutes" in problems
    assert "missing key: noise.sigma_T" in problems


def test_layering_file_then_overrides(tmp_path):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"seed": 7, "noise": {"sigma_T": 2.5}}))
    cfg = load_config(user, overrides={"seed": 9})
    assert cfg.seed == 9  # override beats file
    assert cfg.sigma_T == 2.5  # file beats defaults
    assert cfg.obs_variance == 9.0  # untouched sibling keeps its default
    cfg = load_config(user, overrides={"truth": {"beta": 120.5}})
    params = cfg.cstr_params()
    assert (params.beta, params.sigma_T) == (120.5, 2.5)


def test_file_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_write_round_trip(tmp_path):
    from cdassim.cli import _prepare_out

    cfg = load_config(overrides={"seed": 31, "monte_carlo": {"ensemble_size": 64},
                                 "out_dir": str(tmp_path / "echo")})
    path = _prepare_out(cfg) / "config.json"
    doc = json.loads(path.read_text())
    assert doc["config_hash"] == cfg.config_hash()
    again = load_config(path)  # echo files are valid inputs
    assert again.raw == cfg.raw
    assert again.config_hash() == cfg.config_hash()


def test_hash_is_canonical_and_sensitive(tmp_path):
    a = load_config()
    # same content, different key order in the file
    shuffled = {k: default_config_dict()[k] for k in reversed(list(default_config_dict()))}
    p = tmp_path / "shuffled.json"
    p.write_text(json.dumps(shuffled))
    assert load_config(p).config_hash() == a.config_hash()
    b = load_config(overrides={"seed": a.seed + 1})
    assert b.config_hash() != a.config_hash()


def test_config_is_immutable_and_detached():
    cfg = load_config()
    with pytest.raises(AttributeError):
        cfg.seed = 1
    d = cfg.to_dict()
    d["noise"]["sigma_T"] = -100.0
    assert cfg.sigma_T == 5.0  # exported dict is a copy


def test_zero_observation_variance_is_legal():
    cfg = load_config(overrides={"noise": {"obs_variance": 0.0}})
    assert cfg.obs_variance == 0.0


def test_raw_constructor_bypass_not_needed_for_validity():
    # ExperimentConfig trusts its input; validation lives in load_config
    raw = default_config_dict()
    cfg = ExperimentConfig(raw=raw)
    assert cfg.n_samples == raw["n_samples"]

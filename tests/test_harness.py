"""Twin-experiment harness: truth generation, scoring, sweeps, report files."""
import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from cdassim import harness
from cdassim.config import load_config
from cdassim.cstr import default_experiment_model
from cdassim.filters.beliefs import FilterOutput, GaussianBelief
from cdassim.harness import (
    FILTER_STREAM,
    SPREAD_COLLAPSE_RATIO,
    STREAM_MEAS,
    STREAM_TRUTH,
    FilterMetrics,
    _filter_config,
    _spread_collapse_fraction,
    ensemble_size_sweep,
    generate_truth_and_measurements,
    run_all_filters,
    run_one_filter,
    uncertainty_comparison,
    worker_count,
    write_report,
    write_sweep_report,
    write_table,
    write_uncertainty_report,
)
from cdassim.sde import NoiseStream, propagate_members, rk4_inputs

from digests import _digest, _output_digest
from stages import SMALL_CONFIG


@pytest.fixture(scope="module")
def small_cfg():
    return load_config(overrides=SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_truth(small_cfg):
    return generate_truth_and_measurements(small_cfg)


@pytest.fixture(scope="module")
def small_report(small_cfg, small_truth):
    return run_all_filters(small_cfg, small_truth, serial=True)


# -- truth generation --------------------------------------------------------

def test_truth_shapes_and_grids(small_cfg, small_truth):
    t = small_truth
    assert t.n_steps == 30
    np.testing.assert_allclose(t.times, 10.0 * np.arange(1, 31))
    assert t.truth_states.shape == (31, 4)
    assert t.measurements.shape == (30,)
    # joint truth rows at t_0..t_n: the configured start, then the sample instants
    np.testing.assert_array_equal(t.truth_states[0], small_cfg.truth_init())
    np.testing.assert_array_equal(t.truth_states[:, 3], 133.7792 * np.ones(31))


@pytest.mark.parametrize("sigma_theta", [0.0, 0.05])
def test_truth_beta_is_the_configured_beta_at_every_sample_instant(sigma_theta):
    # the truth runs the filters' joint model without beta's random-walk channel
    cfg = load_config(overrides={**SMALL_CONFIG, "noise": {"sigma_theta": sigma_theta}})
    states = generate_truth_and_measurements(cfg).truth_states
    assert states.shape == (31, 4)
    assert np.all(states[:, 3] == cfg.truth_beta)


def _truth_on_the_members_kernel(cfg):
    """The truth as a ``(4, 1)`` column stepped by ``propagate_members``, one interval per call."""
    exp = default_experiment_model(cfg.cstr_params(), cfg.flow_profile(), param_diffusion=0.0)
    times = cfg.sample_times()
    inputs = rk4_inputs(exp.flow, 0.0, times, cfg.substeps)
    rng = NoiseStream(cfg.seed, STREAM_TRUTH).generator()
    x = cfg.truth_init()[:, None]
    states = [x[:, 0]]
    t0 = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, t1 in enumerate(times):
            x = propagate_members(exp.model, x, inputs[k], t0, t1, rng)
            states.append(x[:, 0])
            t0 = t1
    return np.array(states)


@pytest.mark.parametrize("overrides", [
    *({"seed": 20260816 + k} for k in range(5)),  # the acceptance bank's first seeds
    {"n_samples": 35, "substeps": 60},  # dt 60 s
    {"seed": 7, "truth": {"init_state": [0.8, 1.2, 0.0]}},  # a start at T = 0
    {"seed": 9, "noise": {"sigma_T": 0.0}},  # no push
])
def test_truth_is_bitwise_the_members_kernel_on_one_column(overrides):
    # the float loop keeps the members' order and draws, so the members'
    # kernel on one column is its reference, measurements included
    cfg = load_config(overrides=overrides)
    truth = generate_truth_and_measurements(cfg)
    reference = _truth_on_the_members_kernel(cfg)
    assert truth.truth_states.tobytes() == reference.tobytes()
    noise = NoiseStream(cfg.seed, STREAM_MEAS).generator().standard_normal(cfg.n_samples)
    expected = reference[1:, 2] + np.sqrt(cfg.obs_variance) * noise
    assert truth.measurements.tobytes() == expected.tobytes()


def test_truth_reproducible_and_streams_isolated():
    a = generate_truth_and_measurements(load_config(overrides=SMALL_CONFIG))
    b = generate_truth_and_measurements(load_config(overrides=SMALL_CONFIG))
    assert np.array_equal(a.truth_states, b.truth_states)
    assert np.array_equal(a.measurements, b.measurements)
    # measurement noise comes from its own stream: changing the observation
    # variance must not perturb the truth path
    c = generate_truth_and_measurements(
        load_config(overrides={**SMALL_CONFIG, "noise": {"obs_variance": 1.0}}))
    assert np.array_equal(a.truth_states, c.truth_states)
    assert not np.array_equal(a.measurements, c.measurements)
    d = generate_truth_and_measurements(load_config(overrides={**SMALL_CONFIG, "seed": 99}))
    assert not np.array_equal(a.truth_states, d.truth_states)


def test_noiseless_measurements_equal_truth_temperature():
    cfg = load_config(overrides={**SMALL_CONFIG, "noise": {"sigma_T": 0.0, "obs_variance": 0.0}})
    truth = generate_truth_and_measurements(cfg)
    np.testing.assert_array_equal(truth.measurements, truth.truth_states[1:, 2])


def test_measurements_come_from_the_model_measure(monkeypatch):
    # the truth is measured through the experiment model's own measure map
    def measure_ca(params, flow, param_diffusion):
        exp = default_experiment_model(params, flow, param_diffusion)
        return dataclasses.replace(
            exp, model=dataclasses.replace(exp.model, measure=lambda t, x: x[0:1]))

    monkeypatch.setattr(harness, "default_experiment_model", measure_ca)
    cfg = load_config(overrides={**SMALL_CONFIG, "noise": {"obs_variance": 0.0}})
    truth = generate_truth_and_measurements(cfg)
    np.testing.assert_array_equal(truth.measurements, truth.truth_states[1:, 0])


def test_measurement_noise_variance_matches_config():
    cfg = load_config()  # full 210 samples for a stable variance estimate
    truth = generate_truth_and_measurements(cfg)
    resid = truth.measurements - truth.truth_states[1:, 2]
    assert abs(float(np.var(resid, ddof=1)) - 9.0) < 0.3 * 9.0


# -- metric sanity ------------------------------------------------------------

def _noiseless_metrics(substeps):
    base = {
        "horizon_minutes": 5.0, "n_samples": 30, "substeps": substeps,
        "noise": {"sigma_T": 0.0, "obs_variance": 0.0},
        "filter": {"init_state": [0.0, 0.0, 273.65], "beta": 133.7792,
                   "init_cov_diag": [1e-8, 1e-8, 1e-8, 1e-8]},
    }
    truth = generate_truth_and_measurements(load_config(overrides=base))
    # filters need an invertible R; vanishingly small keeps the pin exact
    runcfg = load_config(
        overrides={**base, "noise": {"sigma_T": 0.0, "obs_variance": 1e-16}})
    flow = runcfg.flow_profile()
    model = default_experiment_model(runcfg.cstr_params(), flow,
                                     param_diffusion=runcfg.sigma_theta).model
    return {kind: run_one_filter(kind, runcfg, truth, model, flow) for kind in ("ekf", "ukf")}


def test_noiseless_pinned_filters_track_exactly():
    """No noise, filters started at the truth: estimation error vanishes.

    The truth path integrates by Euler-Maruyama while the Gaussian filters
    advance moment ODEs with a 4th-order scheme, so the residual is the
    integration-scheme mismatch; it must be tiny and shrink as the inner
    grid refines.
    """
    coarse = _noiseless_metrics(10)
    fine = _noiseless_metrics(100)
    for kind in ("ekf", "ukf"):
        assert fine[kind].ok
        assert fine[kind].mse_x < 2e-4
        assert fine[kind].mse_p < 5e-2
        assert fine[kind].mse_x < coarse[kind].mse_x
        assert fine[kind].mse_p < coarse[kind].mse_p


def test_metrics_fields_complete(tmp_path, small_cfg, small_truth, small_report):
    assert set(small_report) == {"ekf", "ukf", "enkf", "pf"}
    record = {f.name for f in dataclasses.fields(FilterMetrics)} - {"kind", "output"}
    for kind, m in small_report.items():
        assert m.ok, f"{kind}: {m.status}"
        assert m.mse_x >= 0.0 and m.mse_p >= 0.0
        assert m.t_cpu_s > 0.0
        assert np.isfinite(m.beta_final)
        assert np.isfinite(m.beta_tail_mean_abs_err)
        assert 0.0 <= m.nis_exceed_fraction <= 1.0
        assert 0.0 <= m.spread_collapse_fraction <= 1.0
        d = m.to_dict()
        assert d["status"] == "ok" and "mse_x" in d and "failed_step" in d
        assert set(d) == record
    write_report(small_cfg, small_report, small_truth, tmp_path)
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert all(set(d) == record for d in doc["filters"].values())


# -- collapse detection -------------------------------------------------------

def _fake_output(init_diag, post_vars):
    n = len(init_diag)
    steps = len(post_vars)
    post_cov = np.array([np.diag(v) for v in post_vars], dtype=float)
    # the collapse check reads the initial and posterior covariances alone
    means, per_step = np.zeros((steps, n)), np.zeros(steps)
    return FilterOutput(
        initial=GaussianBelief(np.zeros(n), np.diag(init_diag)),
        times=1.0 * np.arange(1, steps + 1),
        prior_mean=means, prior_cov=post_cov, post_mean=means, post_cov=post_cov,
        innovation=np.zeros((steps, 1)), innovation_cov=np.ones((steps, 1, 1)),
        nis=per_step, gain_condition=per_step, step_seconds=per_step,
        ess=None, resampled=None,
    )


def test_spread_collapse_fraction_counts_squeezed_directions():
    healthy = _fake_output([1.0, 4.0], [[0.5, 2.0]] * 10)
    assert _spread_collapse_fraction(healthy) == 0.0
    ratio = SPREAD_COLLAPSE_RATIO
    pinched = _fake_output([1.0, 4.0], [[0.5, 2.0]] * 6 + [[0.5 * ratio, 2.0]] * 4)
    assert _spread_collapse_fraction(pinched) == pytest.approx(0.4)
    # directions that start with zero variance carry no spread to lose
    degenerate_init = _fake_output([1.0, 0.0], [[0.5, 0.0]] * 10)
    assert _spread_collapse_fraction(degenerate_init) == 0.0
    all_zero_init = _fake_output([0.0, 0.0], [[0.0, 0.0]] * 10)
    assert _spread_collapse_fraction(all_zero_init) == 0.0


def test_healthy_small_run_not_flagged(small_report):
    for kind, m in small_report.items():
        assert not m.collapsed, f"{kind} wrongly flagged"


# -- execution modes ----------------------------------------------------------

def test_serial_and_threaded_runs_agree(small_cfg, small_truth, small_report, monkeypatch):
    monkeypatch.setenv("CDASSIM_THREADS", "4")
    threaded = run_all_filters(small_cfg, small_truth, serial=False)
    for kind, m in small_report.items():
        tm = threaded[kind]
        assert tm.mse_x == m.mse_x and tm.mse_p == m.mse_p
        assert tm.beta_final == m.beta_final
        assert np.array_equal(tm.output.post_mean, m.output.post_mean)
        assert np.array_equal(tm.output.post_cov, m.output.post_cov)


def test_filter_subset_and_unknown_kind(small_cfg, small_truth):
    rep = run_all_filters(small_cfg, small_truth, filters=["ekf"], serial=True)
    assert list(rep) == ["ekf"]
    with pytest.raises(ValueError, match="^filters must be among ekf/ukf/enkf/pf, got kf$"):
        run_all_filters(small_cfg, small_truth, filters=["ekf", "kf"])


def test_a_request_runs_each_filter_once(small_cfg, small_truth, monkeypatch):
    # a repeated kind or size names the same run, so it runs once
    runs = []
    run = harness.run_one_filter

    def counted(kind, *args, size=None, stream_tag=None):
        runs.append((kind, size))
        return run(kind, *args, size=size, stream_tag=stream_tag)

    monkeypatch.setattr(harness, "run_one_filter", counted)
    bank = run_all_filters(small_cfg, small_truth, filters=["ekf", "ekf"], serial=True)
    assert runs == [("ekf", None)]
    assert list(bank) == ["ekf"]

    runs.clear()
    unc = uncertainty_comparison(small_cfg, small_truth, filters=["ukf", "ekf", "ukf"],
                                 serial=True)
    assert runs == [("pf", 1000), ("ekf", None), ("ukf", None)]  # the reference first
    assert list(unc.summary) == ["ekf", "ukf"]

    runs.clear()
    rows = ensemble_size_sweep(small_cfg, small_truth, [8, 8], filters=["pf", "enkf", "pf"],
                               serial=True)
    assert runs == [("enkf", 8), ("pf", 8)]
    assert [(m.kind, size) for size, m in rows] == [("enkf", 8), ("pf", 8)]


def test_only_member_kinds_get_a_size(small_cfg):
    # the Gaussian filters read no member count, so none is invented for them
    sizes = {kind: _filter_config(small_cfg, kind).size for kind in FILTER_STREAM}
    assert sizes == {"ekf": None, "ukf": None, "enkf": 50, "pf": 100}
    assert _filter_config(small_cfg, "pf", size=7).size == 7


# model evaluations of one default run per kind (seed 20260816, 210 steps of
# 10 substeps): field -> (calls, total columns); a state (n,) counts as one
# column, and so does the diffusion's one argument, an input (1,). The UKF's
# drift runs 4 RK4 stages on its 11 sigma points, the members' at N = 1000;
# the diffusion runs once per prediction and flow value.
DEFAULT_RUN_WORK = {
    "ekf": {"constrain": (2100, 2100), "diffusion": (212, 212), "linearize": (8400, 8400),
            "measure": (210, 210), "measure_jacobian": (210, 210)},
    "ukf": {"constrain": (2100, 23100), "diffusion": (212, 212), "drift": (8400, 92400),
            "measure": (210, 1890)},
    "enkf": {"constrain": (2101, 2101000), "diffusion": (210, 210),
             "drift": (2100, 2100000), "measure": (210, 210000)},
    "pf": {"constrain": (2101, 2101000), "diffusion": (210, 210),
           "drift": (2100, 2100000), "measure": (210, 210000)},
}


def test_default_runs_evaluate_the_pinned_model_work():
    # a speed-up must change the cost of the model calls, not their number
    config = load_config()
    assert config.seed == 20260816
    truth = generate_truth_and_measurements(config)
    exp = default_experiment_model(config.cstr_params(), config.flow_profile(),
                                   param_diffusion=config.sigma_theta)
    fields = ("drift", "diffusion", "measure", "linearize", "measure_jacobian", "constrain")
    flows = {row.tobytes() for row in exp.flow.values}
    for kind, expected in DEFAULT_RUN_WORK.items():
        tally, inputs = {}, []

        def counted(name, fn):
            def call(*args):
                x = args[0] if name in ("constrain", "diffusion") else args[1]
                if name == "diffusion":
                    inputs.append(x.tobytes())
                calls, columns = tally.get(name, (0, 0))
                tally[name] = (calls + 1, columns + (x.shape[1] if np.ndim(x) == 2 else 1))
                return fn(*args)
            return call

        model = dataclasses.replace(
            exp.model, **{f: counted(f, getattr(exp.model, f)) for f in fields})
        assert run_one_filter(kind, config, truth, model, exp.flow).ok
        assert tally == expected, kind
        assert set(inputs) <= flows, kind  # the diffusion sees the flow value alone


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("CDASSIM_THREADS", "3")
    assert worker_count(8) == 3
    assert worker_count(2) == 2
    assert worker_count(8, serial=True) == 1
    monkeypatch.setenv("CDASSIM_THREADS", "not-a-number")
    assert worker_count(8) >= 1
    monkeypatch.delenv("CDASSIM_THREADS")
    assert 1 <= worker_count(4) <= 4


def test_worker_count_caps_at_usable_cpus_and_needs_fork(monkeypatch):
    monkeypatch.delenv("CDASSIM_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert worker_count(8) == 3  # the affinity mask, not the machine's CPU count
    assert worker_count(2) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(8) == 8  # no affinity call on this platform: cpu_count
    monkeypatch.setenv("CDASSIM_THREADS", "4")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert worker_count(8) == 1  # workers must be forked; spawn re-imports everything


def _metrics_fingerprint(m) -> tuple:
    fields = {k: v for k, v in m.to_dict().items() if k != "t_cpu_s"}
    return m.kind, fields, _output_digest(m.output) if m.output is not None else None


def _uncertainty_fingerprint(unc) -> tuple:
    series = {kind: _digest(*(s[name] for name in sorted(s)))
              for kind, s in unc.series.items()}
    return (unc.to_dict(), series)


@pytest.fixture(scope="module")
def small_uncertainty(small_cfg, small_truth):
    return uncertainty_comparison(small_cfg, small_truth, serial=True)


@pytest.mark.parametrize("threads", ["2", "4"])
def test_pooled_runs_equal_serial_in_every_field(threads, small_cfg, small_truth,
                                                 small_report, small_uncertainty,
                                                 monkeypatch):
    monkeypatch.setenv("CDASSIM_THREADS", threads)
    assert worker_count(4) > 1 or "fork" not in multiprocessing.get_all_start_methods()

    pooled = run_all_filters(small_cfg, small_truth)
    assert list(pooled) == list(small_report)
    for kind, m in small_report.items():
        assert _metrics_fingerprint(pooled[kind]) == _metrics_fingerprint(m), kind

    rows = ensemble_size_sweep(small_cfg, small_truth, [8, 32])
    serial_rows = ensemble_size_sweep(small_cfg, small_truth, [8, 32], serial=True)
    assert [(size, _metrics_fingerprint(m)) for size, m in rows] == \
           [(size, _metrics_fingerprint(m)) for size, m in serial_rows]

    # the reference run shares the pool with the filter bank
    unc = uncertainty_comparison(small_cfg, small_truth)
    assert _uncertainty_fingerprint(unc) == _uncertainty_fingerprint(small_uncertainty)
    assert unc.oracle_status == "ok" and set(unc.series) == set(FILTER_STREAM)


# -- size sweep ---------------------------------------------------------------

def test_sweep_rows_and_determinism(small_cfg, small_truth):
    rows = ensemble_size_sweep(small_cfg, small_truth, [8, 32], serial=True)
    assert [(m.kind, size) for size, m in rows] == [
        ("enkf", 8), ("enkf", 32), ("pf", 8), ("pf", 32)]
    again = ensemble_size_sweep(small_cfg, small_truth, [8, 32], serial=True)
    for (_, r), (_, s) in zip(rows, again):
        assert (r.mse_x, r.mse_p, r.collapsed, r.status) == \
               (s.mse_x, s.mse_p, s.collapsed, s.status)


def test_sweep_rejects_bad_requests(small_cfg, small_truth):
    with pytest.raises(ValueError, match="at least 2"):
        ensemble_size_sweep(small_cfg, small_truth, [1, 8])
    with pytest.raises(ValueError, match="^filters must be among enkf/pf, got ekf$"):
        ensemble_size_sweep(small_cfg, small_truth, [8], filters=("ekf",))


# -- uncertainty comparison ---------------------------------------------------

def test_uncertainty_requires_big_oracle(small_truth):
    cfg = load_config(overrides={**SMALL_CONFIG, "monte_carlo": {
        "ensemble_size": 50, "particle_count": 100, "oracle_particle_count": 500}})
    with pytest.raises(ValueError, match="10x"):
        uncertainty_comparison(cfg, small_truth)


def test_uncertainty_summary_structure(small_uncertainty):
    unc = small_uncertainty
    assert unc.oracle_status == "ok"
    assert unc.oracle_min_ess > 0.0
    for kind in ("ekf", "ukf", "enkf", "pf"):
        s = unc.summary[kind]
        assert s["status"] == "ok"
        assert 0.0 <= s["t_std_ratio_within_factor3_fraction"] <= 1.0
        assert 0.0 < s["t_std_ratio_min"] <= s["t_std_ratio_max"]
        series = unc.series[kind]
        assert series["mean_err"].shape == (30,)
        assert series["var_ratio"].shape == (30, 4)


@pytest.mark.parametrize("fired, status", [
    (("NIS",), "degenerate: sustained innovation inconsistency"),
    (("SPREAD",), "degenerate: posterior spread collapse"),
    (("NIS", "SPREAD"),
     "degenerate: sustained innovation inconsistency and posterior spread collapse"),
])
def test_collapsed_oracle_status_names_the_heuristics_that_fired(
        small_cfg, small_truth, small_uncertainty, monkeypatch, fired, status):
    # a fraction limit below zero forces its heuristic to fire on the healthy reference
    for name in fired:
        monkeypatch.setattr(harness, f"{name}_COLLAPSE_FRACTION", -1.0)
    unc = uncertainty_comparison(small_cfg, small_truth, filters=["ekf"], serial=True)
    assert unc.oracle_status == status
    assert unc.oracle_min_ess == small_uncertainty.oracle_min_ess
    assert unc.summary["ekf"] == small_uncertainty.summary["ekf"]


# -- report files -------------------------------------------------------------

def _strip_timing(csv_text):
    lines = csv_text.strip().split("\n")
    head = lines[0].split(",")
    keep = [i for i, name in enumerate(head) if name != "t_cpu_s"]
    return ["\x1f".join(row.split(",")[i] for i in keep) for row in lines]


def test_write_report_files(tmp_path, small_cfg, small_truth, small_report):
    (tmp_path / "out").mkdir()
    paths = write_report(small_cfg, small_report, small_truth, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"metrics.csv", "metrics.json",
                     "trajectory_ekf.csv", "trajectory_ukf.csv",
                     "trajectory_enkf.csv", "trajectory_pf.csv"}

    metrics = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "filter,mse_x,mse_p,t_cpu_s"
    assert len(metrics) == 5

    doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert doc["seed"] == small_cfg.seed
    assert doc["config_hash"] == small_cfg.config_hash()
    assert "squared estimation error" in doc["mse_x_definition"]
    assert set(doc["filters"]) == {"ekf", "ukf", "enkf", "pf"}

    for kind in ("ekf", "ukf", "enkf", "pf"):
        rows = (tmp_path / "out" / f"trajectory_{kind}.csv").read_text().strip().split("\n")
        assert rows[0] == ("t,truth_ca,truth_cb,truth_t,truth_beta,"
                           "est_ca,est_cb,est_t,est_beta,"
                           "std_ca,std_cb,std_t,std_beta,measurement")
        assert len(rows) == 1 + 31  # header + t0 row + one row per sample
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert first[-1] == ""  # no measurement at t0


def test_reports_byte_identical_across_runs(tmp_path, small_cfg):
    def fresh(out):
        truth = generate_truth_and_measurements(small_cfg)
        report = run_all_filters(small_cfg, truth, serial=True)
        out.mkdir()
        write_report(small_cfg, report, truth, out)
        return out

    a, b = fresh(tmp_path / "a"), fresh(tmp_path / "b")
    for name in ("trajectory_ekf.csv", "trajectory_ukf.csv",
                 "trajectory_enkf.csv", "trajectory_pf.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # metrics differ only in the timing column
    assert _strip_timing((a / "metrics.csv").read_text()) == \
           _strip_timing((b / "metrics.csv").read_text())


def test_write_sweep_and_uncertainty_reports(tmp_path, small_cfg, small_truth,
                                             small_uncertainty):
    rows = ensemble_size_sweep(small_cfg, small_truth, [8], serial=True)
    (tmp_path / "sweep").mkdir()
    paths = write_sweep_report(rows, tmp_path / "sweep")
    text = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert text[0] == "filter,size,mse_x,mse_p,t_cpu_s,collapsed,status"
    assert len(text) == 1 + len(rows)
    assert {p.name for p in paths} == {"sweep.csv", "sweep.json"}
    doc = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert [list(r) for r in doc] == [
        ["kind", "size", "status", "mse_x", "mse_p", "t_cpu_s", "collapsed"]] * len(rows)

    (tmp_path / "unc").mkdir()
    upaths = write_uncertainty_report(small_cfg, small_truth, small_uncertainty,
                                      tmp_path / "unc")
    assert {p.name for p in upaths} == {"uncertainty.json",
                                        "uncertainty_ekf.csv", "uncertainty_ukf.csv",
                                        "uncertainty_enkf.csv", "uncertainty_pf.csv"}
    udoc = json.loads((tmp_path / "unc" / "uncertainty.json").read_text())
    assert udoc["oracle_status"] == "ok"
    assert udoc["oracle_particles"] == 1000


def test_table_writer_formats_every_cell_kind(tmp_path):
    metrics = FilterMetrics(kind="enkf", status="failed: pf failed at step 3 (t=40)",
                            mse_x=0.1, mse_p=1.0 / 3.0, t_cpu_s=2.5e-4, collapsed=True)
    write_sweep_report([(8, metrics)], tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().split("\n")
    assert lines == ["filter,size,mse_x,mse_p,t_cpu_s,collapsed,status",
                     "enkf,8,0.10000000000000001,0.33333333333333331,"
                     "0.00025000000000000001,1,failed: pf failed at step 3 (t=40)",
                     ""]
    assert json.loads((tmp_path / "sweep.json").read_text()) == [
        {"kind": "enkf", "size": 8, "status": "failed: pf failed at step 3 (t=40)",
         "mse_x": 0.1, "mse_p": 1.0 / 3.0, "t_cpu_s": 2.5e-4, "collapsed": True}]

    write_table(tmp_path / "cells.csv", ("a", "b", "c", "d"),
                [(False, np.float64(-0.0), np.int64(1000), ""), (np.nan, 1e-300, 7, "x")])
    assert (tmp_path / "cells.csv").read_text() == "a,b,c,d\n0,-0,1000,\nnan,1e-300,7,x\n"


def test_table_writer_names_an_unwritable_file(tmp_path):
    path = tmp_path / "missing" / "sweep.csv"
    with pytest.raises(OSError, match="cannot write report file .*missing.*sweep.csv"):
        write_table(path, ("a",), [(1.0,)])

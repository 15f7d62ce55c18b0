"""Command-line behavior: dispatch, artifacts, seeds, exit codes.

Equal configs give equal files across runs, working directories and worker
counts: criterion 10 of ``test_acceptance.py``, and in process
``test_harness.test_pooled_runs_equal_serial_in_every_field``.
"""
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cdassim import cli
from cdassim.cli import parse_and_dispatch
from cdassim.config import load_config
from cdassim.cstr import (
    CA_IN,
    CB_IN,
    T_IN,
    cstr3_drift,
    cstr3_rates,
    steady_state_curve,
)
from cdassim.harness import (
    ensemble_size_sweep,
    generate_truth_and_measurements,
    run_all_filters,
    uncertainty_comparison,
)
from cdassim.sde import rk4_inputs, rk4_step

from closedform import one_state_rate, two_state_rates
from stages import SMALL_CONFIG


@pytest.fixture()
def small_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # out_dir paths resolve under the sandbox
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def _csv_lines(path):
    return path.read_text().strip().split("\n")


# -- happy paths ---------------------------------------------------------------

def test_simulate_writes_truth(tmp_path, small_config_file):
    assert parse_and_dispatch(["simulate", "--config", small_config_file,
                               "--out", "sim"]) == 0
    out = tmp_path / "sim"
    assert json.loads((out / "config.json").read_text())["n_samples"] == 30
    lines = _csv_lines(out / "truth.csv")
    assert lines[0] == "t,truth_ca,truth_cb,truth_t,truth_beta,measurement"
    assert len(lines) == 1 + 31
    assert lines[1].endswith(",")  # no measurement at t0


def test_simulate_reduced_three_temperatures_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # full reference horizon: the reactor must ignite and the reductions hold
    assert parse_and_dispatch(["simulate", "--reduced", "--out", "sim"]) == 0
    r = np.genfromtxt(tmp_path / "sim" / "reduced.csv", delimiter=",", names=True)
    assert r.dtype.names == ("t", "temp_3state", "temp_2state", "temp_1state")
    assert len(r) == 211
    assert np.max(np.abs(r["temp_3state"] - r["temp_2state"])) < 1.0
    assert np.max(np.abs(r["temp_3state"] - r["temp_1state"])) < 1.0
    assert r["temp_3state"].max() > 330.0


def test_estimate_writes_reports(tmp_path, small_config_file):
    assert parse_and_dispatch(["estimate", "--config", small_config_file,
                               "--serial", "--out", "est"]) == 0
    out = tmp_path / "est"
    lines = _csv_lines(out / "metrics.csv")
    assert lines[0] == "filter,mse_x,mse_p,t_cpu_s"
    assert [row.split(",")[0] for row in lines[1:]] == ["ekf", "ukf", "enkf", "pf"]
    doc = json.loads((out / "metrics.json").read_text())
    assert all(doc["filters"][k]["status"] == "ok" for k in doc["filters"])


def test_estimate_filter_subset(tmp_path, small_config_file):
    assert parse_and_dispatch(["estimate", "--config", small_config_file,
                               "--filters", "ekf,ukf", "--out", "est2"]) == 0
    lines = _csv_lines(tmp_path / "est2" / "metrics.csv")
    assert [row.split(",")[0] for row in lines[1:]] == ["ekf", "ukf"]
    assert not (tmp_path / "est2" / "trajectory_pf.csv").exists()


def test_steady_state_writes_the_curve(tmp_path, small_config_file):
    # the configured exothermic reactor, then an endothermic one; the curve's
    # residuals are test_cstr.TestSteadyState's
    for name, truth in (("curve", {}), ("endothermic", {"beta": -133.7792})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "truth": truth}))
        assert parse_and_dispatch(["steady-state", "--config", str(path),
                                   "--out", name]) == 0
        lines = _csv_lines(tmp_path / name / "steady_state.csv")
        assert lines[0] == "T_s,F_s"
        assert len(lines) == 1 + 400
        rows = np.loadtxt(tmp_path / name / "steady_state.csv", delimiter=",", skiprows=1)
        curve = steady_state_curve(load_config(path).cstr_params())
        assert rows.tobytes() == np.column_stack(curve).tobytes()


def test_sweep_writes_rows(tmp_path, small_config_file):
    assert parse_and_dispatch(["sweep", "--config", small_config_file,
                               "--sizes", "8,16", "--out", "sw"]) == 0
    lines = _csv_lines(tmp_path / "sw" / "sweep.csv")
    assert lines[0] == "filter,size,mse_x,mse_p,t_cpu_s,collapsed,status"
    assert [tuple(r.split(",")[:2]) for r in lines[1:]] == [
        ("enkf", "8"), ("enkf", "16"), ("pf", "8"), ("pf", "16")]


def test_oracle_writes_uncertainty(tmp_path, small_config_file):
    assert parse_and_dispatch(["oracle", "--config", small_config_file,
                               "--filters", "ekf", "--out", "orc"]) == 0
    doc = json.loads((tmp_path / "orc" / "uncertainty.json").read_text())
    assert doc["oracle_status"] == "ok"
    assert set(doc["filters"]) == {"ekf"}
    assert (tmp_path / "orc" / "uncertainty_ekf.csv").exists()


@pytest.mark.parametrize("argv", [["simulate", "--reduced"], ["estimate"], ["steady-state"],
                                  ["sweep", "--sizes", "8"], ["oracle", "--filters", "ekf"]])
def test_every_written_file_is_announced_once(tmp_path, small_config_file, capsys, argv):
    assert parse_and_dispatch([*argv, "--config", small_config_file, "--serial",
                               "--out", "run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {os.path.join('run', 'config.json')}"  # the echo comes first
    written = (tmp_path / "run").iterdir()
    assert sorted(lines) == sorted(f"wrote {os.path.join('run', p.name)}" for p in written)


def test_module_entry_point(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "cdassim", "steady-state", "--out", "curve"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve" / "steady_state.csv").exists()


def test_cli_import_does_not_load_scipy(tmp_path, child_env):
    # importing scipy.linalg would add about 0.25 s to every CLI start
    code = ("import sys, cdassim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- seeds ---------------------------------------------------------------

def test_seed_override_changes_realization(tmp_path, small_config_file):
    for out, seed in (("s1", "7"), ("s2", "7"), ("s3", "8")):
        assert parse_and_dispatch(["simulate", "--config", small_config_file,
                                   "--seed", seed, "--out", out]) == 0
    read = lambda d: (tmp_path / d / "truth.csv").read_bytes()
    assert read("s1") == read("s2")
    assert read("s1") != read("s3")


# -- failure modes ---------------------------------------------------------------

def test_missing_and_invalid_config_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert parse_and_dispatch(["estimate", "--config", "nope.json"]) == 1
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"noise": {"sigma_T": "five"}, "typo": 1}))
    assert parse_and_dispatch(["estimate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "noise.sigma_T" in err and "unknown key: typo" in err
    bad.write_text(json.dumps({"horizon_minutes": float("inf")}))  # json writes Infinity
    assert parse_and_dispatch(["estimate", "--config", str(bad)]) == 1
    assert "horizon_minutes: must be a positive number" in capsys.readouterr().err
    assert parse_and_dispatch(["estimate", "--config", str(tmp_path)]) == 1  # a directory
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
    bad.write_bytes(b'{"seed": "\xff"}')  # not UTF-8
    assert parse_and_dispatch(["estimate", "--config", str(bad)]) == 1
    assert f"cannot read config file {bad}" in capsys.readouterr().err


def test_unusable_out_exits_1_without_traceback(tmp_path, child_env):
    (tmp_path / "taken").write_text("")
    (tmp_path / "run" / "steady_state.csv").mkdir(parents=True)
    cases = {"taken": "File exists",  # --out names a file
             "taken/run": "Not a directory",  # --out lies under a file
             "run": "cannot write report file"}  # the report path is a directory
    for out, message in cases.items():
        proc = subprocess.run(
            [sys.executable, "-m", "cdassim", "steady-state", "--out", out],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("threads", ["1", "2"])
def test_zero_observation_variance_cannot_run_a_filter(tmp_path, monkeypatch, capsys, threads):
    # on two worker processes the config's ValueError is raised there and
    # must reach the command as the same exit and message
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CDASSIM_THREADS", threads)
    cfgfile = tmp_path / "noiseless.json"
    cfgfile.write_text(json.dumps({**SMALL_CONFIG, "noise": {"obs_variance": 0}}))
    assert parse_and_dispatch(["estimate", "--config", str(cfgfile)]) == 1
    assert "noise.obs_variance must be > 0" in capsys.readouterr().err


def test_filter_failure_in_a_worker_becomes_a_record(tmp_path, small_config_file,
                                                     monkeypatch, capsys):
    from cdassim.filters import runner
    from cdassim.sde import DivergenceError

    parent = os.getpid()
    update = runner.kalman_update

    def diverge_in_worker(prior, *args):
        # fails only off the calling process, so a serial run would pass
        if os.getpid() != parent and prior.time >= 40.0:
            raise DivergenceError("forced divergence")
        return update(prior, *args)

    monkeypatch.setattr(runner, "kalman_update", diverge_in_worker)
    monkeypatch.setenv("CDASSIM_THREADS", "2")
    assert parse_and_dispatch(["estimate", "--config", small_config_file,
                               "--out", "div"]) == 2
    assert capsys.readouterr().err == \
        "numerical failure: ekf failed at step 3 (t=40): forced divergence\n"
    doc = json.loads((tmp_path / "div" / "metrics.json").read_text())["filters"]
    ekf = doc["ekf"]
    assert ekf["status"].startswith("failed: ekf failed at step 3 (t=40)")
    assert "forced divergence" in ekf["status"]
    assert ekf["failed_step"] == 3 and ekf["collapsed"] is True
    assert all(doc[k]["status"] == "ok" for k in ("ukf", "enkf", "pf"))


FAULT_TIME = 35.0  # inside step 3 of SMALL_CONFIG, assimilating at t = 10, 20, ...


def _faulty_run_filter(run):
    """``run_filter`` on a model whose drift and linearization turn NaN after FAULT_TIME.

    Only the filters see the fault: the truth is built from the same joint
    model but never passes through ``run_filter``.
    """
    def run_faulty(kind, model, *args, **kwargs):
        def drift(t, x, u):
            f = model.drift(t, x, u)
            return np.full_like(f, np.nan) if t > FAULT_TIME else f

        def linearize(t, x, u):
            block = model.linearize(t, x, u)
            return np.full_like(block, np.nan) if t > FAULT_TIME else block

        faulty = dataclasses.replace(model, drift=drift, linearize=linearize)
        return run(kind, faulty, *args, **kwargs)
    return run_faulty


def test_injected_drift_fault_fails_every_filter_with_exit_2(tmp_path, small_config_file,
                                                             monkeypatch, capsys):
    from cdassim import harness

    monkeypatch.setattr(harness, "run_filter", _faulty_run_filter(harness.run_filter))
    assert parse_and_dispatch(["estimate", "--config", small_config_file, "--serial",
                               "--out", "fault"]) == 2
    doc = json.loads((tmp_path / "fault" / "metrics.json").read_text())["filters"]
    causes = {
        "ekf": "EKF moments diverged by t=40.0",
        "ukf": "UKF sigma points diverged by t=40.0",
        # the members' Euler-Maruyama substep from t = 36 is the first to see it
        "enkf": "non-finite drift/diffusion at t=36.0",
        "pf": "non-finite drift/diffusion at t=36.0",
    }
    for kind, cause in causes.items():
        assert doc[kind]["status"] == f"failed: {kind} failed at step 3 (t=40): {cause}"
        assert doc[kind]["failed_step"] == 3
    assert capsys.readouterr().err == "".join(f"numerical failure: {k} failed at step 3 (t=40): "
                                              f"{cause}\n" for k, cause in causes.items())


def _strict_json(path):
    """A result file parsed as strict JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_failed_runs_write_strict_json(tmp_path, small_config_file, monkeypatch, capsys):
    # a failed run's metrics have no value, and each is written as null
    from cdassim import harness

    monkeypatch.setattr(harness, "run_filter", _faulty_run_filter(harness.run_filter))
    assert parse_and_dispatch(["estimate", "--config", small_config_file, "--serial",
                               "--filters", "ekf", "--out", "fault"]) == 2
    ekf = _strict_json(tmp_path / "fault" / "metrics.json")["filters"]["ekf"]
    assert ekf["status"].startswith("failed") and ekf["mse_x"] is None
    assert parse_and_dispatch(["sweep", "--config", small_config_file, "--serial",
                               "--sizes", "8", "--filters", "pf", "--out", "sweep"]) == 0
    row, = _strict_json(tmp_path / "sweep" / "sweep.json")
    assert row["status"].startswith("failed") and row["mse_x"] is None


def test_truth_drift_fault_exits_2_naming_the_first_faulty_substep(small_config_file,
                                                                   monkeypatch, capsys):
    # the truth's Euler-Maruyama substeps are 1 s long on SMALL_CONFIG, one
    # rate call each; from its 37th call, at t = 36, the float kernel's rates
    # are NaN, and simulate stops there
    from cdassim import harness

    calls = []

    def faulty_rates(*state):
        calls.append(state)
        rates = cstr3_rates(*state)
        return rates if len(calls) < 37 else (np.nan, np.nan, np.nan, *rates[3:])

    monkeypatch.setattr(harness, "cstr3_rates", faulty_rates)
    assert parse_and_dispatch(["simulate", "--config", small_config_file, "--out", "truth"]) == 2
    assert capsys.readouterr().err == "non-finite drift/diffusion at t=36.0\n"
    assert len(calls) == 37


@pytest.mark.parametrize("start, code, err", [
    ([0.8, 1.2, 0.0], 0, ""),
    ([0.8, 1.2, -5.0], 2, "non-finite drift/diffusion at t=0.0\n"),
])
def test_truth_from_a_cold_or_negative_temperature_prints_no_numpy_warning(tmp_path, child_env,
                                                                          start, code, err):
    # a schema-valid truth start at T = 0 divides by zero in the rate
    # constant, and one at T < 0 overflows it; simulate reports only its
    # outcome, through a fresh interpreter's real stderr
    cfg = tmp_path / "start.json"
    cfg.write_text(json.dumps({"truth": {"init_state": start}}))
    proc = subprocess.run([sys.executable, "-m", "cdassim", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("n_samples", [14, 30])
def test_coarse_grid_failure_exits_2_without_runtime_warnings(tmp_path, monkeypatch, capsys,
                                                             n_samples):
    # on these grids the EKF and UKF blow up; each failure reaches stderr as one
    # line naming its filter, step and time, with no numpy warning naming a source line
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"n_samples": n_samples,
                               "monte_carlo": {"ensemble_size": 50, "particle_count": 50}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = parse_and_dispatch(["estimate", "--config", str(cfg), "--serial",
                                   "--out", "coarse"])
    assert code == 2
    doc = json.loads((tmp_path / "coarse" / "metrics.json").read_text())["filters"]
    assert capsys.readouterr().err == "".join(
        doc[k]["status"].replace("failed: ", "numerical failure: ") + "\n" for k in ("ekf", "ukf"))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_usage_errors_exit_1():
    for argv in (["frobnicate"], ["estimate", "--frobnicate"],
                 ["estimate", "--filters", "kf"], ["sweep", "--filters", "ekf"],
                 ["estimate", "--seed", "x"], []):
        with pytest.raises(SystemExit) as err:
            parse_and_dispatch(argv)
        assert err.value.code == 1, argv


def test_undersized_oracle_exits_1_but_leaves_echo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({**SMALL_CONFIG, "monte_carlo": {
        "ensemble_size": 50, "particle_count": 100, "oracle_particle_count": 200}}))
    assert parse_and_dispatch(["oracle", "--config", str(cfgfile),
                               "--out", "orc"]) == 1
    assert "10x" in capsys.readouterr().err
    assert (tmp_path / "orc" / "config.json").exists()  # echo precedes compute


@pytest.mark.parametrize("argv, request_names", [
    (["estimate", "--filters", "kf"],
     lambda cfg, truth: run_all_filters(cfg, truth, filters=["kf"])),
    (["oracle", "--filters", "ekf,kf,pf2"],
     lambda cfg, truth: uncertainty_comparison(cfg, truth, filters=["ekf", "kf", "pf2"])),
    (["sweep", "--filters", "ekf"],
     lambda cfg, truth: ensemble_size_sweep(cfg, truth, [8], filters=["ekf"])),
])
def test_bad_filter_names_give_the_library_message_before_the_echo(
        tmp_path, small_config_file, capsys, argv, request_names):
    cfg = load_config(small_config_file)
    with pytest.raises(ValueError) as lib:
        request_names(cfg, generate_truth_and_measurements(cfg))
    with pytest.raises(SystemExit) as err:
        parse_and_dispatch([*argv, "--config", small_config_file, "--out", "bad"])
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"cdassim: error: {lib.value}"
    assert not (tmp_path / "bad").exists()


def test_reduced_comparison_steps_on_the_run_grid(monkeypatch):
    # 211 samples over the 2100 s horizon: each interval's step is its own
    # (t1 - t0) / substeps, which dt_sample / substeps misses in most of them
    cfg = load_config(overrides={"n_samples": 211})
    calls = []
    step = cli.rk4_step

    def record(rhs, t, y, h, inputs):
        calls.append((t, h, inputs))
        return step(rhs, t, y, h, inputs)

    monkeypatch.setattr(cli, "rk4_step", record)
    rows = cli._reduced_comparison(cfg)
    times = cfg.sample_times()
    starts = np.concatenate(([0.0], times))[:-1]
    steps = (times - starts) / cfg.substeps
    flow = cfg.flow_profile()
    assert len(calls) == times.size * cfg.substeps  # the 3-, 2- and 1-state models as one state
    off_grid = set()
    for c, (t, h, inputs) in enumerate(calls):
        k, j = divmod(c, cfg.substeps)
        tj = starts[k] + j * steps[k]
        expected = np.array([flow.at(tj), flow.at(tj + 0.5 * steps[k]), flow.at(tj + steps[k])])
        if (t, h) != (tj, steps[k]) or inputs.tobytes() != expected.tobytes():
            off_grid.add(k)
    assert sorted(off_grid) == []
    assert [row[0] for row in rows] == [0.0, *times]


def _reduced_models_stepped_apart(cfg):
    """The 3-, 2- and 1-state models stepped one at a time, each by its own rk4_step.

    The reduced models' rates are the closed-form reference's, on numpy scalars.
    """
    params = cfg.cstr_params()
    f3 = lambda t, z, u: cstr3_drift(z, u[0])
    f2 = lambda t, z, u: two_state_rates(z[0], z[1], u[0], params.beta)
    f1 = lambda t, z, u: one_state_rate(z, u[0], params.beta)
    x3 = np.array([[CA_IN], [CB_IN], [T_IN], [params.beta]])
    x2 = np.array([0.0, T_IN])
    x1 = T_IN
    rows = [(0.0, x3[2, 0], x2[1], x1)]
    times = cfg.sample_times()
    t0 = 0.0
    for t1, table in zip(times, rk4_inputs(cfg.flow_profile(), 0.0, times, cfg.substeps)):
        h = (t1 - t0) / cfg.substeps
        for j, inputs in enumerate(table):
            x3 = rk4_step(f3, t0 + j * h, x3, h, inputs)
            x2 = rk4_step(f2, t0 + j * h, x2, h, inputs)
            x1 = rk4_step(f1, t0 + j * h, x1, h, inputs)
        rows.append((t1, x3[2, 0], x2[1], x1))
        t0 = t1
    return rows


@pytest.mark.parametrize("overrides", [None, {"n_samples": 211},
                                       {"truth": {"beta": -133.7792}}],
                         ids=["None", "211", "endothermic"])
def test_reduced_comparison_is_bitwise_the_models_stepped_apart(overrides):
    cfg = load_config(overrides=overrides)
    rows = np.array(cli._reduced_comparison(cfg), dtype=float)
    apart = np.array(_reduced_models_stepped_apart(cfg), dtype=float)
    assert rows.shape == (cfg.n_samples + 1, 4)
    assert rows.tobytes() == apart.tobytes()


@pytest.mark.parametrize("n_samples,t", [(3, 700), (5, 840), (7, 600), (10, 630), (14, 1500)])
def test_reduced_comparison_on_a_coarse_grid_exits_2_after_the_truth(tmp_path, monkeypatch,
                                                                      capsys, n_samples, t):
    # RK4 steps of 15-70 s overflow the comparison's models: the command names
    # the first model that left the finite numbers, writes no reduced.csv and
    # raises no numpy warning; the truth, which stays finite, is written first
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "coarse.json"
    cfgfile.write_text(json.dumps({"n_samples": n_samples}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = parse_and_dispatch(["simulate", "--reduced", "--config", str(cfgfile),
                                   "--serial", "--out", "coarse"])
    assert code == 2
    assert capsys.readouterr().err == \
        f"the 3-state model of the reduced comparison diverged by t={t:.1f}\n"
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert len(_csv_lines(tmp_path / "coarse" / "truth.csv")) == n_samples + 2
    assert not (tmp_path / "coarse" / "reduced.csv").exists()


def test_ekf_from_zero_temperature_fails_at_its_first_step_with_exit_2(tmp_path, monkeypatch,
                                                                       capsys):
    # a schema-valid initial belief at T = 0: the linearization's rates are
    # the kernel's (zero reaction), its dk/dT is not finite, and the EKF's
    # first prediction diverges into a failure record, with no numpy warning
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "cold.json"
    cfgfile.write_text(json.dumps({"filter": {"init_state": [0.8, 1.2, 0.0]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = parse_and_dispatch(["estimate", "--filters", "ekf", "--config", str(cfgfile),
                                   "--serial", "--out", "cold"])
    assert code == 2
    assert capsys.readouterr().err == \
        "numerical failure: ekf failed at step 0 (t=10): EKF moments diverged by t=10.0\n"
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    ekf = json.loads((tmp_path / "cold" / "metrics.json").read_text())["filters"]["ekf"]
    assert ekf["status"].startswith("failed: ekf failed at step 0 (t=10): ")
    assert ekf["failed_step"] == 0


def test_sweep_size_below_two_exits_1(tmp_path, small_config_file, capsys):
    assert parse_and_dispatch(["sweep", "--config", small_config_file,
                               "--sizes", "1,8", "--out", "sw"]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_sweep_empty_sizes_exit_1(tmp_path, small_config_file, capsys):
    for sizes in ("", ","):
        with pytest.raises(SystemExit) as err:
            parse_and_dispatch(["sweep", "--config", small_config_file,
                                "--sizes", sizes, "--out", "sw"])
        assert err.value.code == 1, sizes
        assert "--sizes" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()  # a usage error stops before the echo

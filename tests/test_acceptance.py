"""Release acceptance: one test per shipped criterion, numbered in order.

Criterion 1's run also backs an unnumbered NIS-consistency check. Each
test prints the figures it measured, so a verbose run reads as a
criterion-by-criterion scorecard. The twin-experiment seed bank backing
criteria 3, 4 and 7 is computed once per module.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cdassim.config import load_config
from cdassim.cstr import (
    CA_IN,
    CB_IN,
    T_IN,
    V,
    adiabatic_concentrations,
    cstr3_drift,
    default_experiment_model,
)
from cdassim.filters.beliefs import Ensemble, GaussianBelief, ParticleSet, posterior_summary
from cdassim.filters.enkf import enkf_update
from cdassim.filters.pf import pf_update
from cdassim.filters.runner import FILTER_KINDS, FilterConfig, run_filter
from cdassim.harness import (
    ensemble_size_sweep,
    generate_truth_and_measurements,
    run_all_filters,
    run_one_filter,
    uncertainty_comparison,
)
from cdassim.sde import NoiseStream, propagate_members

from closedform import scalar_kalman
from stages import (
    FILTER_SETTINGS,
    SMALL_CONFIG,
    constant,
    euler_maruyama_path,
    interval_inputs,
    linear_sde,
)

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260816
N_SEEDS = 20

# Scalar mean-reverting benchmark for the linear-equivalence checks: the
# linear test SDE on the constant input OU_B. The slow rate keeps the
# fixed-substep integrators within 1e-6 of the exact moments while the
# level keeps every relative comparison away from zero.
OU_A, OU_B, OU_SIGMA = 0.01, 0.05, 1.0
OU_R, OU_M0, OU_P0 = 0.25, 5.0, 1.0
OU_DT, OU_STEPS = 0.2, 50
OU_INPUT = constant(OU_B)


@pytest.fixture(scope="module")
def ou():
    tic = time.perf_counter()
    model = linear_sde(OU_A, OU_SIGMA)
    horizon = OU_DT * OU_STEPS
    _, states = euler_maruyama_path(model, np.array([OU_M0]), OU_INPUT, 0.0, horizon,
                                    OU_DT / 10, NoiseStream(SEED, 900))
    x_true = states[10::10, 0]
    times = OU_DT * np.arange(1, OU_STEPS + 1)
    ys = x_true + np.sqrt(OU_R) * NoiseStream(SEED, 901).generator().standard_normal(OU_STEPS)
    kf = scalar_kalman(OU_A, OU_B, OU_SIGMA, OU_R, OU_M0, OU_P0, times, ys)
    return {"model": model, "times": times, "ys": ys, "kf": kf,
            "seconds": time.perf_counter() - tic}


@pytest.fixture(scope="module")
def seed_bank():
    """Full default-config benchmark for seeds SEED..SEED+19, plus a 100-particle re-run."""
    tic = time.perf_counter()
    bank = {kind: {"mse_x": [], "mse_p": [], "tail_err": [], "t_cpu": [], "status": []}
            for kind in FILTER_KINDS}
    pf100 = []
    base = load_config()  # the model and flow do not depend on the seed
    flow = base.flow_profile()
    model = default_experiment_model(base.cstr_params(), flow,
                                     param_diffusion=base.sigma_theta).model
    for k in range(N_SEEDS):
        cfg = load_config(overrides={"seed": SEED + k})
        truth = generate_truth_and_measurements(cfg)
        for kind, m in run_all_filters(cfg, truth, serial=True).items():
            bank[kind]["mse_x"].append(m.mse_x)
            bank[kind]["mse_p"].append(m.mse_p)
            bank[kind]["tail_err"].append(m.beta_tail_mean_abs_err)
            bank[kind]["t_cpu"].append(m.t_cpu_s)
            bank[kind]["status"].append(m.status)
        pf100.append(run_one_filter("pf", cfg, truth, model, flow, size=100).mse_x)
    bank["pf100_mse_x"] = pf100
    bank["seconds"] = time.perf_counter() - tic
    return bank


@pytest.fixture(scope="module")
def default_run():
    tic = time.perf_counter()
    cfg = load_config()
    truth = generate_truth_and_measurements(cfg)
    return {"cfg": cfg, "truth": truth, "seconds": time.perf_counter() - tic}


def test_criterion_01_linear_gaussian_equivalence(ou):
    tic = time.perf_counter()
    init = GaussianBelief(np.array([OU_M0]), np.array([[OU_P0]]))
    kf = ou["kf"]
    worst = {}
    for kind in ("ekf", "ukf"):
        fc = FilterConfig(initial=init, obs_cov=np.array([[OU_R]]), **FILTER_SETTINGS[kind])
        out = run_filter(kind, ou["model"], fc, ou["times"], ou["ys"], OU_INPUT)
        rel_mean = np.abs(out.post_mean[:, 0] - kf["post_mean"]) / np.abs(kf["post_mean"])
        rel_var = np.abs(out.post_cov[:, 0, 0] - kf["post_var"]) / kf["post_var"]
        worst[kind] = max(rel_mean.max(), rel_var.max())
    for kind, tag in (("enkf", 902), ("pf", 903)):
        fc = FilterConfig(initial=init, obs_cov=np.array([[OU_R]]),
                          stream=NoiseStream(SEED, tag),
                          **{**FILTER_SETTINGS[kind], "size": 100_000})
        out = run_filter(kind, ou["model"], fc, ou["times"], ou["ys"], OU_INPUT)
        worst[kind] = float(np.max(
            np.abs(out.post_mean[:, 0] - kf["post_mean"]) / np.abs(kf["post_mean"])))
    seconds = ou["seconds"] + time.perf_counter() - tic
    print(f"criterion 1: worst rel dev ekf {worst['ekf']:.2e} ukf {worst['ukf']:.2e} "
          f"enkf {worst['enkf']:.2e} pf {worst['pf']:.2e} ({seconds:.0f} s)")
    assert worst["ekf"] < 1e-6 and worst["ukf"] < 1e-6
    assert worst["enkf"] < 0.01 and worst["pf"] < 0.01
    assert seconds < 60.0


# 2.5% and 97.5% quantiles of chi-square with 50 degrees of freedom, written
# out because scipy is not a dependency
CHI2_50_QUANTILES = (32.357, 71.420)


def test_linear_gaussian_nis_consistency(ou):
    # criterion 1's run: a consistent filter's mean NIS over the 50 scalar
    # innovations lies in the 95% chi-square(50) / 50 band; the EnKF and PF
    # run 1000 members on criterion 1's streams
    lo, hi = (q / OU_STEPS for q in CHI2_50_QUANTILES)
    init = GaussianBelief(np.array([OU_M0]), np.array([[OU_P0]]))
    tags = {"enkf": 902, "pf": 903}
    mean_nis = {}
    for kind in FILTER_KINDS:
        stream = {"stream": NoiseStream(SEED, tags[kind])} if kind in tags else {}
        fc = FilterConfig(initial=init, obs_cov=np.array([[OU_R]]), **FILTER_SETTINGS[kind],
                          **stream)
        out = run_filter(kind, ou["model"], fc, ou["times"], ou["ys"], OU_INPUT)
        assert out.nis.size == OU_STEPS
        mean_nis[kind] = float(np.mean(out.nis))
    print("mean NIS " + " ".join(f"{k} {v:.4f}" for k, v in mean_nis.items())
          + f" (95% band [{lo:.4f}, {hi:.4f}])")
    for kind, value in mean_nis.items():
        assert lo <= value <= hi, f"{kind} mean NIS {value:.4f} outside [{lo:.4f}, {hi:.4f}]"


def test_criterion_02_monte_carlo_convergence_rate(ou):
    tic = time.perf_counter()
    y1 = np.array([5.3])
    kf_mean = float(scalar_kalman(OU_A, OU_B, OU_SIGMA, OU_R, OU_M0, OU_P0,
                                  [OU_DT], y1)["post_mean"][0])
    sizes = (100, 1_000, 10_000, 100_000)
    model = linear_sde(OU_A, OU_SIGMA)
    Rm = np.array([[OU_R]])
    inputs = interval_inputs(OU_INPUT, 0.0, OU_DT)
    init_rng = NoiseStream(SEED, 910).generator()
    errs = {"enkf": np.zeros((N_SEEDS, len(sizes))), "pf": np.zeros((N_SEEDS, len(sizes)))}
    for j, n in enumerate(sizes):
        # replicate r draws each role's noise as one block from child r of
        # that role's stream, so a replicate costs a few vectorized draws
        # whatever n is
        prop_e = NoiseStream(SEED, 920 + j)
        pert_e = NoiseStream(SEED, 930 + j)
        prop_p = NoiseStream(SEED, 940 + j)
        for r in range(N_SEEDS):
            x0 = OU_M0 + np.sqrt(OU_P0) * init_rng.standard_normal((1, n))
            # both share the Monte Carlo prediction; only the update differs
            X = propagate_members(model, x0, inputs, 0.0, OU_DT, prop_e.child(r).generator())
            ens, _, _ = enkf_update(Ensemble(X, OU_DT), model, y1, Rm,
                                    pert_e.child(r).generator())
            X = propagate_members(model, x0, inputs, 0.0, OU_DT, prop_p.child(r).generator())
            particles = ParticleSet(X, np.full(n, 1.0 / n), OU_DT)
            particles, _, _ = pf_update(particles, model, y1, Rm)
            for kind, sample in (("enkf", ens), ("pf", particles)):
                errs[kind][r, j] = abs(float(posterior_summary(sample).mean[0]) - kf_mean)
    slopes = {kind: float(np.polyfit(np.log10(sizes), np.log10(errs[kind].mean(axis=0)), 1)[0])
              for kind in errs}
    seconds = time.perf_counter() - tic
    print(f"criterion 2: error-vs-size slope enkf {slopes['enkf']:.3f} "
          f"pf {slopes['pf']:.3f} ({seconds:.0f} s)")
    assert -0.65 <= slopes["enkf"] <= -0.35
    assert -0.65 <= slopes["pf"] <= -0.35
    assert seconds < 120.0


def test_criterion_03_parameter_recovery(seed_bank):
    ref_beta_err = {k: max(seed_bank[k]["tail_err"]) for k in FILTER_KINDS}
    med_mse_p = {k: float(np.median(seed_bank[k]["mse_p"])) for k in FILTER_KINDS}
    print("criterion 3: worst tail |beta err| "
          + " ".join(f"{k} {v:.3f}" for k, v in ref_beta_err.items())
          + " | median mse_p "
          + " ".join(f"{k} {v:.1f}" for k, v in med_mse_p.items())
          + f" ({seed_bank['seconds']:.0f} s)")
    for kind in FILTER_KINDS:
        assert all(s == "ok" for s in seed_bank[kind]["status"])
        assert ref_beta_err[kind] < 2.0, kind
        assert 1.0 <= med_mse_p[kind] <= 20.0, kind
    assert seed_bank["seconds"] < 600.0


def test_criterion_04_filter_ranking(seed_bank):
    mse = {k: float(np.median(seed_bank[k]["mse_x"])) for k in FILTER_KINDS}
    cpu = {k: float(np.median(seed_bank[k]["t_cpu"])) for k in FILTER_KINDS}
    accuracy = mse["enkf"] <= mse["ekf"] and mse["enkf"] <= mse["ukf"]
    cost = cpu["ekf"] < cpu["ukf"] < min(cpu["enkf"], cpu["pf"])
    print("criterion 4: median mse_x "
          + " ".join(f"{k} {v:.4f}" for k, v in mse.items())
          + " | median t_cpu_us "
          + " ".join(f"{k} {v * 1e6:.0f}" for k, v in cpu.items())
          + f" | accuracy half {'holds' if accuracy else 'fails'}"
          + f", cost half {'holds' if cost else 'fails'}")
    assert mse["enkf"] <= mse["ekf"] and mse["enkf"] <= mse["ukf"], \
        f"median mse_x ranking: enkf {mse['enkf']:.4f} vs ekf {mse['ekf']:.4f} / ukf {mse['ukf']:.4f}"
    assert cpu["ekf"] < cpu["ukf"] < min(cpu["enkf"], cpu["pf"]), \
        f"median t_cpu ranking: ekf {cpu['ekf']:.4f} ukf {cpu['ukf']:.4f} " \
        f"enkf {cpu['enkf']:.4f} pf {cpu['pf']:.4f}"


def test_criterion_05_uncertainty_versus_oracle(default_run):
    tic = time.perf_counter()
    report = uncertainty_comparison(default_run["cfg"], default_run["truth"])
    seconds = default_run["seconds"] + time.perf_counter() - tic
    fracs = {k: s["t_std_ratio_within_factor3_fraction"] for k, s in report.summary.items()}
    print("criterion 5: T-std within factor 3 at "
          + " ".join(f"{k} {v:.0%}" for k, v in fracs.items()) + f" of steps ({seconds:.0f} s)")
    assert report.oracle_status == "ok"
    for kind in FILTER_KINDS:
        assert report.summary[kind]["status"] == "ok"
        assert fracs[kind] >= 0.80, kind
    assert seconds < 900.0


def test_criterion_06_ensemble_collapse_boundary(default_run):
    pairs = ensemble_size_sweep(default_run["cfg"], default_run["truth"], (3, 4),
                                filters=("enkf",), serial=True)
    by_size = dict(pairs)
    print(f"criterion 6: N=4 status {by_size[4].status} collapsed {by_size[4].collapsed} | "
          f"N=3 status {by_size[3].status} collapsed {by_size[3].collapsed}")
    assert by_size[4].status == "ok" and not by_size[4].collapsed
    assert by_size[3].collapsed or by_size[3].status != "ok"


def test_criterion_07_particle_count_sensitivity(seed_bank):
    small = float(np.median(seed_bank["pf100_mse_x"]))
    large = float(np.median(seed_bank["pf"]["mse_x"]))
    print(f"criterion 7: median mse_x pf(100) {small:.4f} > pf(1000) {large:.4f}")
    assert small > large


def test_criterion_08_property_suites_green(child_env, pytestconfig):
    # every unit module passes: in this session, whose unit tests all run before
    # this test, or, for the modules it did not run whole, in a child pytest
    unit = pytestconfig.pluginmanager.get_plugin("unit_session")
    leftover, tail = unit.leftover, ""
    if leftover:
        proc = subprocess.run([sys.executable, "-m", "pytest", *map(str, leftover), "-q",
                               "-p", "no:cacheprovider"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=900)
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
        tail = f"; {len(leftover)} in a child pytest -> {tail}"
    print(f"criterion 8: {len(unit.ran)} unit modules run in session, "
          f"{len(unit.failures)} failures{tail}")
    assert not unit.failures, "\n".join(unit.failures)
    assert not leftover or proc.returncode == 0, proc.stdout + proc.stderr


def test_criterion_09_steady_state_curve(tmp_path, child_env):
    out = tmp_path / "curve"
    proc = subprocess.run([sys.executable, "-m", "cdassim", "steady-state",
                           "--out", str(out)], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    curve = np.genfromtxt(out / "steady_state.csv", delimiter=",", names=True)
    flow = curve["F_s"]
    signs = np.sign(np.diff(flow))
    turns = int(np.sum(signs[1:] * signs[:-1] < 0))
    params = load_config().cstr_params()
    worst = 0.0
    for T_s, F_s in zip(curve["T_s"], flow):
        ca, cb = adiabatic_concentrations(T_s, params)
        drift = cstr3_drift(np.array([[ca], [cb], [T_s], [params.beta]]), F_s)
        scale = F_s / V * max(CA_IN, CB_IN, T_s - T_IN)
        worst = max(worst, float(np.max(np.abs(drift))) / scale)
    print(f"criterion 9: {turns} turning points, worst drift residual {worst:.2e} of scale")
    assert turns >= 2
    assert worst <= 1e-8


def _canonical(path: Path) -> bytes:
    """File bytes with CPU-timing fields removed, so runs compare on numbers."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        def scrub(node):
            if isinstance(node, dict):
                return {k: scrub(v) for k, v in node.items() if k != "t_cpu_s"}
            if isinstance(node, list):
                return [scrub(v) for v in node]
            return node
        return json.dumps(scrub(json.loads(raw)), sort_keys=True).encode()
    lines = raw.decode().strip().split("\n")
    head = lines[0].split(",")
    if "t_cpu_s" in head:
        keep = [i for i, name in enumerate(head) if name != "t_cpu_s"]
        lines = ["\x1f".join(row.split(",")[i] for i in keep) for row in lines]
    return "\n".join(lines).encode()


def test_criterion_10_determinism_across_thread_counts(tmp_path, child_env):
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    commands = {
        "simulate": ["simulate"],
        "estimate": ["estimate"],
        "steady-state": ["steady-state"],
        "sweep": ["sweep", "--sizes", "8,16"],
        "oracle": ["oracle"],
    }
    for name, args in commands.items():
        # equal resolved configs: default out_dir, one working dir per run
        outs = []
        for threads in ("1", "4"):
            workdir = tmp_path / f"{name}-t{threads}"
            workdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "cdassim", *args, "--config", str(cfg_path)],
                cwd=workdir, env=child_env(CDASSIM_THREADS=threads),
                capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, (name, threads, proc.stderr)
            outs.append(workdir / "results")
        a, b = outs
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir()), name
        for fname in names_a:
            assert _canonical(a / fname) == _canonical(b / fname), (name, fname)
    print(f"criterion 10: {len(commands)} subcommands byte-identical across "
          f"CDASSIM_THREADS=1 and =4")

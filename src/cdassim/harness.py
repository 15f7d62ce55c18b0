"""Twin-experiment orchestration.

Generates a synthetic truth path and noisy temperature measurements, runs
the four filters against them, reduces the results to benchmark metrics
(state MSE, parameter MSE, per-step wall-clock), compares each filter's
posterior spread against a large-particle reference run, sweeps Monte Carlo
sizes, and writes plot-ready CSV/JSON reports.

The independent filter runs of ``run_all_filters``, ``ensemble_size_sweep``
and ``uncertainty_comparison`` fan out over worker processes forked from
the caller, because every filter is bound by Python call overhead and holds
the GIL, so threads would only contend. A forked worker inherits the run's
config, truth and model, which carry lambdas and cannot be pickled; only the
task values (kind, size, stream tag) go to the workers and only the
``FilterMetrics`` with their ``FilterOutput`` come back. ``worker_count``
decides how many workers run; one worker, or ``serial``, runs every task in
the calling process.

Noise-stream tags: truth and measurement noise get their own root streams,
each filter gets a fixed root stream of its own, and the reference particle
run gets another, so any subset of the work can be redone in isolation and
byte-identical results do not depend on scheduling.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from math import isfinite
from pathlib import Path

import numpy as np

from cdassim.config import ExperimentConfig
from cdassim.cstr import V, cstr3_rates, default_experiment_model
from cdassim.filters.beliefs import FilterOutput, GaussianBelief
from cdassim.filters.runner import (
    FILTER_KINDS,
    SAMPLE_KINDS,
    FilterConfig,
    FilterRunError,
    run_filter,
)
from cdassim.sde import DivergenceError, NoiseStream, PiecewiseConstant, SdeModel, rk4_inputs

__all__ = [
    "STREAM_TRUTH",
    "STREAM_MEAS",
    "FILTER_STREAM",
    "STREAM_ORACLE",
    "TruthData",
    "FilterMetrics",
    "UncertaintyReport",
    "generate_truth_and_measurements",
    "run_one_filter",
    "requested_kinds",
    "run_all_filters",
    "uncertainty_comparison",
    "ensemble_size_sweep",
    "TRUTH_HEADER",
    "truth_rows",
    "write_table",
    "write_json",
    "write_report",
    "write_uncertainty_report",
    "write_sweep_report",
    "worker_count",
]

STREAM_TRUTH = 0
STREAM_MEAS = 1
FILTER_STREAM = {"ekf": 10, "ukf": 11, "enkf": 12, "pf": 13}
STREAM_ORACLE = 14

# Divergence heuristic: a healthy filter's NIS is chi^2(1)-ish (mean 1); a
# diverged one underestimates its spread so squared innovations dwarf the
# predicted innovation variance step after step.
NIS_COLLAPSE_THRESHOLD = 16.0
NIS_COLLAPSE_FRACTION = 0.2

# Spread-loss heuristic: collapse shows up as a posterior direction whose
# variance contracts to machine-level nothing relative to its initial value.
# Healthy runs on the default config keep every direction above ~1e-7 of the
# initial variance (the 4-member ensemble briefly grazes ~3e-10); a 3-member
# ensemble, rank-starved below the augmented dimension, spends ~17% of its
# steps under 1e-10.
SPREAD_COLLAPSE_RATIO = 1e-10
SPREAD_COLLAPSE_FRACTION = 0.05

TAIL_SECONDS = 300.0  # "final five minutes" window for parameter convergence

MSE_X_DEFINITION = (
    "time average over assimilation steps of the squared estimation error "
    "averaged across the three physical states, in native units "
    "(mol/L, mol/L, K); temperature dominates"
)


def worker_count(n_tasks: int, serial: bool = False) -> int:
    """Number of worker processes for ``n_tasks`` independent filter runs.

    ``CDASSIM_THREADS`` caps the count when it holds an integer; otherwise the
    cap is the number of CPUs this process may run on (its affinity mask
    where the platform reports one). ``serial``, a single task, or a
    platform that cannot fork gives 1: every task runs in the caller.
    """
    if serial or n_tasks <= 1:
        return 1
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    cap = os.environ.get("CDASSIM_THREADS", "")
    try:
        cap_n = int(cap) if cap else cpus
    except ValueError:
        cap_n = cpus
    return max(1, min(n_tasks, cap_n))


@dataclass(frozen=True)
class TruthData:
    """Synthetic ground truth plus the measurements derived from it."""

    times: np.ndarray        # assimilation instants t_1..t_n, seconds
    truth_states: np.ndarray  # (n+1, 4) joint (CA, CB, T, beta) truth at t_0..t_n
    measurements: np.ndarray  # (n,) noisy temperature observations

    @property
    def n_steps(self) -> int:
        return len(self.times)


def generate_truth_and_measurements(config: ExperimentConfig) -> TruthData:
    """Simulate one truth path and measure it, with noise, through the model's ``measure``.

    The truth follows the filters' joint model with beta's random-walk
    channel off, so beta keeps its configured value. It is stepped on
    Python floats through :func:`~cdassim.cstr.cstr3_rates` at the substep
    resolution the filters use internally (no separate fine grid;
    documented choice), in the order of the members' Euler-Maruyama kernel
    :func:`~cdassim.sde.propagate_members`, so its states, its increments
    (one draw of ``substeps`` normals per interval from one generator of the
    truth stream) and its :class:`~cdassim.sde.DivergenceError` messages are
    those of a ``(4, 1)`` column stepped by that kernel one interval per
    call, bit for bit. Measurement noise comes from its own stream, so
    regenerating measurements never perturbs the truth path. Numpy's divide,
    overflow and invalid warnings are off, as in a filter run.
    """
    params = config.cstr_params()
    exp = default_experiment_model(params, config.flow_profile(), param_diffusion=0.0)
    times = config.sample_times()
    flows = rk4_inputs(exp.flow, 0.0, times, config.substeps)[:, :, 0, 0]
    rng = NoiseStream(config.seed, STREAM_TRUTH).generator()
    # beta's rate is zero and the config's beta is nonzero: x + f h keeps it
    CA, CB, T, beta = state = config.truth_init().tolist()
    rows = [state]
    t0 = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t1, interval in zip(times.tolist(), flows.tolist()):
            h = (t1 - t0) / config.substeps
            dws = (rng.standard_normal(config.substeps) * np.sqrt(h)).tolist()
            for j, (F, dw) in enumerate(zip(interval, dws)):
                FV = F / V
                dCA, dCB, dT, _, _ = cstr3_rates(CA, CB, T, beta, FV)
                g = FV * params.sigma_T
                if not (isfinite(dCA) and isfinite(dCB) and isfinite(dT) and isfinite(g)):
                    raise DivergenceError(f"non-finite drift/diffusion at t={t0 + j * h}")
                CA = CA + dCA * h
                CB = CB + dCB * h
                # x + f h, then the push g dw, rounded apart. The members skip a
                # zero g; adding its zero push changes no bit, as T is never -0.0
                # here (a start at -0.0 has non-finite rates)
                T = T + dT * h + g * dw
                # np.maximum's clamp: -0.0 and NaN pass
                CA = 0.0 if CA < 0.0 else CA
                CB = 0.0 if CB < 0.0 else CB
            if not (isfinite(CA) and isfinite(CB) and isfinite(T) and isfinite(beta)):
                raise DivergenceError(f"member 0 diverged by t={t1}")
            rows.append((CA, CB, T, beta))
            t0 = t1
    truth_states = np.array(rows)
    meas_rng = NoiseStream(config.seed, STREAM_MEAS).generator()
    noise = np.sqrt(config.obs_variance) * meas_rng.standard_normal(config.n_samples)
    return TruthData(
        times=times,
        truth_states=truth_states,
        measurements=exp.model.measure(times, truth_states[1:].T)[0] + noise,
    )


@dataclass
class FilterMetrics:
    """One filter's benchmark numbers for one run."""

    kind: str
    status: str = "ok"
    mse_x: float = float("nan")
    mse_p: float = float("nan")
    t_cpu_s: float = float("nan")
    beta_final: float = float("nan")
    beta_tail_mean_abs_err: float = float("nan")
    collapsed: bool = False
    nis_exceed_fraction: float = float("nan")
    spread_collapse_fraction: float = float("nan")
    failed_step: int | None = None
    output: FilterOutput | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """The serialized record: every field but ``kind`` and ``output``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("kind", "output")}


def _filter_config(config: ExperimentConfig, kind: str, *, size: int | None = None,
                   stream_tag: int | None = None) -> FilterConfig:
    # the config schema admits a noiseless measurement for simulate; every
    # filter needs a positive-definite measurement covariance
    if config.obs_variance <= 0:
        raise ValueError("noise.obs_variance must be > 0 to run a filter")
    tag = FILTER_STREAM[kind] if stream_tag is None else stream_tag
    if size is None:  # only the member-based kinds read a size
        size = {"enkf": config.ensemble_size, "pf": config.particle_count}.get(kind)
    return FilterConfig(
        initial=GaussianBelief(config.filter_init_mean(), config.filter_init_cov(), time=0.0),
        obs_cov=np.array([[config.obs_variance]]),
        stream=NoiseStream(config.seed, tag),
        substeps=config.substeps,
        scaling=config.ukf_scaling(),
        size=size,
        resample=config.resample_policy(),
    )


def _spread_collapse_fraction(out: FilterOutput) -> float:
    """Fraction of steps with a posterior direction squeezed to nothing.

    Per-component posterior variance is compared against the initial belief;
    components that started with zero variance carry no spread to lose and
    are excluded.
    """
    d0 = np.diag(out.initial.cov)
    live = d0 > 0
    if not np.any(live) or len(out.post_cov) == 0:
        return 0.0
    post_var = np.diagonal(out.post_cov, axis1=1, axis2=2)
    rel_floor = (post_var[:, live] / d0[live]).min(axis=1)
    return float(np.mean(rel_floor < SPREAD_COLLAPSE_RATIO))


def _collapse_causes(m: FilterMetrics) -> list[str]:
    """The collapse heuristics that fire on a scored run, each in words."""
    return [cause for cause, frac, limit in (
        ("sustained innovation inconsistency", m.nis_exceed_fraction, NIS_COLLAPSE_FRACTION),
        ("posterior spread collapse", m.spread_collapse_fraction, SPREAD_COLLAPSE_FRACTION),
    ) if frac > limit]


def _score(kind: str, out: FilterOutput, config: ExperimentConfig,
           truth: TruthData) -> FilterMetrics:
    err = out.post_mean - truth.truth_states[1:]
    tail = truth.times > config.horizon_seconds - TAIL_SECONDS
    m = FilterMetrics(
        kind=kind,
        mse_x=float(np.mean(err[:, :3] ** 2)),
        mse_p=float(np.mean(err[:, 3] ** 2)),
        t_cpu_s=float(np.mean(out.step_seconds)),
        beta_final=float(out.post_mean[-1, 3]),
        beta_tail_mean_abs_err=float(np.mean(np.abs(err[tail, 3]))),
        nis_exceed_fraction=float(np.mean(out.nis > NIS_COLLAPSE_THRESHOLD)),
        spread_collapse_fraction=_spread_collapse_fraction(out),
        output=out,
    )
    m.collapsed = bool(_collapse_causes(m))
    return m


def run_one_filter(kind: str, config: ExperimentConfig, truth: TruthData, model: SdeModel,
                   flow: PiecewiseConstant, *, size: int | None = None,
                   stream_tag: int | None = None) -> FilterMetrics:
    """Run one filter of the joint ``model`` driven by ``flow``; failures become a record."""
    fc = _filter_config(config, kind, size=size, stream_tag=stream_tag)
    try:
        out = run_filter(kind, model, fc, truth.times, truth.measurements, u=flow)
    except FilterRunError as exc:
        return FilterMetrics(kind=kind, status=f"failed: {exc}", collapsed=True,
                             failed_step=exc.step)
    return _score(kind, out, config, truth)


# the task function of this process's pool, when it is a forked worker
_worker_task = None


def _inherit_task(task) -> None:
    global _worker_task
    _worker_task = task


def _call_task(arg):
    return _worker_task(arg)


def _run_filters(config: ExperimentConfig, truth: TruthData, tasks,
                 serial: bool) -> list[FilterMetrics]:
    """Run ``(kind, size, stream_tag)`` filter tasks; results in task order.

    With more than one worker the tasks run on forked processes. The task
    closure reaches them as the pool initializer's argument, which a fork
    hands over in memory without pickling; a fork pool starts all its
    workers at the first submit, before its own manager thread exists, and
    forked workers skip the re-import of numpy and cdassim that spawned
    ones would pay on every call. ``run_one_filter`` turns a
    filter failure into a record inside the worker, so only plain
    exceptions, such as the ``ValueError`` of an unusable config, are raised
    across the process boundary.
    """
    exp = default_experiment_model(config.cstr_params(), config.flow_profile(),
                                   param_diffusion=config.sigma_theta)

    def one(task) -> FilterMetrics:
        kind, size, tag = task
        return run_one_filter(kind, config, truth, exp.model, exp.flow, size=size,
                              stream_tag=tag)

    workers = worker_count(len(tasks), serial)
    if workers == 1:
        return [one(t) for t in tasks]
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit_task, initargs=(one,)) as pool:
        return list(pool.map(_call_task, tasks))


def requested_kinds(filters, allowed=FILTER_KINDS) -> list[str]:
    """The kinds of ``filters`` in ``allowed`` order, each once; all of ``allowed`` if none.

    The one filter-name check, the CLI's too: any name outside ``allowed`` raises ValueError."""
    requested = list(filters or allowed)
    bad = [kind for kind in requested if kind not in allowed]
    if bad:
        raise ValueError(f"filters must be among {'/'.join(allowed)}, got {', '.join(bad)}")
    return [kind for kind in allowed if kind in requested]


def run_all_filters(config: ExperimentConfig, truth: TruthData,
                    filters=None, serial: bool = False) -> dict[str, FilterMetrics]:
    """Run the filter bank against one truth realization: ``{kind: metrics}``.

    Each kind of ``filters`` (all when omitted) runs once, listed in
    ``FILTER_KINDS`` order. Filters run on separate worker processes (see
    ``worker_count``) unless ``serial``; each owns fixed noise streams, so
    scheduling cannot change any numeric output. A failing filter is
    recorded and the rest continue.
    """
    kinds = requested_kinds(filters)
    tasks = [(kind, None, None) for kind in kinds]
    return dict(zip(kinds, _run_filters(config, truth, tasks, serial)))


@dataclass
class UncertaintyReport:
    """Per-filter posterior-spread comparison against the reference run; no copied inputs."""

    oracle_status: str
    oracle_min_ess: float
    # per filter: dict of series, each shape (n_steps,) or (n_steps, 4)
    series: dict[str, dict[str, np.ndarray]]
    summary: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "oracle_status": self.oracle_status,
            "oracle_min_ess": self.oracle_min_ess,
            "filters": self.summary,
        }


def uncertainty_comparison(config: ExperimentConfig, truth: TruthData, filters=None,
                           serial: bool = False) -> UncertaintyReport:
    """Compare each filter's posterior spread against a big-particle reference.

    The reference is the particle filter itself at ``oracle_particle_count``
    samples, which must be at least 10x the largest configured Monte Carlo
    filter size. Degeneracy of the reference (failure or flagged collapse)
    is reported, not raised; a collapse status names each heuristic that
    fired. The filter bank runs in the same worker pool as
    the reference, which starts first because it is the longest run.
    """
    largest = max(config.ensemble_size, config.particle_count)
    if config.oracle_particle_count < 10 * largest:
        raise ValueError(
            f"oracle_particle_count={config.oracle_particle_count} must be >= 10x the "
            f"largest filter size ({largest})")
    kinds = requested_kinds(filters)
    tasks = [("pf", config.oracle_particle_count, STREAM_ORACLE),
             *((kind, None, None) for kind in kinds)]
    oracle, *bank = _run_filters(config, truth, tasks, serial)
    status = oracle.status
    if oracle.ok and oracle.collapsed:
        status = "degenerate: " + " and ".join(_collapse_causes(oracle))
    out_o = oracle.output
    min_ess = float(np.min(out_o.ess)) if oracle.ok else float("nan")

    series: dict[str, dict[str, np.ndarray]] = {}
    summary: dict[str, dict] = {}
    for kind, m in zip(kinds, bank):
        if not (oracle.ok and m.ok):
            summary[kind] = {"status": m.status if not m.ok else status}
            continue
        out_f = m.output
        dmean = out_f.post_mean - out_o.post_mean
        dcov = out_f.post_cov - out_o.post_cov
        var_f = np.diagonal(out_f.post_cov, axis1=1, axis2=2)
        var_o = np.diagonal(out_o.post_cov, axis1=1, axis2=2)
        var_ratio = var_f / var_o
        t_std_ratio = np.sqrt(np.maximum(var_ratio[:, 2], 0.0))
        within3 = (t_std_ratio >= 1.0 / 3.0) & (t_std_ratio <= 3.0)
        series[kind] = {
            "mean_err": np.linalg.norm(dmean, axis=1),
            "cov_frobenius": np.linalg.norm(dcov, axis=(1, 2)),
            "var_ratio": var_ratio,
            "t_std_ratio": t_std_ratio,
        }
        summary[kind] = {
            "status": "ok",
            "t_std_ratio_within_factor3_fraction": float(np.mean(within3)),
            "t_std_ratio_min": float(t_std_ratio.min()),
            "t_std_ratio_max": float(t_std_ratio.max()),
            "mean_err_max": float(series[kind]["mean_err"].max()),
            "cov_frobenius_max": float(series[kind]["cov_frobenius"].max()),
        }
    return UncertaintyReport(oracle_status=status, oracle_min_ess=min_ess, series=series,
                             summary=summary)


def ensemble_size_sweep(config: ExperimentConfig, truth: TruthData, sizes,
                        filters=None,
                        serial: bool = False) -> list[tuple[int, FilterMetrics]]:
    """Rerun the Monte Carlo filters across sizes on one shared realization.

    ``filters`` is a subset of ``SAMPLE_KINDS``, all of them when omitted.
    Each distinct kind and size runs once. Returns ``(size, metrics)`` pairs,
    kinds in ``SAMPLE_KINDS`` order, each with its sizes in request order.
    The runs fan out over worker processes like ``run_all_filters``.
    Collapsed or failed runs are flagged in their metrics, never fatal.
    """
    sizes = list(dict.fromkeys(int(s) for s in sizes))
    if any(s < 2 for s in sizes):
        raise ValueError("every sweep size must be at least 2")
    kinds = requested_kinds(filters, SAMPLE_KINDS)
    tasks = [(kind, size, None) for kind in kinds for size in sizes]
    results = _run_filters(config, truth, tasks, serial)
    return [(size, m) for (_, size, _), m in zip(tasks, results)]


# -- report files -----------------------------------------------------------

# column-name suffixes of the joint state (C_A, C_B, T, beta)
STATE_COLUMNS = ("ca", "cb", "t", "beta")
TRUTH_HEADER = ("t", *(f"truth_{s}" for s in STATE_COLUMNS))


def _write_text(path: Path, text: str) -> Path:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    return path


def write_table(path, header, rows) -> Path:
    """Write one CSV result file: a header line of column names, then ``rows``.

    Strings are written as they are; every number, ints and bools included,
    is printed as a float with 17 significant digits, so equal runs give
    byte-identical files apart from their timing columns.
    """
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row)
              for row in rows]
    return _write_text(Path(path), "\n".join(lines) + "\n")


def _finite_or_null(node):
    # strict JSON has no NaN or Infinity, so a non-finite number (a failed run's metric) is null
    if isinstance(node, dict):
        return {k: _finite_or_null(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_finite_or_null(v) for v in node]
    return None if isinstance(node, float) and not np.isfinite(node) else node


def write_json(path, doc, sort_keys: bool = True) -> Path:
    """Write one strict-JSON result file, 2-space indented; ``sort_keys=False`` keeps key order."""
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=sort_keys, allow_nan=False)
    return _write_text(Path(path), text + "\n")


def truth_rows(truth: TruthData, *columns) -> list[tuple]:
    """Rows of t, the joint truth, ``columns`` and the measurement, from t_0 on.

    Each of ``columns`` holds one row per instant t_0..t_n; t_0 has no
    measurement, so its last cell is empty.
    """
    times = np.concatenate([[0.0], truth.times])
    table = np.column_stack([times, truth.truth_states, *columns])
    return [(*row, meas) for row, meas in zip(table, ["", *truth.measurements])]


def write_report(config: ExperimentConfig, filters: dict[str, FilterMetrics],
                 truth: TruthData, out_dir) -> list[Path]:
    """Write metrics.csv/json and the trajectory CSVs of ``run_all_filters``'s ``filters``.

    metrics.json also records the config's seed and hash.
    """
    out = Path(out_dir)
    doc = {"seed": config.seed, "config_hash": config.config_hash(),
           "mse_x_definition": MSE_X_DEFINITION,
           "filters": {kind: m.to_dict() for kind, m in filters.items()}}
    paths = [
        write_table(out / "metrics.csv", ("filter", "mse_x", "mse_p", "t_cpu_s"),
                    [(kind, m.mse_x, m.mse_p, m.t_cpu_s) for kind, m in filters.items()]),
        write_json(out / "metrics.json", doc),
    ]
    header = (*TRUTH_HEADER, *(f"est_{s}" for s in STATE_COLUMNS),
              *(f"std_{s}" for s in STATE_COLUMNS), "measurement")
    for kind, m in filters.items():
        if not m.ok:
            continue
        o = m.output
        est = np.vstack([o.initial.mean, o.post_mean])
        cov = np.concatenate([o.initial.cov[None], o.post_cov])
        std = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
        paths.append(write_table(out / f"trajectory_{kind}.csv", header,
                                 truth_rows(truth, est, std)))
    return paths


def write_uncertainty_report(config: ExperimentConfig, truth: TruthData,
                             unc: UncertaintyReport, out_dir) -> list[Path]:
    """Write uncertainty.json plus one per-filter divergence CSV into ``out_dir``.

    uncertainty.json also records the config's seed, hash and
    ``oracle_particle_count``; each CSV has one row per ``truth.times``.
    """
    out = Path(out_dir)
    doc = {"seed": config.seed, "config_hash": config.config_hash(),
           "oracle_particles": config.oracle_particle_count, **unc.to_dict()}
    paths = [write_json(out / "uncertainty.json", doc)]
    header = ("t", "mean_err", "cov_frobenius", *(f"var_ratio_{s}" for s in STATE_COLUMNS),
              "t_std_ratio")
    for kind, s in unc.series.items():
        table = np.column_stack([truth.times, s["mean_err"], s["cov_frobenius"],
                                 s["var_ratio"], s["t_std_ratio"]])
        paths.append(write_table(out / f"uncertainty_{kind}.csv", header, table))
    return paths


def write_sweep_report(rows: list[tuple[int, FilterMetrics]], out_dir) -> list[Path]:
    """Write sweep.csv and sweep.json for the ``(size, metrics)`` pairs of a size sweep."""
    out = Path(out_dir)
    table = [(m.kind, size, m.mse_x, m.mse_p, m.t_cpu_s, m.collapsed, m.status)
             for size, m in rows]
    records = [{"kind": m.kind, "size": size, "status": m.status, "mse_x": m.mse_x,
                "mse_p": m.mse_p, "t_cpu_s": m.t_cpu_s, "collapsed": m.collapsed}
               for size, m in rows]
    return [
        write_table(out / "sweep.csv",
                    ("filter", "size", "mse_x", "mse_p", "t_cpu_s", "collapsed", "status"),
                    table),
        write_json(out / "sweep.json", records, sort_keys=False),
    ]

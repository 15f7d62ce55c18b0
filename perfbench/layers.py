"""The program bindings the traced run wraps, and the per-layer metrics.

Every hook names the module a caller looks the function up in, so the span
sits exactly at that layer boundary. The model callables (drift, diffusion,
measurement, Jacobians, constraint) are not module bindings: they are
wrapped on the experiment model that ``harness.default_experiment_model``
returns, with ``dataclasses.replace``.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from tracing import CountingGenerator, Hooks, Tracer

# (module, attribute, span name)
SPANS = (
    ("cdassim.config", "load_config", "config.load"),
    ("cdassim.cli", "load_config", "config.load"),
    ("cdassim.harness", "generate_truth_and_measurements", "harness.truth"),
    ("cdassim.cli", "generate_truth_and_measurements", "harness.truth"),
    ("cdassim.harness", "simulate_path", "sde.simulate_path"),
    ("cdassim.harness", "run_one_filter", "harness.run_one_filter"),
    ("cdassim.harness", "run_all_filters", "harness.pool"),
    ("cdassim.cli", "run_all_filters", "harness.pool"),
    ("cdassim.cli", "ensemble_size_sweep", "harness.pool"),
    ("cdassim.cli", "write_report", "harness.write"),
    ("cdassim.cli", "write_sweep_report", "harness.write"),
    ("cdassim.cli", "write_uncertainty_report", "harness.write"),
    ("cdassim.harness", "run_filter", "filters.runner"),
    ("cdassim.filters.runner", "ekf_predict", "filters.ekf.predict"),
    ("cdassim.filters.runner", "kalman_update", "filters.ekf.update"),
    ("cdassim.filters.runner", "ukf_predict", "filters.ukf.predict"),
    ("cdassim.filters.runner", "ukf_update", "filters.ukf.update"),
    ("cdassim.filters.unscented", "ukf_sigma_points", "filters.ukf.sigma_points"),
    ("cdassim.filters.runner", "enkf_predict", "filters.enkf.predict"),
    ("cdassim.filters.runner", "enkf_update", "filters.enkf.update"),
    ("cdassim.filters.pf", "systematic_resample", "filters.pf.resample"),
    ("cdassim.filters.enkf", "propagate_members", "filters.montecarlo.propagate"),
    ("cdassim.filters.pf", "propagate_members", "filters.montecarlo.propagate"),
    ("cdassim.filters.runner", "member_generators", "filters.montecarlo.member_generators"),
    ("cdassim.filters.runner", "posterior_summary", "filters.beliefs.summary"),
    ("cdassim.filters.enkf", "posterior_summary", "filters.beliefs.summary"),
    ("cdassim.filters.pf", "posterior_summary", "filters.beliefs.summary"),
    ("cdassim.filters.kalman", "solve_spd", "filters.linalg.solve_spd"),
    ("cdassim.filters.unscented", "solve_spd", "filters.linalg.solve_spd"),
    ("cdassim.filters.enkf", "solve_spd", "filters.linalg.solve_spd"),
    ("cdassim.filters.runner", "chol_psd", "filters.linalg.chol_psd"),
    ("cdassim.filters.unscented", "chol_psd", "filters.linalg.chol_psd"),
    ("cdassim.filters.enkf", "chol_psd", "filters.linalg.chol_psd"),
    ("cdassim.filters.pf", "chol_psd", "filters.linalg.chol_psd"),
    ("cdassim.cstr", "cstr3_drift", "cstr.drift_kernel"),
    ("cdassim.cstr", "cstr3_jacobian", "cstr.jacobian"),
)

# spans whose individual intervals pool utilization needs
KEPT = ("harness.pool", "harness.run_one_filter")

# model field -> span name
MODEL_SPANS = {
    "drift": "sde.drift",
    "drift_jacobian": "sde.drift_jac",
    "diffusion": "sde.diffusion",
    "measure": "sde.measure",
    "measure_jacobian": "sde.measure",
    "constrain": "sde.constrain",
}

MODEL_EVAL = ("sde.drift", "sde.drift_jac", "sde.diffusion", "sde.measure",
              "sde.constrain", "cstr.drift_kernel", "cstr.jacobian")
NOISE = ("sde.noise.stream", "sde.noise.draw")
MONTECARLO = ("filters.montecarlo.propagate", "filters.montecarlo.member_generators")
LINALG = ("filters.linalg.solve_spd", "filters.linalg.chol_psd")
# a pool span's own time is the caller waiting for worker threads, so it is
# left out of the harness share and shows through harness.pool_util instead
HARNESS = ("harness.truth", "harness.run_one_filter", "harness.write", "config.load",
           "sde.simulate_path")

CLI_SUBCOMMANDS = ("simulate", "estimate", "sweep", "oracle")
FILTER_KINDS = ("ekf", "ukf", "enkf", "pf")


COUNT_SUFFIXES = (".calls", ".cols", ".streams", ".draw_calls", ".draws", ".model_builds",
                  ".workers", ".absent_layers")
RATIO_SUFFIXES = ("_frac", ".frac", "_ratio", "_util", "_per_drift")
HIGHER_IS_BETTER = ("filters.pf.ess_frac", "harness.pool_util", "harness.workers")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(RATIO_SUFFIXES):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    return "s"


def _count_cols(tracer, args, result):
    x = args[1]
    tracer.count("sde.drift.cols", x.shape[1] if np.ndim(x) == 2 else 1)


def wrap_model(model, tracer: Tracer):
    """Copy of an SdeModel whose callables are spans."""
    wrapped = {}
    for name, span in MODEL_SPANS.items():
        fn = getattr(model, name, None)
        if fn is not None:
            observe = _count_cols if name == "drift" else None
            wrapped[name] = tracer.wrap(fn, span, observe)
    return dataclasses.replace(model, **wrapped)


def _observe_pf(tracer, args, result):
    particles, info = result
    tracer.count("filters.pf.ess_frac_sum", info.ess / particles.size)


def _observe_workers(tracer, args, result):
    tracer.mark("harness.workers", result)


def install(hooks: Hooks) -> None:
    """Install every layer hook; missing bindings land in ``hooks.absent``."""
    tracer = hooks.tracer
    for module, attr, name in SPANS:
        hooks.span(module, attr, name)
    hooks.span("cdassim.filters.runner", "pf_step", "filters.pf.step", _observe_pf)
    hooks.span("cdassim.harness", "worker_count", "harness.worker_count", _observe_workers)

    def counted_builds(fn):
        def build(*args, **kwargs):
            tracer.count("cstr.model_builds")
            return fn(*args, **kwargs)
        return build
    hooks.replace("cdassim.cstr", "cstr3_model", counted_builds)

    def traced_experiment(fn):
        def build(*args, **kwargs):
            exp = fn(*args, **kwargs)
            return dataclasses.replace(exp, model=wrap_model(exp.model, tracer))
        return build
    hooks.replace("cdassim.harness", "default_experiment_model", traced_experiment)

    def traced_generator(fn):
        timed = tracer.wrap(fn, "sde.noise.stream")

        def generator(stream):
            return CountingGenerator(timed(stream), tracer)
        return generator
    hooks.replace("cdassim.sde", "NoiseStream.generator", traced_generator)


def pool_utilization(records) -> tuple[float, int]:
    """(filter busy time / sum of pool wall x workers, largest worker count).

    A pool span is a harness call that may fan filters out to threads; the
    worker count it used is the ``harness.workers`` mark inside it, and its
    busy time is the filter runs that start and end inside its interval.
    """
    pools = [r for r in records if r.name == "harness.pool"]
    busy = den = 0.0
    most = 0
    for p in pools:
        marks = [r.value for r in records
                 if r.name == "harness.workers" and p.start <= r.start <= p.end]
        if not marks:
            continue
        workers = int(marks[0])
        most = max(most, workers)
        den += (p.end - p.start) * workers
        busy += sum(r.end - r.start for r in records
                    if r.name == "harness.run_one_filter"
                    and r.start >= p.start and r.end <= p.end)
    return (busy / den if den > 0 else 0.0), most


def metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, *, overhead: float,
            step_ms: dict, absent: int, import_s: float, import_scipy_s: float,
            commands: int, command_wall: float) -> dict:
    """Every per-layer metric, by name, from one traced pass.

    ``*_s`` metrics are inclusive raw span seconds, ``*.self_s`` subtract the
    enclosed spans, ``*_frac`` shares divide by the traced pass's raw wall
    time; layers a workload never enters read 0. ``step_ms`` (per filter
    kind) and ``overhead`` (traced over untraced wall, minus one) come from
    reference-speed times, like the end-to-end metrics.
    """
    stats, counts, records = tracer.totals()

    def calls(name):
        s = stats.get(name)
        return s.calls if s else 0

    def total(name):
        s = stats.get(name)
        return s.total if s else 0.0

    def own(*names):
        return sum(stats[n].self for n in names if n in stats)

    def share(seconds):
        return seconds / traced_wall if traced_wall > 0 else 0.0

    pf_steps = calls("filters.pf.step")
    util, workers = pool_utilization(records)
    filter_spans = [n for n in stats if n.startswith("filters.")
                    and not n.startswith(("filters.montecarlo.", "filters.linalg."))]
    return {
        "sde.drift.calls": calls("sde.drift"),
        "sde.drift.cols": counts.get("sde.drift.cols", 0),
        "sde.drift.self_s": own("sde.drift"),
        "sde.drift_jac.calls": calls("sde.drift_jac"),
        "sde.drift_jac.self_s": own("sde.drift_jac"),
        "sde.diffusion.self_s": own("sde.diffusion"),
        "sde.constrain.self_s": own("sde.constrain"),
        "sde.measure.self_s": own("sde.measure"),
        "sde.noise.streams": calls("sde.noise.stream"),
        "sde.noise.stream_s": total("sde.noise.stream"),
        "sde.noise.draw_calls": calls("sde.noise.draw"),
        "sde.noise.draws": counts.get("sde.noise.draws", 0),
        "sde.noise.draw_s": total("sde.noise.draw"),
        "sde.simulate_path_s": total("sde.simulate_path"),
        "cstr.drift_kernel.calls": calls("cstr.drift_kernel"),
        "cstr.drift_kernel.self_s": own("cstr.drift_kernel"),
        "cstr.jacobian.calls": calls("cstr.jacobian"),
        "cstr.jacobian.self_s": own("cstr.jacobian"),
        "cstr.model_builds": counts.get("cstr.model_builds", 0),
        "cstr.builds_per_drift": (counts.get("cstr.model_builds", 0) / calls("sde.drift")
                                  if calls("sde.drift") else 0.0),
        "filters.ekf.predict_s": total("filters.ekf.predict"),
        "filters.ekf.update_s": total("filters.ekf.update"),
        "filters.ukf.predict_s": total("filters.ukf.predict"),
        "filters.ukf.update_s": total("filters.ukf.update"),
        "filters.ukf.sigma_points_s": total("filters.ukf.sigma_points"),
        "filters.enkf.predict_s": total("filters.enkf.predict"),
        "filters.enkf.update_s": total("filters.enkf.update"),
        "filters.pf.step_s": total("filters.pf.step"),
        "filters.pf.resample_s": total("filters.pf.resample"),
        "filters.pf.resample_ratio": calls("filters.pf.resample") / pf_steps if pf_steps else 0.0,
        "filters.pf.ess_frac": (counts.get("filters.pf.ess_frac_sum", 0.0) / pf_steps
                                if pf_steps else 0.0),
        "filters.montecarlo.propagate_s": total("filters.montecarlo.propagate"),
        "filters.montecarlo.member_generators_s": total("filters.montecarlo.member_generators"),
        "filters.beliefs.summary_s": total("filters.beliefs.summary"),
        "filters.linalg.solve_spd.calls": calls("filters.linalg.solve_spd"),
        "filters.linalg.solve_spd.self_s": own("filters.linalg.solve_spd"),
        "filters.linalg.chol_psd.calls": calls("filters.linalg.chol_psd"),
        "filters.linalg.chol_psd.self_s": own("filters.linalg.chol_psd"),
        "filters.runner.self_s": own("filters.runner"),
        **{f"filters.{k}.step_ms": step_ms.get(k, 0.0) for k in FILTER_KINDS},
        "harness.truth_s": total("harness.truth"),
        "harness.write_s": total("harness.write"),
        "harness.workers": workers,
        "harness.pool_util": util,
        "config.load_s": total("config.load"),
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        **{f"cli.dispatch_s.{c}": total(f"cli.dispatch.{c}") for c in CLI_SUBCOMMANDS},
        "layer.model_eval.self_frac": share(own(*MODEL_EVAL)),
        "layer.noise.self_frac": share(own(*NOISE)),
        "layer.montecarlo.self_frac": share(own(*MONTECARLO)),
        "layer.linalg.self_frac": share(own(*LINALG)),
        "layer.filters.self_frac": share(own(*filter_spans)),
        "layer.harness.self_frac": share(own(*HARNESS)),
        "layer.cli.self_frac": share(own(*(f"cli.dispatch.{c}" for c in CLI_SUBCOMMANDS))),
        "layer.cli_import.frac": (import_s * commands / command_wall
                                  if command_wall > 0 else 0.0),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_frac": overhead,
        "trace.absent_layers": absent,
    }

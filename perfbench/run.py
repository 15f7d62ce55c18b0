"""cdassim benchmark: twin-experiment workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload gauss_bank --seed 1 --seconds 30 --trace 0

Workloads (each one process, inputs derived from ``--seed``):

* ``gauss_bank``: EKF and UKF run serially in process over consecutive
  experiment seeds; time goes to model evaluation and small dense algebra,
  almost no random numbers are drawn.
* ``mc_bank``: EnKF and PF (N=1000 each) run serially in process over two
  seeds; about half the time goes to per-member noise draws.
* ``cli_small``: one fresh ``python -m cdassim`` per subcommand (simulate
  --reduced, estimate, sweep, oracle) at small Monte Carlo sizes with two
  worker threads; interpreter start-up and report writing weigh most.

``--trace 0`` repeats a pass over the workload's inputs for ``--seconds``
and prints the end-to-end metrics:

* ``wall_s``: one pass, as the sum over its timed units of each unit's
  median across the repeated passes;
* ``setup_s``: median of fresh interpreters that import the package and
  resolve the config (and build the model, in process) up to the first
  filter step;
* ``step_ms``: time per assimilation step of the pass's filter work (the
  timed ``run_one_filter`` calls in process, the timed filtering commands
  for the CLI, divided by the steps they assimilate);
* ``peak_rss_mb``: peak resident memory of the process, or of its
  children for ``cli_small``;
* ``mse_x``, ``mse_p``: median over the filter runs of a fixed accuracy
  panel.

A filter run that is not ``ok``, not finite, or not bitwise equal to its
first pass, and a CLI command that exits non-zero or misses
a file, counts in ``failed``. ``--trace 1`` prints the per-layer metrics of
a separate traced pass (see ``layers.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
The program is imported from ``src/`` beside this directory; the run
writes only under ``.perfbench_out/`` in the repository root and removes
its own files there when it ends.

End-to-end times are reported at a reference machine speed. Each vCPU of
the small 2-vCPU hosts this runs on flips between a fast and a slow state
(other tenants on the physical core) every second or so, and the slow state
costs up to 80%, so medians of raw seconds from two runs minutes apart
disagree by more than any useful bound. Each timed unit (one filter run,
one truth simulation, one CLI command, one set-up interpreter) is therefore
bracketed by a fixed calibration kernel owned by this file, run on each CPU
the unit can use, and the unit's raw seconds are divided by the mean
slowdown of its two brackets against ``CAL_NOMINAL_S``. The in-process
workloads pin themselves to one CPU so that the kernel measures the CPU the
work runs on; ``cli_small`` keeps both CPUs for its worker threads. The raw
seconds and the slowdowns are printed on the environment line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Accuracy is scored on a fixed panel of truths (the packaged default seed
# and its successors) so that mse_x and mse_p repeat exactly for fixed code;
# the timed passes use truths derived from --seed.
PANEL_SEED = 20260816
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_PASSES = 2

CAL_ITERATIONS = 3000
CAL_NOMINAL_S = 0.018  # calibration kernel seconds at the reference speed

BANKS = {
    "gauss_bank": {"kinds": ("ekf", "ukf"), "seeds": 6},
    "mc_bank": {"kinds": ("enkf", "pf"), "seeds": 2},
}
CLI_THREADS = "2"
CLI_CONFIG = {"monte_carlo": {"ensemble_size": 50, "particle_count": 100,
                              "oracle_particle_count": 1000}}
KINDS = ("ekf", "ukf", "enkf", "pf")
# subcommand, extra flags, files it must write (besides config.json)
CLI_COMMANDS = (
    ("simulate", ["--reduced"], ["truth.csv", "reduced.csv"]),
    ("estimate", [], ["metrics.csv", "metrics.json", *(f"trajectory_{k}.csv" for k in KINDS)]),
    ("sweep", ["--sizes", "10,30"], ["sweep.csv", "sweep.json"]),
    ("oracle", [], ["uncertainty.json", *(f"uncertainty_{k}.csv" for k in KINDS)]),
)
TIMED_FILES = ("metrics.csv", "sweep.csv")  # carry wall-clock columns

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms": "ms",
                    "peak_rss_mb": "MB", "mse_x": "mse", "mse_p": "mse"}


# -- machine-speed calibration -----------------------------------------------------

def calibration_kernel() -> float:
    """Seconds for a fixed loop of small numpy operations, like model evaluation."""
    import numpy as np
    x = np.ones(4)
    a = 0.5 * np.eye(4)
    t0 = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        x = a @ x + np.sqrt(x * x + 1.0)
        x = x / x.sum()
    return time.perf_counter() - t0


def slowdown(cpus) -> float:
    """Calibration kernel seconds over ``CAL_NOMINAL_S``, averaged over ``cpus``."""
    mask = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_kernel())
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.fmean(times) / CAL_NOMINAL_S


class Clock:
    """Times units of work in reference-speed seconds.

    A unit's raw seconds are divided by the mean slowdown measured on the
    process's CPUs just before and just after it; consecutive units share
    the calibration between them. ``raw`` and ``ref`` keep every unit's raw
    and reference seconds, ``factors`` its slowdown.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = slowdown(self.cpus)
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.factors: list[float] = []

    def time(self, fn, *args):
        """(fn(*args), reference seconds, slowdown of the unit)."""
        before = self.last
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.last = slowdown(self.cpus)
        factor = 0.5 * (before + self.last)
        self.raw.append(raw)
        self.ref.append(raw / factor)
        self.factors.append(factor)
        return result, raw / factor, factor


@dataclass
class Outcome:
    """One filter run or CLI command of a pass; times in reference seconds."""

    label: str
    seconds: float
    ok: bool
    digest: str = ""
    steps: int = 0
    mse_x: float = math.nan
    mse_p: float = math.nan
    step_s: tuple = ()  # per-filter step seconds the program reports (CLI estimate)
    collapsed: bool = False  # the harness's spread/NIS collapse flag, a finding


@dataclass
class Pass:
    """One run of a workload's inputs: its units' reference seconds, outcomes."""

    units: list
    raw: float
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(self.units)


def timed_units(clock: Clock, body) -> Pass:
    """Run ``body()``, which times its units on ``clock``, as one pass."""
    first = len(clock.raw)
    outcomes = body()
    return Pass(clock.ref[first:], sum(clock.raw[first:]), outcomes)


def unit_medians(rows) -> list[float]:
    """Median of each position across equally long rows (one row per pass)."""
    return [statistics.median(col) for col in zip(*rows)]


# -- inputs ---------------------------------------------------------------------

def timed_seeds(seed: int, count: int) -> list[int]:
    """Experiment seeds of the timed passes: a block of consecutive seeds."""
    base = (abs(seed) * 64 + 1) % (2**63)
    return [base + i for i in range(count)]


def panel_seeds(count: int) -> list[int]:
    return [PANEL_SEED + i for i in range(count)]


# -- in-process filter banks ------------------------------------------------------

def output_digest(out) -> str:
    """SHA-256 over every numeric field of a FilterOutput except timings."""
    h = hashlib.sha256()
    for name in ("times", "prior_mean", "prior_cov", "post_mean", "post_cov", "innovation",
                 "innovation_cov", "nis", "gain_condition", "ess", "resampled"):
        value = getattr(out, name)
        if value is not None:
            h.update(value.tobytes())
    return h.hexdigest()


def bank_pass(kinds, seeds, clock: Clock) -> Pass:
    """Run each filter kind on each seed's truth, serially, in this process.

    Each truth simulation and each filter run is one timed unit. Program
    functions are looked up on their modules at call time so that the
    traced pass sees the hooked bindings.
    """
    from cdassim import config, harness

    cfg = config.load_config(None, {"seed": seeds[0]})
    exp = harness.default_experiment_model(cfg.cstr_params(), cfg.flow_profile(),
                                           param_diffusion=cfg.sigma_theta)

    def body():
        outcomes = []
        for seed in seeds:
            cfg = config.load_config(None, {"seed": seed})
            truth = clock.time(harness.generate_truth_and_measurements, cfg)[0]
            for kind in kinds:
                m, seconds, _ = clock.time(harness.run_one_filter, kind, cfg, truth,
                                           exp.model, exp.flow)
                outcomes.append(Outcome(
                    label=kind, seconds=seconds,
                    ok=m.ok and math.isfinite(m.mse_x) and math.isfinite(m.mse_p),
                    digest=output_digest(m.output) if m.output is not None else "",
                    steps=truth.n_steps, mse_x=m.mse_x, mse_p=m.mse_p,
                    collapsed=m.collapsed))
        return outcomes

    return timed_units(clock, body)


# -- CLI --------------------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CDASSIM_THREADS"] = CLI_THREADS
    return env


def _json_without_timings(path: Path):
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "t_cpu_s"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return strip(json.loads(path.read_text()))


def command_outcome(name: str, files, out: Path, code: int, seconds: float,
                    factor: float) -> Outcome:
    """Check one CLI command's exit code and files; digest its results.

    ``steps`` counts the assimilation steps of the filter runs the command
    made; the per-filter step times the program reports for ``estimate``
    are divided by the command's slowdown.
    """
    expected = ["config.json", *files]
    if code != 0 or not all((out / f).is_file() for f in expected):
        return Outcome(name, seconds, ok=False)
    h = hashlib.sha256()
    for f in sorted(set(expected) - set(TIMED_FILES)):
        path = out / f
        if f in ("metrics.json", "sweep.json"):
            h.update(json.dumps(_json_without_timings(path), sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    outcome = Outcome(name, seconds, ok=True, digest=h.hexdigest())
    n_samples = json.loads((out / "config.json").read_text())["n_samples"]
    if name == "estimate":
        report = json.loads((out / "metrics.json").read_text())["filters"].values()
        outcome.ok = all(r["status"] == "ok" for r in report)
        outcome.mse_x = statistics.median(r["mse_x"] for r in report)
        outcome.mse_p = statistics.median(r["mse_p"] for r in report)
        outcome.step_s = tuple(r["t_cpu_s"] / factor for r in report)
        outcome.steps = len(report) * n_samples
        outcome.ok = outcome.ok and all(
            math.isfinite(v) for v in (*outcome.step_s, outcome.mse_x, outcome.mse_p))
    elif name == "sweep":
        outcome.steps = len(json.loads((out / "sweep.json").read_text())) * n_samples
    elif name == "oracle":
        # the compared filters plus the reference particle run
        filters = json.loads((out / "uncertainty.json").read_text())["filters"]
        outcome.steps = (len(filters) + 1) * n_samples
    return outcome


def in_process_dispatch(name: str, argv) -> int:
    from cdassim import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.parse_and_dispatch(argv)


def subprocess_dispatch(name: str, argv) -> int:
    return subprocess.run([sys.executable, "-m", "cdassim", *argv], cwd=ROOT, env=cli_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def cli_pass(seed: int, cfg_path: Path, out_root: Path, clock: Clock,
             commands=CLI_COMMANDS, dispatch=subprocess_dispatch) -> Pass:
    """Run the CLI subcommands; ``dispatch(subcommand, argv)`` runs one."""
    def body():
        outcomes = []
        for name, extra, files in commands:
            out = out_root / name
            shutil.rmtree(out, ignore_errors=True)
            argv = [name, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out),
                    *extra]
            code, seconds, factor = clock.time(dispatch, name, argv)
            outcomes.append(command_outcome(name, files, out, code, seconds, factor))
        return outcomes

    return timed_units(clock, body)


# -- fresh-interpreter probes -----------------------------------------------------

def setup_snippet(workload: str, cfg_path: Path) -> str:
    if workload == "cli_small":
        return ("import cdassim.cli, cdassim.config as c\n"
                f"c.load_config({str(cfg_path)!r}, {{'seed': {PANEL_SEED}}})\n")
    return ("import cdassim.harness as h, cdassim.config as c\n"
            f"cfg = c.load_config(None, {{'seed': {PANEL_SEED}}})\n"
            "h.default_experiment_model(cfg.cstr_params(), cfg.flow_profile(),"
            " param_diffusion=cfg.sigma_theta)\n")


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-400:]}")
    return proc


def setup_times(workload: str, cfg_path: Path, clock: Clock) -> list[float]:
    """Reference seconds of fresh interpreters that import and build, to the first step."""
    code = setup_snippet(workload, cfg_path)
    run_python(code)  # untimed: fills the bytecode and file caches
    return [clock.time(run_python, code)[1] for _ in range(SETUP_REPEATS)]


def import_times() -> tuple[float, float]:
    """Median (import cdassim.cli seconds, scipy.linalg cumulative import seconds)."""
    code = ("import time\nt = time.perf_counter()\nimport cdassim.cli\n"
            "print(time.perf_counter() - t)\n")
    run_python(code)
    total, scipy_part = [], []
    for _ in range(IMPORT_REPEATS):
        proc = run_python(code, "-X", "importtime")
        total.append(float(proc.stdout.split()[-1]))
        cumulative = [int(m.group(1)) for m in re.finditer(
            r"^import time:\s+\d+ \|\s+(\d+) \|\s+scipy\.linalg\s*$", proc.stderr, re.M)]
        scipy_part.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return statistics.median(total), statistics.median(scipy_part)


# -- checks and environment -------------------------------------------------------

def mismatches(reference: Pass, other: Pass) -> int:
    """Outcomes whose digest differs from the same position in ``reference``."""
    return sum(1 for a, b in zip(reference.outcomes, other.outcomes)
               if a.ok and b.ok and a.digest != b.digest)


def source_revision() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                rev = ref_file.read_text().strip()
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "cdassim").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it says."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment(workload: str, cfg_path: Path) -> dict:
    import numpy
    import scipy
    from cdassim import config
    path = str(cfg_path) if workload == "cli_small" else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "CDASSIM_THREADS": CLI_THREADS if workload == "cli_small"
        else os.environ.get("CDASSIM_THREADS", ""),
        "blas_threads": blas_threads(),
        "config_hash": config.load_config(path, {"seed": PANEL_SEED}).config_hash(),
        "cal_nominal_s": CAL_NOMINAL_S,
        "cpus": sorted(os.sched_getaffinity(0)),
        **source_revision(),
    }


# -- runs ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cfg_path = workdir / "workload_config.json"
        self.cfg_path.write_text(json.dumps(CLI_CONFIG))

    def panel(self, clock: Clock, dispatch=subprocess_dispatch) -> Pass:
        """Accuracy pass on the fixed panel; also warms up the process."""
        if self.workload == "cli_small":
            return cli_pass(PANEL_SEED, self.cfg_path, self.workdir / "panel", clock,
                            commands=[c for c in CLI_COMMANDS if c[0] == "estimate"],
                            dispatch=dispatch)
        spec = BANKS[self.workload]
        return bank_pass(spec["kinds"], panel_seeds(spec["seeds"]), clock)

    def timed_pass(self, clock: Clock, dispatch=subprocess_dispatch) -> Pass:
        if self.workload == "cli_small":
            return cli_pass(timed_seeds(self.seed, 1)[0], self.cfg_path, self.workdir / "timed",
                            clock, dispatch=dispatch)
        spec = BANKS[self.workload]
        return bank_pass(spec["kinds"], timed_seeds(self.seed, spec["seeds"]), clock)


def step_ms(passes) -> float:
    """Reference milliseconds per assimilation step of a pass's filter work.

    The benchmark-timed seconds of the units that run filters (each
    ``run_one_filter`` in process, each filtering command for the CLI), each
    the median over the repeated passes, divided by the steps they assimilate.
    """
    seconds = unit_medians([[o.seconds for o in p.outcomes if o.steps] for p in passes])
    return 1e3 * sum(seconds) / sum(o.steps for o in passes[0].outcomes)


def per_kind_step_ms(p: Pass) -> dict:
    """Reference milliseconds per step of each filter kind in a pass."""
    estimate = next((o for o in p.outcomes if o.label == "estimate"), None)
    if estimate is not None:
        return {k: 1e3 * s for k, s in zip(KINDS, estimate.step_s)}
    out = {}
    for kind in KINDS:
        runs = [o.seconds / o.steps for o in p.outcomes if o.label == kind and o.steps]
        if runs:
            out[kind] = 1e3 * statistics.median(runs)
    return out


def untraced(bench: Bench, seconds: float):
    clock = Clock()
    setup = setup_times(bench.workload, bench.cfg_path, clock)
    panel = bench.panel(clock)
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or time.perf_counter() - start
           + statistics.median(p.raw for p in passes) <= seconds):
        passes.append(bench.timed_pass(clock))
    outcomes = [o for p in (panel, *passes) for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes) + sum(mismatches(passes[0], p) for p in passes[1:])
    who = resource.RUSAGE_CHILDREN if bench.workload == "cli_small" else resource.RUSAGE_SELF
    scored = [o for o in panel.outcomes if o.ok]
    values = {
        "wall_s": (sum(unit_medians(p.units for p in passes)), len(passes)),
        "setup_s": (statistics.median(setup), len(setup)),
        "step_ms": (step_ms(passes), len(passes)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, 1),
        "mse_x": (statistics.median(o.mse_x for o in scored) if scored else math.nan,
                  len(scored)),
        "mse_p": (statistics.median(o.mse_p for o in scored) if scored else math.nan,
                  len(scored)),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in values.items()}
    samples = {k: n for k, (_, n) in values.items()}
    detail = {"collapsed_runs": sum(o.collapsed for o in outcomes),
              "raw_pass_s": [p.raw for p in passes], "ref_pass_s": [p.wall for p in passes],
              "unit_raw_s": clock.raw, "unit_slowdown": clock.factors}
    return metrics, samples, len(outcomes), failed, detail


def traced(bench: Bench):
    """Untraced reference pass, then the same pass with every layer hooked."""
    import layers
    from tracing import Hooks, Tracer

    import_s, import_scipy_s = import_times()
    clock = Clock()
    runs = []
    command_wall = 0.0
    if bench.workload == "cli_small":
        os.environ["CDASSIM_THREADS"] = CLI_THREADS
        commands = bench.timed_pass(clock)
        command_wall = commands.raw
        runs = commands.outcomes
    panel = bench.panel(clock, dispatch=in_process_dispatch)
    reference = bench.timed_pass(clock, dispatch=in_process_dispatch)
    tracer = Tracer(keep=layers.KEPT)
    spans = {c: tracer.wrap(in_process_dispatch, f"cli.dispatch.{c}")
             for c in layers.CLI_SUBCOMMANDS}
    with Hooks(tracer) as hooks:
        layers.install(hooks)
        probe = bench.timed_pass(clock, dispatch=lambda name, argv: spans[name](name, argv))
    outcomes = [*runs, *panel.outcomes, *reference.outcomes, *probe.outcomes]
    failed = sum(not o.ok for o in outcomes) + mismatches(reference, probe)
    values = layers.metrics(
        tracer, probe.raw, reference.raw, overhead=probe.wall / reference.wall - 1.0,
        step_ms=per_kind_step_ms(reference), absent=len(hooks.absent), import_s=import_s,
        import_scipy_s=import_scipy_s,
        commands=len(CLI_COMMANDS) if bench.workload == "cli_small" else 0,
        command_wall=command_wall)
    metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
    detail = {"absent_layers": hooks.absent, "unit_raw_s": clock.raw,
              "unit_slowdown": clock.factors}
    return metrics, {k: 1 for k in metrics}, len(outcomes), failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*BANKS, "cli_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdassim" / "__init__.py").is_file():
        print(f"cdassim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload in BANKS:
        # before numpy starts its BLAS threads, so that they share the CPU too
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        measure = traced if args.trace else lambda b: untraced(b, args.seconds)
        metrics, samples, attempted, failed, detail = measure(bench)
        env = environment(args.workload, bench.cfg_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} n={samples[name]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, **detail}))
    print(json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

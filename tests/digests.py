"""SHA-256 digests of filter outputs and result files, for byte comparisons.

Imported, it gives the tests the digest of a
:class:`~cdassim.filters.beliefs.FilterOutput`. Run as a script from the
repository root,

    PYTHONPATH=src python tests/digests.py

it prints one line per digest: every numeric ``FilterOutput`` field of the
EKF, UKF, EnKF and PF on a few seeds, each at ``sigma_theta`` 0 and 0.05;
the truth of each seed, its sample times, its states at those times and
its measurements (the states' beta column must hold the configured beta
at every sample instant); every file that ``simulate --reduced``,
``estimate``, ``steady-state``, ``sweep`` and ``oracle`` write on the
default config, with the ``t_cpu_s`` timings dropped; those of
``simulate --reduced`` on a 211-sample grid, whose interval steps are not
all ``dt_sample / substeps``; those of ``simulate --reduced`` and
``steady-state`` on an endothermic reactor (negative beta); and the same for
``estimate`` on two coarse sampling grids on which the EKF and UKF fail,
with each filter's status and the command's error output in plain text,
so that the failure messages are compared too. JSON files are digested in their written key order, so a reordered
key shows up. A change that claims no numeric change prints the same
lines as its parent. Save the parent's output to a file and check a
change against it in one command,

    PYTHONPATH=src python tests/digests.py --against parent_digests.txt

which prints only the lines that differ, as a unified diff, and exits 1 if
any do.
"""
import argparse
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

# every numeric FilterOutput field; step_seconds is timing and stays out
OUTPUT_FIELDS = ("times", "prior_mean", "prior_cov", "post_mean", "post_cov",
                 "innovation", "innovation_cov", "nis", "gain_condition", "ess",
                 "resampled")

SEEDS = (1, 2, 3, 20260816)
SIGMA_THETAS = (0.0, 0.05)
COMMANDS = (("simulate", "--reduced"), ("estimate",), ("steady-state",), ("sweep",),
            ("oracle",))
# simulate --reduced on a grid whose sample intervals differ in their last bits
REDUCED_GRID = 211
# simulate --reduced and steady-state on an endothermic reactor
ENDOTHERMIC = {"truth": {"beta": -133.7792}}
ENDOTHERMIC_COMMANDS = (("simulate", "--reduced"), ("steady-state",))
# estimate on coarse grids, where the Gaussian filters fail in several ways
COARSE_GRIDS = (14, 30)
COARSE_SIZES = {"ensemble_size": 50, "particle_count": 50}
TIMING = "t_cpu_s"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _output_digest(out) -> str:
    return _digest(out.initial.mean, out.initial.cov,
                   *(getattr(out, name) for name in OUTPUT_FIELDS))


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != TIMING}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


def _file_digest(path: Path) -> str:
    """Digest of a result file with its timing column or keys removed."""
    if path.suffix == ".json":
        doc = _without_timing(json.loads(path.read_text()))
        text = json.dumps(doc)
    else:
        rows = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name != TIMING]
        text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def filter_lines():
    """Truth and per-field filter-output digests for every seed and sigma_theta."""
    from cdassim.config import load_config
    from cdassim.harness import generate_truth_and_measurements, run_all_filters

    for seed in SEEDS:
        for sigma_theta in SIGMA_THETAS:
            cfg = load_config(overrides={"seed": seed, "noise": {"sigma_theta": sigma_theta}})
            truth = generate_truth_and_measurements(cfg)
            if sigma_theta == SIGMA_THETAS[0]:  # the truth does not depend on it
                assert np.all(truth.truth_states[:, 3] == cfg.truth_beta), "truth beta moved"
                yield (f"truth seed={seed} "
                       + _digest(truth.times, truth.truth_states, truth.measurements))
            for kind, m in run_all_filters(cfg, truth, serial=True).items():
                tag = f"filter seed={seed} sigma_theta={sigma_theta:g} {kind}"
                if m.output is None:
                    yield f"{tag} status={m.status}"
                    continue
                for name in ("initial", *OUTPUT_FIELDS):
                    value = getattr(m.output, name)
                    arrays = (value.mean, value.cov) if name == "initial" else (value,)
                    yield f"{tag} {name} {_digest(*arrays)}"


def _command_lines(name: str, argv):
    """Run one command serially into ``name``: exit code, error output, file digests."""
    from cdassim.cli import parse_and_dispatch

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # overflow warnings name source lines, which differ between checkouts
        warnings.simplefilter("ignore", RuntimeWarning)
        code = parse_and_dispatch([*argv, "--out", name, "--serial"])
    yield f"cli {name} exit={code}"
    if err.getvalue():
        yield f"cli {name} stderr {err.getvalue().strip()!r}"
    for path in sorted(Path(name).iterdir()):
        yield f"cli {name} {path.name} {_file_digest(path)}"


def _configured_command_lines(name: str, argv, overrides: dict):
    """:func:`_command_lines` of ``argv`` on a config file holding ``overrides``."""
    config = Path(f"{name}.json")
    config.write_text(json.dumps(overrides))
    yield from _command_lines(name, (*argv, "--config", str(config)))


def cli_lines():
    """Digests of every file each subcommand writes on the default config, then of
    ``simulate --reduced`` on the reduced grid, then of ``simulate --reduced``
    and ``steady-state`` on the endothermic reactor, then of ``estimate`` on
    the coarse grids with each filter's status."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a relative --out keeps out_dir, and so the config hash, fixed
        try:
            for command in COMMANDS:
                yield from _command_lines(command[0], command)
            yield from _configured_command_lines(f"simulate_n{REDUCED_GRID}",
                                                 ("simulate", "--reduced"),
                                                 {"n_samples": REDUCED_GRID})
            for command in ENDOTHERMIC_COMMANDS:
                yield from _configured_command_lines(f"{command[0]}_endothermic", command,
                                                     ENDOTHERMIC)
            for n_samples in COARSE_GRIDS:
                name = f"estimate_n{n_samples}"
                yield from _configured_command_lines(name, ("estimate",),
                                                     {"n_samples": n_samples,
                                                      "monte_carlo": COARSE_SIZES})
                filters = json.loads((Path(name) / "metrics.json").read_text())["filters"]
                for kind, record in filters.items():
                    yield f"cli {name} {kind} status={record['status']}"
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print output digests, or compare them "
                                                 "with a saved run.")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved run of this script: print the lines that differ "
                             "and exit 1 if any do")
    args = parser.parse_args(argv)
    lines = itertools.chain(filter_lines(), cli_lines())
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    lines = list(lines)
    diff = list(difflib.unified_diff(saved, lines, args.against, "this checkout",
                                     lineterm="", n=0))
    for line in diff:
        print(line)
    print(f"{len(lines)} lines, {'differ from' if diff else 'identical to'} {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

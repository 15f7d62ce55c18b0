"""Command-line front end for the twin-experiment toolkit.

Subcommands cover the full workflow: ``simulate`` (truth generation, with an
optional reduced-order temperature comparison), ``estimate`` (the filter
bank), ``steady-state`` (the flow/temperature equilibrium curve), ``sweep``
(Monte Carlo size study) and ``oracle`` (posterior-spread comparison against
a large particle reference).

Every run resolves its configuration first and writes the echo (with hash)
into the output directory before computing, so even aborted runs leave a
reproducible record. Exit codes: 0 success, 1 configuration or usage error
(an output path that cannot be written included), 2 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from cdassim import cstr
from cdassim.config import ConfigError, ExperimentConfig, load_config
from cdassim.filters.runner import FILTER_KINDS, SAMPLE_KINDS
from cdassim.harness import (
    TRUTH_HEADER,
    ensemble_size_sweep,
    generate_truth_and_measurements,
    requested_kinds,
    run_all_filters,
    truth_rows,
    uncertainty_comparison,
    write_json,
    write_report,
    write_sweep_report,
    write_table,
    write_uncertainty_report,
)
from cdassim.sde import DivergenceError, rk4_inputs, rk4_step

__all__ = ["main", "parse_and_dispatch"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

DEFAULT_SWEEP_SIZES = (10, 100, 1000)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, leaving 2 to mean numerical failure
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {exc}")


def _csv_names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdassim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON config file layered over the packaged defaults")
        p.add_argument("--seed", metavar="U64", type=int, default=None,
                       help="override the experiment seed")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides the config's out_dir)")
        p.add_argument("--serial", action="store_true",
                       help="run on one worker for uncontended timing")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("simulate", "generate one truth realization and its measurements",
        **{"--reduced": dict(action="store_true",
                             help="also emit the 3/2/1-state deterministic "
                                  "temperature comparison")})
    add("estimate", "run the filter bank and write metrics and trajectories",
        **{"--filters": dict(type=_csv_names, metavar="CSV-list", default=None,
                             help=f"subset of {','.join(FILTER_KINDS)}")})
    add("steady-state", "emit the steady-state flow curve as CSV")
    add("sweep", "rerun the Monte Carlo filters across ensemble sizes",
        **{"--sizes": dict(type=_csv_ints, metavar="CSV-list",
                           default=list(DEFAULT_SWEEP_SIZES),
                           help=f"sizes to sweep (default "
                                f"{','.join(map(str, DEFAULT_SWEEP_SIZES))})"),
           "--filters": dict(type=_csv_names, metavar="CSV-list", default=None,
                             help=f"subset of {','.join(SAMPLE_KINDS)}")})
    add("oracle", "compare posterior spreads against a large particle reference",
        **{"--filters": dict(type=_csv_names, metavar="CSV-list", default=None,
                             help=f"subset of {','.join(FILTER_KINDS)}")})
    return parser


def _resolve_config(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def _prepare_out(config: ExperimentConfig) -> Path:
    """Create the output directory and write the config echo, the only writer of config.json.

    The echo, the config plus its hash, lands before any computation.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _announce([write_json(out / "config.json",
                          dict(config.to_dict(), config_hash=config.config_hash()))])
    return out


def _announce(paths) -> None:
    for p in paths:
        print(f"wrote {p}")


# -- subcommands --------------------------------------------------------------

def _reduced_comparison(config: ExperimentConfig):
    """Deterministic 3/2/1-state temperature trajectories on the sample grid.

    All three models start from feed composition (the reductions are exact
    there) and integrate the noise-free dynamics with a classical 4th-order
    scheme on the inner substep grid, stepped together as one state
    ``[CA, CB, T, X, T2, T1]``. Each takes its rates from the one rate law,
    :func:`~cdassim.cstr.cstr3_rates` with beta at ``params.beta``: the
    joint model at (CA, CB, T); the 2-state model in the extent of reaction
    X at the concentrations (CA_IN - CB_IN X / 2, CB_IN (1 - X)) and T2,
    with X' = -X F/V + 2 r / CB_IN; the 1-state model at
    :func:`~cdassim.cstr.adiabatic_concentrations` of T1. Every operation of
    :func:`~cdassim.sde.rk4_step` is elementwise, so each model's values are
    bitwise those of stepping it alone. Every interval takes its step and
    stage inputs from one :func:`~cdassim.sde.rk4_inputs` table, the truth's
    and filters' grid. Numpy's divide, overflow and invalid warnings are off,
    as in the truth; a model whose state is not finite at a sample time
    raises :class:`~cdassim.sde.DivergenceError`, naming the first of them.
    """
    params = config.cstr_params()
    beta = params.beta

    def rates(t, z, u):
        CA, CB, T, X, T2, T1 = z.tolist()
        FV = float(u[0]) / cstr.V
        dCA, dCB, dT, _, _ = cstr.cstr3_rates(CA, CB, T, beta, FV)
        _, _, dT2, _, r = cstr.cstr3_rates(cstr.CA_IN - 0.5 * cstr.CB_IN * X,
                                           cstr.CB_IN * (1.0 - X), T2, beta, FV)
        dT1 = cstr.cstr3_rates(*cstr.adiabatic_concentrations(T1, params), T1, beta, FV)[2]
        return np.array([dCA, dCB, dT, -FV * X + 2.0 * r / cstr.CB_IN, dT2, dT1])

    z = np.array([cstr.CA_IN, cstr.CB_IN, cstr.T_IN, 0.0, cstr.T_IN, cstr.T_IN])
    temps = [(0.0, z[2], z[4], z[5])]
    times = config.sample_times()
    t0 = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t1, rows in zip(times, rk4_inputs(config.flow_profile(), 0.0, times,
                                              config.substeps)):
            h = (t1 - t0) / config.substeps
            for j, inputs in enumerate(rows):
                z = rk4_step(rates, t0 + j * h, z, h, inputs)
            finite = np.isfinite(z)
            for name, ok in (("3-state", finite[:3]), ("2-state", finite[3:5]),
                             ("1-state", finite[5:])):
                if not ok.all():
                    raise DivergenceError(f"the {name} model of the reduced comparison "
                                          f"diverged by t={t1}")
            temps.append((t1, z[2], z[4], z[5]))
            t0 = t1
    return temps


def _cmd_simulate(config: ExperimentConfig, args, out: Path) -> int:
    truth = generate_truth_and_measurements(config)
    _announce([write_table(out / "truth.csv", (*TRUTH_HEADER, "measurement"),
                           truth_rows(truth))])
    if args.reduced:
        _announce([write_table(out / "reduced.csv",
                               ("t", "temp_3state", "temp_2state", "temp_1state"),
                               _reduced_comparison(config))])
    return EXIT_OK


def _cmd_estimate(config: ExperimentConfig, args, out: Path) -> int:
    truth = generate_truth_and_measurements(config)
    filters = run_all_filters(config, truth, filters=args.filters, serial=args.serial)
    _announce(write_report(config, filters, truth, out))
    failed = [m.status.removeprefix("failed: ") for m in filters.values() if not m.ok]
    for message in failed:
        print(f"numerical failure: {message}", file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_steady_state(config: ExperimentConfig, args, out: Path) -> int:
    T_s, F_s = cstr.steady_state_curve(config.cstr_params())
    _announce([write_table(out / "steady_state.csv", ("T_s", "F_s"), zip(T_s, F_s))])
    return EXIT_OK


def _cmd_sweep(config: ExperimentConfig, args, out: Path) -> int:
    truth = generate_truth_and_measurements(config)
    rows = ensemble_size_sweep(config, truth, args.sizes, filters=args.filters,
                               serial=args.serial)
    _announce(write_sweep_report(rows, out))
    return EXIT_OK  # collapsed or failed rows are sweep findings, not failures


def _cmd_oracle(config: ExperimentConfig, args, out: Path) -> int:
    truth = generate_truth_and_measurements(config)
    unc = uncertainty_comparison(config, truth, filters=args.filters,
                                 serial=args.serial)
    _announce(write_uncertainty_report(config, truth, unc, out))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "steady-state": _cmd_steady_state,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def _validate_lists(parser: _Parser, args) -> None:
    if getattr(args, "sizes", None) == []:
        parser.error("--sizes needs at least one size")
    names = getattr(args, "filters", None)
    if names == []:
        parser.error("--filters needs at least one name")
    try:
        requested_kinds(names, SAMPLE_KINDS if args.subcommand == "sweep" else FILTER_KINDS)
    except ValueError as exc:
        parser.error(str(exc))


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_lists(parser, args)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.subcommand](config, args, _prepare_out(config))
    except DivergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # a bad request the schema cannot see (e.g. sweep size 1, undersized
        # oracle), an unusable --out, or a report file that cannot be written
        print(exc, file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))

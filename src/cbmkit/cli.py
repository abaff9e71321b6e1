"""Command-line front end.

Subcommands: ``simulate`` (event-log and snapshot CSVs), ``estimate``
(counts or event log to estimate rows, with published-table presets),
``convergence`` (estimate time series over a grid), ``verify`` (Monte
Carlo check of every closed form).  Exit codes: 0 ok, 1 verification
failure, 2 config error, 3 estimation infeasible.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, ModelConfig, config_from_values, parse_config, serialize_config
from .estimators import (
    REPORT_HEADER,
    DegenerateDataError,
    NonConvergenceError,
    ObservedData,
    OutOfRangeError,
    asymptotic_estimate,
    invert_mean_inspections,
    mle_estimate,
)
from .formulas import MAX_SHAPE
from .oracle import MIN_SAMPLES, verification_rows, write_verification_report
from .simulator import (
    CountSnapshot,
    counts_at,
    read_event_log,
    simulate_horizon,
    write_event_log,
    write_snapshots,
)

# Published counts from the bundled reference tables; the estimate
# --reproduce presets rerun the estimator on exactly these inputs, so no
# simulation is needed to regenerate the table rows.
PUBLISHED_TABLES = {
    "table1": dict(
        shape=1, kind="deterministic", h=0.0,
        n_r=33501, n_i=53116, n_f=8255, t=50001908.0,
    ),
    "table2": dict(
        shape=2, kind="deterministic", h=0.0,
        n_r=20668, n_i=51503, n_f=4369, t=50002058.0,
    ),
    "table3": dict(
        shape=1, kind="uniform", h=100.0,
        n_r=33613, n_i=53133, n_f=8278, t=50001271.0,
    ),
    "table4": dict(
        shape=2, kind="uniform", h=100.0,
        n_r=20470, n_i=51522, n_f=4452, t=50000355.0,
    ),
}

CONVERGENCE_HEADER = "t,mu_hat,lambda_hat,mu_lo,mu_hi,lambda_lo,lambda_hi"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_CONFIG_FLAGS = (
    ("sane.shape", "gamma shape of the repair-to-damage law"),
    ("sane.rate", "rate of the repair-to-damage law"),
    ("damage.rate", "rate of the damage-to-failure law"),
    ("inspection.kind", "deterministic or uniform"),
    ("inspection.c", "inspection spacing"),
    ("inspection.h", "uniform half-width"),
    ("horizon", "simulation horizon"),
    ("seed", "random seed (required for stochastic commands)"),
    ("confidence", "confidence level for intervals"),
    ("grid", "comma-separated snapshot times"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    for key, help_text in _CONFIG_FLAGS:
        parser.add_argument(f"--{key}", dest=key.replace(".", "__"), help=help_text)


def _load_config(
    args: argparse.Namespace, defaults: Optional[dict[str, str]] = None
) -> ModelConfig:
    values: dict[str, str] = dict(defaults or {})
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = parse_config(fh.read())
        values.update(
            (k.strip(), v.strip())
            for k, _, v in (
                line.partition("=") for line in serialize_config(base).splitlines()
            )
        )
    for key, _ in _CONFIG_FLAGS:
        flag = getattr(args, key.replace(".", "__"), None)
        if flag is not None:
            values[key] = flag
    return config_from_values(values)


def _require_seed(config: ModelConfig) -> int:
    if config.seed is None:
        raise ConfigError("stochastic commands need an explicit seed")
    return config.seed


def _require_closed_form_shape(config: ModelConfig) -> None:
    """The closed forms (counting estimates, their intervals, the oracle's
    moments) need jets of order shape + 4; simulation and the event-log
    MLE do not."""
    if config.sane.shape > MAX_SHAPE:
        raise ConfigError(
            f"sane.shape {config.sane.shape} exceeds {MAX_SHAPE}, the largest "
            "shape the closed forms support"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmkit",
        description="simulate and estimate a three-state system under "
        "condition-based maintenance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate cycles and counting processes")
    _add_config_flags(p_sim)
    p_sim.add_argument("--events", required=True, help="event-log CSV output path")
    p_sim.add_argument("--snapshots", required=True, help="snapshot CSV output path")

    p_est = sub.add_parser("estimate", help="estimate the two rates")
    _add_config_flags(p_est)
    p_est.add_argument(
        "--counts",
        nargs=4,
        metavar=("N_R", "N_I", "N_F", "T"),
        help="repairs, inspections, failures, elapsed time",
    )
    p_est.add_argument("--events", help="event-log CSV (required for --method mle)")
    p_est.add_argument("--method", choices=("am", "mle", "both"), default="am")
    p_est.add_argument(
        "--reproduce",
        choices=sorted(PUBLISHED_TABLES),
        help="use the published counts and configuration of a reference table",
    )
    p_est.add_argument(
        "--interval",
        choices=("delta", "tabulated"),
        default=None,
        help="interval convention (default: delta; --reproduce defaults to tabulated)",
    )
    p_est.add_argument("--out", help="write the CSV here instead of stdout")

    p_conv = sub.add_parser("convergence", help="estimate along a time grid")
    _add_config_flags(p_conv)
    p_conv.add_argument("--grid-count", type=int, default=None,
                        help="evenly spaced grid of this size over (0, horizon]")
    p_conv.add_argument("--out", required=True, help="time-series CSV output path")

    p_ver = sub.add_parser("verify", help="Monte Carlo check of the closed forms")
    _add_config_flags(p_ver)
    p_ver.add_argument("--samples", type=int, default=1_000_000)
    p_ver.add_argument("--out", help="verification-report CSV output path")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    rng = np.random.default_rng(seed)
    trajectory = simulate_horizon(rng, config, grid=config.grid)
    write_event_log(args.events, trajectory.cycles)
    write_snapshots(args.snapshots, trajectory.snapshots)
    return EXIT_OK


def _parse_counts(tokens: Sequence[str]) -> CountSnapshot:
    """The --counts values: three finite nonnegative counts and a finite
    positive elapsed time."""
    try:
        n_r, n_i, n_f, t = (float(tok) for tok in tokens)
    except ValueError:
        raise ConfigError(f"--counts needs four numbers, got {' '.join(tokens)}") from None
    if not (all(0.0 <= n < math.inf for n in (n_r, n_i, n_f)) and 0.0 < t < math.inf):
        raise ConfigError(
            "--counts needs finite nonnegative counts and a finite positive time, "
            f"got {' '.join(tokens)}"
        )
    return CountSnapshot(t, n_r, n_i, n_f)


def _estimate_rows(args: argparse.Namespace, config: ModelConfig) -> list[str]:
    interval = args.interval
    if args.reproduce:
        preset = PUBLISHED_TABLES[args.reproduce]
        snapshot = CountSnapshot(
            preset["t"], preset["n_r"], preset["n_i"], preset["n_f"]
        )
        if interval is None:
            interval = "tabulated"
    elif args.counts:
        snapshot = _parse_counts(args.counts)
    elif args.method == "am" or args.method == "both":
        if not args.events:
            raise ConfigError("estimate needs --counts, --events or --reproduce")
        snapshot = None
    else:
        snapshot = None
    if interval is None:
        interval = "delta"

    records = None
    if args.events:
        records = read_event_log(args.events)
        if args.counts is None and args.reproduce is None:
            t = sum(r.length for r in records)
            snapshot = CountSnapshot(
                t,
                len(records),
                sum(r.inspection_count for r in records),
                sum(1 for r in records if r.failed),
            )

    rows = []
    methods = ("am", "mle") if args.method == "both" else (args.method,)
    for method in methods:
        if method == "am":
            _require_closed_form_shape(config)
            report = asymptotic_estimate(snapshot, config, interval=interval)
            rows.append(
                report.csv_row(
                    snapshot.time,
                    snapshot.repairs,
                    snapshot.inspections,
                    snapshot.failures,
                    config.seed,
                )
            )
        else:
            if records is None:
                raise ConfigError("--method mle needs an --events log")
            data = ObservedData.from_event_log_records(records, config.inspection)
            report = mle_estimate(data, config)
            rows.append(
                report.csv_row(
                    sum(r.length for r in records),
                    len(records),
                    sum(r.inspection_count for r in records),
                    sum(1 for r in records if r.failed),
                    config.seed,
                )
            )
    return rows


def _cmd_estimate(args: argparse.Namespace) -> int:
    defaults = None
    if args.reproduce:
        # presets carry the full run configuration of the published rows,
        # so reproduction needs no config file; the rates are nominal (the
        # estimator uses only the shape and the gap law)
        preset = PUBLISHED_TABLES[args.reproduce]
        defaults = {
            "sane.shape": str(preset["shape"]),
            "sane.rate": "1e-3",
            "damage.rate": "5e-4",
            "inspection.kind": preset["kind"],
            "inspection.c": "1000",
            "inspection.h": str(preset["h"]),
            "horizon": str(preset["t"]),
        }
    config = _load_config(args, defaults)
    rows = _estimate_rows(args, config)
    text = REPORT_HEADER + "\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    if args.grid_count:
        grid = [config.horizon * (i + 1) / args.grid_count for i in range(args.grid_count)]
    elif config.grid:
        grid = list(config.grid)
    else:
        raise ConfigError("convergence needs a grid (config key or --grid-count)")
    _require_closed_form_shape(config)
    rng = np.random.default_rng(seed)
    trajectory = simulate_horizon(rng, config)
    lines = [CONVERGENCE_HEADER]
    for t in grid:
        lines.append(_convergence_row(t, trajectory, config))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _convergence_row(t: float, trajectory, config: ModelConfig) -> str:
    """One time-series row; infeasible estimates leave their fields empty
    (before the first failure only the damage rate is reported, without
    intervals, since the interval covariance needs both rates)."""
    snapshot = counts_at(t, trajectory)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            report = asymptotic_estimate(snapshot, config)
        except (OutOfRangeError, DegenerateDataError):
            report = None
    if report is not None:
        return (
            f"{t:.17g},{report.mu_hat:.17g},{report.lambda_hat:.17g},"
            f"{report.ci_mu[0]:.17g},{report.ci_mu[1]:.17g},"
            f"{report.ci_lambda[0]:.17g},{report.ci_lambda[1]:.17g}"
        )
    try:
        mu_hat = invert_mean_inspections(
            snapshot.inspections / snapshot.repairs, config.sane.shape, config.inspection
        ) if snapshot.repairs else None
    except (OutOfRangeError, DegenerateDataError, ZeroDivisionError):
        mu_hat = None
    if mu_hat is None:
        return f"{t:.17g},,,,,,"
    return f"{t:.17g},{mu_hat:.17g},,,,,"


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    if args.samples < MIN_SAMPLES:
        raise ConfigError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    _require_closed_form_shape(config)
    rows = verification_rows(config, args.samples, seed)
    if args.out:
        write_verification_report(args.out, rows)
    else:
        sys.stdout.write("quantity,closed_form,mc_value,mc_se,z_score,pass\n")
        for r in rows:
            sys.stdout.write(
                f"{r.quantity},{r.closed_form:.17g},{r.mc_value:.17g},"
                f"{r.mc_se:.17g},{r.z_score:.17g},{'true' if r.passed else 'false'}\n"
            )
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VERIFY_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "convergence": _cmd_convergence,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutOfRangeError, DegenerateDataError, NonConvergenceError) as exc:
        print(f"estimation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

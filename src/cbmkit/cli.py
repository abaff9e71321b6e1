"""Command-line front end.

Subcommands: ``simulate`` (event-log and snapshot CSVs), ``estimate``
(counts or event log to estimate rows, with published-table presets),
``convergence`` (estimate time series over a grid), ``verify`` (Monte
Carlo check of every closed form).  Exit codes: 0 ok, 1 verification
failure, 2 config error (invalid input, or a path that cannot be read or
written), 3 estimation infeasible, 4 internal error (an exception outside
these, as one line).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
import warnings
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .config import (
    INEXACT,
    KEYS,
    MAX_COUNT,
    MAX_GRID_COUNT,
    ConfigError,
    ModelConfig,
    config_from_values,
    parse_config,
    require_horizon,
    serialize_config,
)
from .estimators import (
    REPORT_HEADER,
    DegenerateDataError,
    EstimateReport,
    NonConvergenceError,
    ObservedData,
    OutOfRangeError,
    _estimates,
    asymptotic_estimate,
    mle_estimate,
)
from .formulas import CONVENTIONS
from .laws import MAX_SHAPE
from .oracle import MIN_SAMPLES, verification_lines, verification_rows
from .simulator import (
    CountSnapshot,
    CycleBatch,
    counts_at_times,
    csv_blocks,
    horizon_blocks,
    read_event_log,
)

# The run configuration and published counts of each bundled reference
# table; the estimate --reproduce presets rerun the estimator on exactly
# these inputs, so no simulation is needed to regenerate the table rows.
# The rates are nominal (the estimator uses only the shape and the gap law).
_NOMINAL = {"sane.rate": "1e-3", "damage.rate": "5e-4", "inspection.c": "1000"}
PUBLISHED_TABLES = {
    "table1": (
        {**_NOMINAL, "sane.shape": "1", "inspection.kind": "deterministic",
         "inspection.h": "0.0", "horizon": "50001908.0"},
        CountSnapshot(50001908.0, 33501, 53116, 8255),
    ),
    "table2": (
        {**_NOMINAL, "sane.shape": "2", "inspection.kind": "deterministic",
         "inspection.h": "0.0", "horizon": "50002058.0"},
        CountSnapshot(50002058.0, 20668, 51503, 4369),
    ),
    "table3": (
        {**_NOMINAL, "sane.shape": "1", "inspection.kind": "uniform",
         "inspection.h": "100.0", "horizon": "50001271.0"},
        CountSnapshot(50001271.0, 33613, 53133, 8278),
    ),
    "table4": (
        {**_NOMINAL, "sane.shape": "2", "inspection.kind": "uniform",
         "inspection.h": "100.0", "horizon": "50000355.0"},
        CountSnapshot(50000355.0, 20470, 51522, 4452),
    ),
}

CONVERGENCE_HEADER = "t,mu_hat,lambda_hat,mu_lo,mu_hi,lambda_lo,lambda_hi"
_CONVERGENCE_ROW = "%.17g" + ",%.17g" * 6 + "\n"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    for key, help_text in KEYS.items():
        parser.add_argument(f"--{key}", dest=key.replace(".", "__"), help=help_text)


def _load_config(
    args: argparse.Namespace, defaults: Optional[dict[str, str]] = None
) -> ModelConfig:
    values: dict[str, str] = dict(defaults or {})
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        # the file is a whole config: the keys it omits take their defaults
        for line in serialize_config(parse_config(text)).splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
    for key in KEYS:
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
    moments) read jets of order shape and are checked for shapes up to
    MAX_SHAPE; simulation and the event-log MLE do without them above it."""
    if config.sane.shape > MAX_SHAPE:
        raise ConfigError(
            f"sane.shape {config.sane.shape} exceeds {MAX_SHAPE}, the largest "
            "shape the closed forms support"
        )


def _count(text: str) -> int:
    """A count flag's value: an integer below :data:`config.MAX_COUNT`,
    also in the float syntax of the other numbers (``1e4``) where its value
    is whole and finite."""
    value = None
    with contextlib.suppress(ValueError):
        value = int(text)
    with contextlib.suppress(ValueError):
        if value is None and float(text).is_integer():
            value = int(float(text))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    if value >= MAX_COUNT:
        raise argparse.ArgumentTypeError(f"{INEXACT}, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (its subcommands' parsers' too) are
    config errors: one line from ``main``, not a usage block."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by
    every later one."""
    parser = _Parser(
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
        choices=CONVENTIONS,
        default=None,
        help="interval convention (default: delta; --reproduce defaults to tabulated)",
    )
    p_est.add_argument("--out", help="write the CSV here instead of stdout")

    p_conv = sub.add_parser("convergence", help="estimate along a time grid")
    _add_config_flags(p_conv)
    p_conv.add_argument("--grid-count", type=_count, default=None,
                        help="evenly spaced grid of this size over (0, horizon]")
    p_conv.add_argument("--out", required=True, help="time-series CSV output path")

    p_ver = sub.add_parser("verify", help="Monte Carlo check of the closed forms")
    _add_config_flags(p_ver)
    p_ver.add_argument("--samples", type=_count, default=1_000_000,
                       help=f"cycles to draw, at least {MIN_SAMPLES} (default 1e6)")
    p_ver.add_argument("--out", help="verification-report CSV output path")

    return parser


def _file_id(path: str) -> object:
    """A file's (device, inode), which its hard links share, or a new file's resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


@contextlib.contextmanager
def _outputs(*paths: Optional[str], inputs: Sequence[Optional[str]]) -> Iterator[list[TextIO]]:
    """One stream per output path, opened before the command's work
    starts: stdout for None, the file itself for a FIFO or a device, and
    for any other path a new file beside the one it names (a symlink's
    target), renamed over it if the command returns and removed if it
    raises, so a failed command leaves every output as it was.

    An empty path names no file, and two outputs that name one file, or
    an output that names one of the command's ``inputs``, also through a
    link, would lose bytes silently: all are config errors.  A reader of
    stdout that has gone away (the ``head`` of ``| head -1``) is not an
    error: the rest of the output is dropped, and the stdout descriptor
    is pointed at devnull, so the interpreter's flush at exit stays
    quiet.  A command that writes stdout has no other output.
    """
    if "" in paths:
        raise ConfigError("an output path is empty")
    real = [(path, os.path.realpath(path)) for path in paths if path is not None]
    ids = [_file_id(path) for path, _ in real]
    read = {_file_id(path) for path in inputs if path is not None}
    for (path, r), i in zip(real, ids):
        if ids.count(i) > 1:
            raise ConfigError(f"two outputs name one file: {r}")
        if i in read:
            raise ConfigError(f"output {path} is also an input")
    streams: list[TextIO] = []
    renames: list[tuple[str, str]] = []
    try:
        for path in paths:
            if path is None:
                streams.append(sys.stdout)
            elif os.path.exists(path) and not os.path.isfile(path):
                # a directory fails here
                streams.append(open(path, "w", encoding="utf-8", newline="\n"))
            elif os.path.exists(path) and not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, "Permission denied", path)
            else:
                # created exclusively, never through a link left at its
                # name, with the umask's mode
                target = os.path.realpath(path)
                temp = f"{target}.cbmkit-{os.getpid()}.tmp"
                streams.append(open(temp, "x", encoding="utf-8", newline="\n"))
                renames.append((temp, target))
        try:
            yield streams
            for stream in streams:
                stream.flush()
        except BrokenPipeError:
            if sys.stdout not in streams:
                raise
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        for stream in streams:
            if stream is not sys.stdout:
                stream.close()
        for temp, target in renames:
            os.replace(temp, target)
    except BaseException:
        for stream in streams:
            if stream is not sys.stdout:
                with contextlib.suppress(OSError):
                    stream.close()
        for temp, _ in renames:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    with _outputs(args.events, args.snapshots, inputs=[args.config]) as (event_log, snapshot_csv):
        blocks = horizon_blocks(np.random.default_rng(seed), config)
        for events, snapshots in csv_blocks(blocks, config.grid):
            event_log.writelines(events)
            snapshot_csv.writelines(snapshots)
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


def _cmd_estimate(args: argparse.Namespace) -> int:
    # the input rules, in the order README states: the first one broken is
    # reported, before any log is read or any estimate runs.  An input that
    # the method does not read is an error, not a silent no-op
    if args.reproduce and args.counts:
        raise ConfigError("--counts and --reproduce both give the counts; pass one")
    if args.method == "mle" and (args.counts or args.interval):
        flag = "--counts" if args.counts else "--interval"
        raise ConfigError(f"--method mle reads no {flag}; it fits the --events log")
    if args.method == "am" and args.events and (args.counts or args.reproduce):
        raise ConfigError("--method am reads no --events when --counts or --reproduce "
                          "gives the counts")
    if args.method != "mle" and not (args.reproduce or args.counts or args.events):
        raise ConfigError("estimate needs --counts, --events or --reproduce")
    methods = ("am", "mle") if args.method == "both" else (args.method,)
    if "mle" in methods and not args.events:
        raise ConfigError("--method mle needs an --events log")
    # a preset carries the full run configuration of its published rows,
    # so reproduction needs no config file
    defaults, counts = PUBLISHED_TABLES.get(args.reproduce, (None, None))
    if args.counts:
        counts = _parse_counts(args.counts)
    config = _load_config(args, defaults)
    if "am" in methods:
        _require_closed_form_shape(config)
    interval = args.interval or ("tabulated" if args.reproduce else "delta")
    with _outputs(args.out, inputs=[args.config, args.events]) as (out,):
        if args.events:
            try:
                cycles = read_event_log(args.events)
                log_counts = cycles.counts()
            except ValueError as exc:
                raise ConfigError(f"{args.events}: {exc}") from None
            # the AM counts: a preset's, else --counts, else the log's
            if counts is None:
                counts = log_counts
        rows = []
        for method in methods:
            if method == "am":
                report = asymptotic_estimate(counts, config, interval=interval)
                rows.append(report.csv_row(counts, config.seed))
            else:
                data = ObservedData.from_event_log_records(cycles, config.inspection)
                rows.append(mle_estimate(data, config).csv_row(log_counts, config.seed))
        out.writelines([REPORT_HEADER + "\n", *rows])
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    if args.grid_count is not None and args.grid_count < 1:
        raise ConfigError(f"--grid-count must be at least 1, got {args.grid_count}")
    if args.grid_count is not None and args.grid_count > MAX_GRID_COUNT:
        raise ConfigError(f"--grid-count must be at most {MAX_GRID_COUNT}, got {args.grid_count}")
    config = _load_config(args)
    seed = _require_seed(config)
    if args.grid_count is not None:
        horizon = require_horizon(config)
        grid = [horizon * (i + 1) / args.grid_count for i in range(args.grid_count)]
    elif config.grid:
        grid = list(config.grid)
    else:
        raise ConfigError("convergence needs a grid (config key or --grid-count)")
    _require_closed_form_shape(config)
    with _outputs(args.out, inputs=[args.config]) as (out,):
        blocks = horizon_blocks(np.random.default_rng(seed), config)
        out.writelines([CONVERGENCE_HEADER + "\n", *_convergence_rows(grid, blocks, config)])
    return EXIT_OK


def _convergence_rows(
    grid: Sequence[float], cycles: CycleBatch | Iterable[CycleBatch], config: ModelConfig
) -> list[str]:
    """The time-series rows, every grid time counted on the cycles (a
    batch, or a stream of blocks read in order) and estimated in one batch.

    Infeasible estimates leave their fields empty: before the first
    failure only the damage rate is reported, without intervals, since the
    interval covariance needs both rates.  That rate is the batch's own
    search, which runs on rows without failures too.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, mu_hat = _estimates(counts_at_times(grid, cycles), config, "delta")
    rows = []
    for t, report, mu in zip(grid, reports, mu_hat):
        if isinstance(report, EstimateReport):
            rows.append(_CONVERGENCE_ROW % (t, report.mu_hat, report.lambda_hat,
                                            *report.ci_mu, *report.ci_lambda))
            continue
        if not isinstance(report, (OutOfRangeError, DegenerateDataError)):
            raise report
        rows.append("%.17g,,,,,,\n" % t if isinstance(mu, Exception)
                    else "%.17g,%.17g,,,,,\n" % (t, mu))
    return rows


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    if args.samples < MIN_SAMPLES:
        raise ConfigError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    _require_closed_form_shape(config)
    with _outputs(args.out, inputs=[args.config]) as (out,):
        rows = verification_rows(config, args.samples, seed)
        out.writelines(verification_lines(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VERIFY_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "convergence": _cmd_convergence,
        "verify": _cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            code = handlers[args.command](args)
        # one line per warning, and none from a command that then failed
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (ConfigError, OSError) as exc:
        # OSError: a path that cannot be read or written (missing, a
        # directory, no permission)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutOfRangeError, DegenerateDataError, NonConvergenceError) as exc:
        print(f"estimation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:
        # a fault, not an input error: one line, and an exit code that
        # verification never gives
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

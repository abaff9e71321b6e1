"""The benchmark's workloads: which CLI commands one operation runs, how
much work it does, and the check its output must pass.

Every workload uses the paper's base rates (damage rate 1e-3, failure rate
5e-4, inspection spacing 1000, uniform half-width 100) and horizon 5e7.
A run is a number of rounds; one round runs each of the workload's configs
once, so every run holds the same mix of cheap and costly commands.  The
inputs of an operation derive only from the workload seed, the round and
the config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MU = 1e-3
LAMBDA = 5e-4
SPACING = 1000.0
HALF_WIDTH = 100.0
HORIZON = 5e7

# Relative tolerance on final estimates.  At horizon 5e7 the standard error
# of lambda_hat is about 1.2% (about 0.6% for mu_hat), so 10% is roughly
# six standard errors: a correct program fails it about once in 10^9 checks.
REL_TOL = 0.10
Z_LIMIT = 4.0
VERIFY_ROWS = 16


@dataclass(frozen=True)
class Config:
    shape: int
    kind: str

    @property
    def label(self) -> str:
        return f"n{self.shape}-{self.kind[:3]}"

    def flags(self, horizon: float, seed: int) -> list[str]:
        half = HALF_WIDTH if self.kind == "uniform" else 0.0
        return [
            "--sane.shape", str(self.shape),
            "--sane.rate", repr(MU),
            "--damage.rate", repr(LAMBDA),
            "--inspection.kind", self.kind,
            "--inspection.c", repr(SPACING),
            "--inspection.h", repr(half),
            "--horizon", repr(horizon),
            "--seed", str(seed),
        ]


BASE_CONFIGS = (
    Config(1, "deterministic"),
    Config(1, "uniform"),
    Config(2, "deterministic"),
    Config(2, "uniform"),
)
# The event log carries no planned schedule, so the MLE reads
# deterministic-gap logs only.
LOG_CONFIGS = (Config(1, "deterministic"), Config(2, "deterministic"))


@dataclass(frozen=True)
class Sizes:
    """Per-operation sizes; ``SMALL`` exists for the smoke test only."""

    samples: int = 100_000
    grid: int = 100
    log_horizon: float = HORIZON


FULL = Sizes()
SMALL = Sizes(samples=10_000, grid=10, log_horizon=1e7)


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv, the output file it writes, the work it
    does in the workload's unit, and the check its output must pass."""

    config: Config
    round: int
    argv: tuple[str, ...]
    out: str
    work: float
    check: Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    configs: tuple[Config, ...]
    # Wall time of one round at the commit that defined the benchmark (2
    # cores, Python 3.11, numpy 2.4); it turns --seconds into a fixed
    # operation count, so both sides of a comparison run the same commands.
    nominal_round_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", "cycles", BASE_CONFIGS, 4.7),
        Workload("convergence", "rows", BASE_CONFIGS, 11.2),
        Workload("events_mle", "cycles", LOG_CONFIGS, 4.6),
    )
}


def op_seed(seed: int, round_: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, round_, index]).generate_state(1)[0])


def build_ops(
    workload: Workload, seed: int, rounds: int, sizes: Sizes, workdir: str
) -> list[Op]:
    """Every operation of a run, in order; event logs are written here."""
    ops = []
    for r in range(rounds):
        for i, cfg in enumerate(workload.configs):
            # verify repeats one seed per config: each of its commands is a
            # 16-way test at |z| <= 4 that a correct program fails about
            # once in 10^3, so fresh seeds every round would turn that
            # false-alarm rate into failed runs
            s = op_seed(seed, 0 if workload.name == "verify" else r, i)
            out = os.path.join(workdir, f"{cfg.label}.csv")
            if workload.name == "verify":
                argv = ["verify", *cfg.flags(HORIZON, s),
                        "--samples", str(sizes.samples), "--out", out]
                ops.append(Op(cfg, r, tuple(argv), out, sizes.samples, check_verify))
            elif workload.name == "convergence":
                argv = ["convergence", *cfg.flags(HORIZON, s),
                        "--grid-count", str(sizes.grid), "--out", out]
                ops.append(Op(cfg, r, tuple(argv), out, sizes.grid,
                              lambda path, n=sizes.grid: check_convergence(path, n)))
            else:
                log = os.path.join(workdir, f"log-{r}-{cfg.label}.csv")
                cycles = write_event_log(log, cfg.shape, np.random.default_rng(s),
                                         sizes.log_horizon)
                argv = ["estimate", *cfg.flags(sizes.log_horizon, s),
                        "--events", log, "--method", "both", "--out", out]
                ops.append(Op(cfg, r, tuple(argv), out, cycles, check_estimate))
    return ops


# ---------------------------------------------------------------------------
# Event-log input generator (independent of cbmkit.simulator)
# ---------------------------------------------------------------------------

LOG_HEADER = "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"


def write_event_log(path: str, shape: int, rng: np.random.Generator, horizon: float) -> int:
    """Write whole deterministic-gap cycles until their total length reaches
    the horizon, in the event-log format, and return the cycle count.

    Damage comes after a sum of ``shape`` exponentials, failure an
    exponential time later; inspections every SPACING charge
    k = ceil(y_s / SPACING) visits, and a detection at or after the
    failure instant counts as a failure.  The file is checked once with
    cbmkit's own reader.
    """
    y_s, y_d = [], []
    total = 0.0
    batch = 4096
    while total < horizon:
        ys = rng.exponential(1.0 / MU, size=(batch, shape)).sum(axis=1)
        yd = rng.exponential(1.0 / LAMBDA, size=batch)
        ends = total + np.cumsum(np.minimum(np.ceil(ys / SPACING) * SPACING, ys + yd))
        keep = int(np.searchsorted(ends, horizon, side="left")) + 1
        y_s.append(ys[:keep])
        y_d.append(yd[:keep])
        total = float(ends[min(keep, batch) - 1])
    ys = np.concatenate(y_s)
    yd = np.concatenate(y_d)
    k = np.ceil(ys / SPACING)
    detect = k * SPACING
    fail = ys + yd
    failed = detect >= fail
    length = np.minimum(detect, fail)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(LOG_HEADER + "\n")
        columns = zip(ys.tolist(), yd.tolist(), k.tolist(), detect.tolist(),
                      fail.tolist(), length.tolist(), failed.tolist())
        for i, (s, d, n, v, z, x, f) in enumerate(columns, start=1):
            fh.write(
                f"{i},{s:.17g},{d:.17g},{int(n)},{v:.17g},{z:.17g},{x:.17g},"
                f"{'Failed' if f else 'Detected'}\n"
            )
    from cbmkit.simulator import read_event_log

    records = read_event_log(path)
    if len(records) != len(ys) or sum(r.inspection_count for r in records) != int(k.sum()):
        raise RuntimeError(f"cbmkit.simulator.read_event_log misread {path}")
    return len(ys)


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------


def _rows(path: str, header: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    # the first column may itself hold commas (rate_cov[repair,failure])
    return [line.rsplit(",", header.count(",")) for line in lines[1:]]


def _off(value: float, truth: float) -> bool:
    return not abs(value - truth) <= REL_TOL * truth


def check_verify(path: str) -> Optional[str]:
    rows = _rows(path, "quantity,closed_form,mc_value,mc_se,z_score,pass")
    if len(rows) != VERIFY_ROWS:
        return f"{len(rows)} report rows, expected {VERIFY_ROWS}"
    for row in rows:
        z = float(row[4])
        if not abs(z) <= Z_LIMIT or row[5] != "true":
            return f"{row[0]}: |z| = {abs(z):.3g} exceeds {Z_LIMIT}"
    return None


def check_convergence(path: str, grid: int) -> Optional[str]:
    rows = _rows(path, "t,mu_hat,lambda_hat,mu_lo,mu_hi,lambda_lo,lambda_hi")
    if len(rows) != grid:
        return f"{len(rows)} series rows, expected {grid}"
    times = [float(r[0]) for r in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        return "series times do not increase"
    mu_hat, lam_hat = float(rows[-1][1] or "nan"), float(rows[-1][2] or "nan")
    if _off(mu_hat, MU) or _off(lam_hat, LAMBDA):
        return f"final estimates ({mu_hat:.4g}, {lam_hat:.4g}) off by more than {REL_TOL:.0%}"
    return None


def check_estimate(path: str) -> Optional[str]:
    rows = _rows(
        path,
        "method,mu_hat,mu_lo,mu_hi,lambda_hat,lambda_lo,lambda_hi,confidence,t,n_r,n_i,n_f,seed",
    )
    methods = sorted(r[0] for r in rows)
    if methods != ["AM", "MLE"]:
        return f"methods {methods}, expected AM and MLE"
    for r in rows:
        mu_hat, lam_hat = float(r[1]), float(r[4])
        if _off(mu_hat, MU) or _off(lam_hat, LAMBDA):
            return f"{r[0]} estimates ({mu_hat:.4g}, {lam_hat:.4g}) off by more than {REL_TOL:.0%}"
    return None

"""Brute-force Monte Carlo verification of every closed form.

Each closed-form quantity gets an estimate built from plain cycle draws
(the batch engine :func:`cbmkit.simulator.simulate_cycles`, which the
horizon simulator also runs on) with a plain standard error, and the
comparison harness flags any |z| above 4.
With a million cycles that threshold has a per-comparison false-alarm rate
around 6e-5, tolerable across the whole suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .config import ModelConfig
from .formulas import (
    count_rate_covariance,
    cycle_moments,
    detection_window_integral,
    mean_cycle_length,
)
from .laws import DETERMINISTIC
from .simulator import simulate_cycles, simulate_horizon

# Fewer cycles than this give meaningless standard errors.
MIN_SAMPLES = 10_000

# Asymptotic two-sided Kolmogorov-Smirnov critical scales: D_crit = c / sqrt(n).
KS_CRITICAL_SCALE = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628, 0.001: 1.949}


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_err: float

    def z_score(self, closed_form: float) -> float:
        if self.std_err == 0.0:
            return 0.0 if closed_form == self.value else math.inf
        return (closed_form - self.value) / self.std_err


@dataclass(frozen=True)
class ComparisonRow:
    quantity: str
    closed_form: float
    mc_value: float
    mc_se: float
    z_score: float
    passed: bool


def _cycle_arrays(config: ModelConfig, n_samples: int, seed: int):
    # only these columns outlive the draw
    cycles = simulate_cycles(np.random.default_rng(seed), config, n_samples)
    return (
        cycles.inspection_count.astype(float),
        cycles.length,
        cycles.failed.astype(float),
        cycles.failure_age,
        cycles.detection_age - cycles.time_to_damage,
    )


def _mc_mean(arr: np.ndarray) -> McEstimate:
    return McEstimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr))))


def _mc_cov(a: np.ndarray, b: np.ndarray) -> McEstimate:
    n = len(a)
    w = (a - a.mean()) * (b - b.mean())
    return McEstimate(float(w.sum() / (n - 1)), float(w.std(ddof=1) / math.sqrt(n)))


def _mc_moments(config: ModelConfig, n_samples: int, seed: int):
    """Per-cycle (count, length, failed) arrays and the estimate of every
    cycle moment, keyed by its :class:`~cbmkit.formulas.CycleMoments`
    field.

    The detected-inspections moment uses the per-cycle statistic
    count * survival(overshoot) evaluated at the configured failure rate,
    whatever the end type, matching the expectation it estimates.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples below {MIN_SAMPLES} gives meaningless standard errors")
    k, x, failed, fail_age, overshoot = _cycle_arrays(config, n_samples, seed)
    k_detected = k * np.exp(-config.damage.rate * overshoot)
    estimates = {
        "mean_inspections": _mc_mean(k),
        "failure_prob": _mc_mean(failed),
        "mean_cycle": _mc_mean(x),
        "mean_inspections_sq": _mc_mean(k**2),
        "mean_cycle_sq": _mc_mean(x**2),
        "cov_cycle_failure": _mc_cov(x, failed),
        "cov_inspections_failure": _mc_cov(k, failed),
        "cov_inspections_cycle": _mc_cov(k, x),
        "mean_cycle_on_failure": _mc_mean(fail_age * failed),
        "mean_inspections_detected": _mc_mean(k_detected),
    }
    return (k, x, failed), estimates


def mc_moment_set(config: ModelConfig, n_samples: int, seed: int) -> dict[str, McEstimate]:
    """Sample means (with plain standard errors) for every cycle moment,
    keyed by its :class:`~cbmkit.formulas.CycleMoments` field."""
    return _mc_moments(config, n_samples, seed)[1]


def verification_rows(
    config: ModelConfig,
    n_samples: int,
    seed: int,
    closed_overrides: Optional[dict[str, float]] = None,
    threshold: float = 4.0,
) -> list[ComparisonRow]:
    """Compare every closed form against its Monte Carlo estimate.

    Covers the full moment set and all six distinct entries of the
    count-rate covariance (per-cycle linear-combination statistics scaled
    by the closed-form mean cycle length).  ``closed_overrides`` replaces
    selected closed values before comparison; it exists so the harness can
    prove it catches a corrupted formula.
    """
    overrides = closed_overrides or {}
    moments = cycle_moments(config.sane, config.damage, config.inspection)
    rate_cov = count_rate_covariance(moments)
    (k, x, failed), mc = _mc_moments(config, n_samples, seed)
    closed: dict[str, float] = {
        name: getattr(moments, name) for name in mc
    }

    # Count-rate covariance entries: per-cycle statistics with closed-form
    # constants, so each entry is a plain sample covariance.
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    stats = (x, pd * x - mx * failed, mk * x - mx * k)
    labels = ("repair", "failure", "inspection")
    for i in range(3):
        for j in range(i, 3):
            name = f"rate_cov[{labels[i]},{labels[j]}]"
            mc[name] = _mc_cov(stats[i], stats[j])
            closed[name] = rate_cov[i, j] * mx**3

    rows = []
    for name, est in mc.items():
        value = overrides.get(name, closed[name])
        z = est.z_score(value)
        rows.append(
            ComparisonRow(
                quantity=name,
                closed_form=value,
                mc_value=est.value,
                mc_se=est.std_err,
                z_score=z,
                passed=abs(z) <= threshold,
            )
        )
    return rows


VERIFICATION_HEADER = "quantity,closed_form,mc_value,mc_se,z_score,pass"


def write_verification_report(out: TextIO, rows: Iterable[ComparisonRow]) -> None:
    """Write the rows as the verification-report CSV to a text stream."""
    out.write(VERIFICATION_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.quantity},{r.closed_form:.17g},{r.mc_value:.17g},"
            f"{r.mc_se:.17g},{r.z_score:.17g},{'true' if r.passed else 'false'}\n"
        )


# ---------------------------------------------------------------------------
# Age of the repair process
# ---------------------------------------------------------------------------


def mc_age_distribution(
    config: ModelConfig, horizon: float, n_probes: int, seed: int
) -> np.ndarray:
    """Ages of the repair process sampled at uniform probe times.

    Probes are drawn in [horizon/2, horizon] so the process is well past
    its transient; the simulation itself runs until the first cycle end
    beyond the horizon.
    """
    if n_probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    # 0 and every repair epoch
    starts = simulate_horizon(rng, config, horizon=horizon).totals.time
    probes = rng.uniform(horizon / 2.0, horizon, size=n_probes)
    return probes - starts[np.searchsorted(starts, probes, side="right") - 1]


def _survival_given_segment(u: np.ndarray, seg_start, config: ModelConfig):
    mu, n = config.sane.rate, config.sane.shape
    x_ = mu * u
    tail = np.ones_like(u)
    term = np.ones_like(u)
    for i in range(1, n):
        term = term * x_ / i
        tail += term
    sane_tail = tail * np.exp(-x_)
    fail_path = detection_window_integral(seg_start, u, config.sane, config.damage)
    return sane_tail + fail_path


def cycle_length_survival(u, config: ModelConfig):
    """P(cycle length > u) in closed form, deterministic gaps only.

    Either the damage has not happened by u, or it happened in the current
    inspection segment and no failure has occurred yet; earlier-segment
    damage always ends the cycle by the segment's inspection.  The value
    is the right-continuous survival (detection puts mass exactly at the
    inspection multiples).
    """
    if config.inspection.kind != DETERMINISTIC:
        raise ValueError(
            "closed-form cycle-length survival requires deterministic gaps"
        )
    u = np.asarray(u, dtype=float)
    c = config.inspection.spacing
    out = _survival_given_segment(u, np.floor(u / c) * c, config)
    return out if out.ndim else float(out)


def limiting_age_cdf(config: ModelConfig, xs: Sequence[float]) -> np.ndarray:
    """Long-run CDF of the repair-process age at the given points.

    F(x) = int_0^x P(cycle > u) du / E[cycle], integrated by trapezoid on
    a per-segment grid (the survival jumps at inspection multiples, so
    segments are integrated separately and summed).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return xs.copy()
    if (xs < 0).any():
        raise ValueError("ages are nonnegative")
    c = config.inspection.spacing
    mean_cycle = mean_cycle_length(config.sane, config.damage, config.inspection)
    x_max = float(xs.max())
    if x_max == 0.0:
        return np.zeros_like(xs)
    n_seg = int(math.floor(x_max / c)) + 1
    pts_per_seg = 513

    grid_all = []
    cum_all = []
    running = 0.0
    for seg in range(n_seg):
        lo, hi = seg * c, min((seg + 1) * c, x_max)
        if hi <= lo:
            break
        pts = np.linspace(lo, hi, pts_per_seg)
        # fix the segment branch so the right endpoint carries the
        # left-limit value (the integrand is continuous within the segment)
        vals = _survival_given_segment(pts, lo, config)
        inc = np.concatenate(
            ([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)))
        )
        grid_all.append(pts)
        cum_all.append(running + inc)
        running += inc[-1]
    grid = np.concatenate(grid_all)
    cum = np.concatenate(cum_all)
    return np.interp(xs, grid, cum) / mean_cycle


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples to a continuous CDF.

    ``cdf_values`` are the model CDF evaluated at the *sorted* samples.
    """
    n = len(samples)
    order = np.argsort(samples)
    f = np.asarray(cdf_values)[order]
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n: int, level: float) -> float:
    return KS_CRITICAL_SCALE[level] / math.sqrt(n)

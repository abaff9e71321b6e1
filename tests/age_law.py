"""The age law of the repair process and the laws' pointwise values: an
independent reference.

The asymptotic method reads the repair process's counts, not its age, so
no command computes what this module does.  Tests compare against it:
the ages at uniform probe times of a simulated horizon against the
long-run age CDF of deterministic gaps, by a Kolmogorov-Smirnov distance;
the cycle-length survival against simulated cycle lengths; and the
samplers' draws against the damage-time survival and the gap CDF.  The
damage-time density is the integrand of the quadrature references.

Each function calls the product's rules, not copies: the inspection
segment of an age is ``simulator._schedule_index``'s, the repair epochs
are ``simulator._running_sums`` of the lengths ``horizon_blocks`` draws,
the damage-in-segment term is ``formulas.detection_window_integral``, and
the lower gamma tail comes from ``laws._exp_poly_moments``.
"""

import math

import numpy as np

from cbmkit.formulas import cycle_moments, detection_window_integral
from cbmkit.laws import DETERMINISTIC, _exp_poly_moments, _libm, _value
from cbmkit.simulator import _running_sums, _schedule_index, horizon_blocks

# Asymptotic two-sided Kolmogorov-Smirnov critical scales: D_crit = c / sqrt(n).
KS_CRITICAL_SCALE = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628, 0.001: 1.949}


def survival_sane(t, law):
    """P(damage later than t): sum_{i<shape} (rate*t)^i/i! * exp(-rate*t),
    on a float or on every element of an array, each with its float bits.

    Below rate*t = 1 a shape above 1 takes one minus the lower tail
    instead, gamma(shape, rate*t)/(shape-1)! from the exponential moments:
    the head sum rounds above 1 near t = 0, and one minus the tiny tail
    stays at most 1 and nonincreasing.
    """
    x = law.rate * _value(t)
    e = _libm(math.exp, -x)
    term = acc = 1.0
    for i in range(1, law.shape):
        term = term * (x / i)
        acc = acc + term
    near = x < 1.0
    if law.shape == 1 or not np.any(near):
        return _value(acc * e)
    lower = _exp_poly_moments(np.where(near, x, 0.0), -1.0, law.shape - 1, elementwise=True)[-1]
    return _value(np.where(near, 1.0 - lower / math.factorial(law.shape - 1), acc * e))


def density_sane(t, law):
    """Gamma density at t; accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    n, mu = law.shape, law.rate
    out = mu**n * t ** (n - 1) * np.exp(-mu * t) / math.factorial(n - 1)
    return out if out.ndim else float(out)


def cdf_inspection_gap(x, law):
    """P(gap <= x): a step at the spacing, or a ramp over the uniform
    gap's support."""
    if law.kind == DETERMINISTIC:
        return 0.0 if x < law.spacing else 1.0
    lo = law.spacing - law.half_width
    hi = law.spacing + law.half_width
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return (x - lo) / (hi - lo)


def mc_age_distribution(config, n_probes, seed):
    """Ages of the repair process sampled at uniform probe times.

    Probes are drawn in the second half of the config's horizon so the
    process is well past its transient; the simulation itself runs until
    the first cycle end beyond the horizon.
    """
    rng = np.random.default_rng(seed)
    # 0 and every repair epoch, added left to right as a batch's totals are
    starts = _running_sums(np.concatenate([block.length for block in horizon_blocks(rng, config)]))
    probes = rng.uniform(config.horizon / 2.0, config.horizon, size=n_probes)
    return probes - starts[np.searchsorted(starts, probes, side="right") - 1]


def _survival_given_segment(u, seg_start, config):
    return survival_sane(u, config.sane) + detection_window_integral(
        seg_start, u, config.sane, config.damage)


def _check_deterministic(config):
    if config.inspection.kind != DETERMINISTIC:
        raise ValueError("closed-form cycle-length survival requires deterministic gaps")


def cycle_length_survival(u, config):
    """P(cycle length > u) in closed form, deterministic gaps only.

    Either the damage has not happened by u, or it happened in the current
    inspection segment and no failure has occurred yet; earlier-segment
    damage always ends the cycle by the segment's inspection.  The value
    is the right-continuous survival (detection puts mass exactly at the
    inspection multiples): its segment starts at the last inspection age
    at or before u.
    """
    _check_deterministic(config)
    u = np.asarray(u, dtype=float)
    c = config.inspection.spacing
    return _value(_survival_given_segment(u, _schedule_index(u, c) * c, config))


def limiting_age_cdf(config, xs):
    """Long-run CDF of the repair-process age at the given nonnegative
    points, deterministic gaps only.

    F(x) = int_0^x P(cycle > u) du / E[cycle], integrated by trapezoid on
    513 points per inspection segment below the largest x: the survival
    jumps at inspection multiples, so each segment's row keeps its own left
    end as the branch, and its right end carries the left-limit value.
    The rows join end to start with a step of zero width, so one
    cumulative sum over them all integrates every segment.
    """
    _check_deterministic(config)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return xs.copy()
    c = config.inspection.spacing
    mean_cycle = cycle_moments(config.sane, config.damage, config.inspection).mean_cycle
    x_max = float(xs.max())
    if x_max == 0.0:
        return np.zeros_like(xs)
    # the segments that start below x_max
    seg = np.arange(_schedule_index(x_max, c, detection=True))
    lo = seg * c
    pts = np.linspace(lo, np.minimum((seg + 1) * c, x_max), 513, axis=1)
    vals = _survival_given_segment(pts, lo[:, None], config).ravel()
    grid = pts.ravel()
    cum = _running_sums(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))
    return np.interp(xs, grid, cum) / mean_cycle


def ks_statistic(samples, cdf_values):
    """Two-sided Kolmogorov-Smirnov distance of samples to a continuous CDF.

    ``cdf_values`` are the model CDF at ``samples`` as given, element for
    element; the samples need not be sorted.
    """
    n = len(samples)
    order = np.argsort(samples)
    f = np.asarray(cdf_values)[order]
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n, level):
    return KS_CRITICAL_SCALE[level] / math.sqrt(n)

"""The oracle's Monte Carlo columns the two-pass way: every cycle drawn at
once, then a mean pass and a deviation pass over whole columns per
quantity.  The streamed moment pass of :mod:`cbmkit.oracle` is held to
these values; they are the columns the oracle gave before it streamed.
"""

import math

import numpy as np

from cbmkit.formulas import cycle_moments
from conftest import draw_cycles


def mc_mean(arr):
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def mc_cov(a, b):
    n = len(a)
    w = (a - a.mean()) * (b - b.mean())
    return float(w.sum() / (n - 1)), float(w.std(ddof=1) / math.sqrt(n))


def two_pass_columns(config, n_samples, seed):
    """(mc_value, mc_se) of every verification row, by quantity, in row
    order."""
    cycles = draw_cycles(np.random.default_rng(seed), config, n_samples)
    k = cycles.inspection_count.astype(float)
    x = cycles.length
    failed = cycles.failed.astype(float)
    overshoot = cycles.detection_age - cycles.time_to_damage
    k_detected = k * np.exp(-config.damage.rate * overshoot)
    columns = {
        "mean_inspections": mc_mean(k),
        "failure_prob": mc_mean(failed),
        "mean_cycle": mc_mean(x),
        "mean_inspections_sq": mc_mean(k**2),
        "mean_cycle_sq": mc_mean(x**2),
        "cov_cycle_failure": mc_cov(x, failed),
        "cov_inspections_failure": mc_cov(k, failed),
        "cov_inspections_cycle": mc_cov(k, x),
        "mean_cycle_on_failure": mc_mean(cycles.failure_age * failed),
        "mean_inspections_detected": mc_mean(k_detected),
    }
    moments = cycle_moments(config.sane, config.damage, config.inspection)
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    stats = (x, pd * x - mx * failed, mk * x - mx * k)
    labels = ("repair", "failure", "inspection")
    for i in range(3):
        for j in range(i, 3):
            columns[f"rate_cov[{labels[i]},{labels[j]}]"] = mc_cov(stats[i], stats[j])
    return columns

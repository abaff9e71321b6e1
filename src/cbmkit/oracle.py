"""Brute-force Monte Carlo verification of every closed form.

Each closed-form quantity gets an estimate built from plain cycle draws
with a plain standard error, and the comparison harness flags any |z|
above 4.  The cycles come chunk by chunk from the batch engine's one draw
loop, :func:`cbmkit.simulator.cycle_chunks` (which the batch simulators
join), in one streamed pass that keeps only moment sums.  The final
algebra runs in Python floats and nothing here calls BLAS (no ``@``,
``dot`` or ``einsum``), so the bits do not depend on the machine's BLAS
kernels.  With a million cycles that threshold has a per-comparison
false-alarm rate around 6e-5, tolerable across the whole suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import ModelConfig, check_counts
from .formulas import _rate_covariance, cycle_moments
from .simulator import cycle_chunks

# Fewer cycles than this give meaningless standard errors.
MIN_SAMPLES = 10_000

# A comparison fails when its |z| exceeds this.
Z_THRESHOLD = 4.0


@dataclass(frozen=True)
class ComparisonRow:
    quantity: str
    closed_form: float
    mc_value: float
    mc_se: float
    z_score: float
    passed: bool


# The (a, b) of the summed k'^a r'^b, degree by degree; the failed cycles'
# sums take the nine of degree 1 to 3, which come first.
_POWERS = tuple((a, d - a) for d in range(1, 5) for a in range(d + 1))
_FAILED_POWERS = _POWERS[:9]


def _z_score(closed_form: float, value: float, std_err: float) -> float:
    """(closed_form - value) / std_err; a Monte Carlo column without spread
    scores 0 against an equal closed form and +inf against any other."""
    if std_err == 0.0:
        return 0.0 if closed_form == value else math.inf
    return (closed_form - value) / std_err


def _moment_sums(config: ModelConfig, n_samples: int, seed: int):
    """One pass over the cycles, drawn chunk by chunk: the first chunk's
    means ``shift`` of (k, r, d); the sums over all cycles of k'^a r'^b for
    each of :data:`_POWERS`, then of d' and d'^2; the number of failed
    cycles and their sums of k'^a r'^b for each of :data:`_FAILED_POWERS`.

    k is the inspection count, r = x - c k the cycle length x less c (the
    mean gap) times k, d = k * exp(-lam * overshoot) the detected-inspections
    statistic, and k' = k - shift[0], and so on.  The shift keeps the
    co-moments that :func:`_estimate` reads from these raw sums accurate
    (Chan, Golub & LeVeque, 1983); so does r in place of x, as the rate
    statistics cancel x against c k.
    """
    rate, spacing = config.damage.rate, config.inspection.spacing
    shift = None
    sums, failed_sums, failed = 0.0, 0.0, 0
    for chunk in cycle_chunks(np.random.default_rng(seed), config, n_samples):
        k = chunk.inspection_count
        r = chunk.length - spacing * k
        d = k * np.exp(-rate * (chunk.detection_age - chunk.time_to_damage))
        if shift is None:
            shift = (float(k.mean()), float(r.mean()), float(d.mean()))
            # the first chunk is the longest; every chunk reuses its rows
            buffer = np.empty((len(_POWERS) + 2, len(k)))
        rows = buffer[:, :len(k)]
        power = dict(zip(_POWERS, rows))
        np.subtract(k, shift[0], out=power[1, 0])
        np.subtract(r, shift[1], out=power[0, 1])
        for a, b in _POWERS[2:]:
            # one power of k' or r' times a lower monomial
            if a:
                np.multiply(power[a - 1, b], power[1, 0], out=power[a, b])
            else:
                np.multiply(power[0, b - 1], power[0, 1], out=power[0, b])
        np.subtract(d, shift[2], out=rows[-2])
        np.multiply(rows[-2], rows[-2], out=rows[-1])
        sums = sums + rows.sum(axis=1)
        on_failed = rows[:len(_FAILED_POWERS)].compress(chunk.failed, axis=1)
        failed_sums = failed_sums + on_failed.sum(axis=1)
        failed += on_failed.shape[1]
    return shift, sums.tolist(), failed, failed_sums.tolist()


def _linear(const: float, k: float, r: float, f: float) -> dict:
    """const + k k' + r r' + f f, as a polynomial: its nonzero
    coefficients keyed by the exponents of (k', r', f)."""
    terms = zip(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), (const, k, r, f))
    return {e: a for e, a in terms if a != 0.0}


def _times(p: dict, q: dict) -> dict:
    """The product of two polynomials of :func:`_linear`."""
    out: dict = {}
    for e, a in p.items():
        for g, b in q.items():
            key = (e[0] + g[0], e[1] + g[1], e[2] + g[2])
            out[key] = out.get(key, 0.0) + a * b
    return out


def _estimate(poly: dict, raw: dict, n: int, scale: float = 1.0) -> tuple[float, float]:
    """(value, standard error) of a per-cycle statistic, a polynomial of
    degree up to 2 in the shifted (k', r', f), from the raw moments
    ``raw[a, b, c]`` = E[k'^a r'^b f^c]: its sample mean times ``scale``,
    and the standard error of that mean (ddof=1).  Its variance reads the
    co-moments of the monomials, E[m m'] - E[m] E[m'].  The sums are
    correctly rounded by ``math.fsum``, so their bits do not depend on
    term order or on the Python version."""
    mean = math.fsum(a * raw[e] for e, a in poly.items())
    var = math.fsum(
        a * b * (raw[e[0] + g[0], e[1] + g[1], e[2] + g[2]] - raw[e] * raw[g])
        for e, a in poly.items() for g, b in poly.items()
    )
    return mean * scale, _std_err(var, n)


def _std_err(var: float, n: int) -> float:
    """The standard error of a mean of ``n`` values whose variance (ddof=0)
    is ``var``; a variance that rounds below 0 (or is -0.0) reads 0."""
    return math.sqrt(var / (n - 1)) if var > 0.0 else 0.0


def verification_rows(
    config: ModelConfig,
    n_samples: int,
    seed: int,
    closed_overrides: Optional[dict[str, float]] = None,
) -> list[ComparisonRow]:
    """Compare every closed form against its Monte Carlo estimate.

    Covers the full moment set and all six distinct entries of the
    count-rate covariance (per-cycle linear-combination statistics scaled
    by the closed-form mean cycle length).  ``closed_overrides`` replaces
    selected closed values before comparison; it exists so the harness can
    prove it catches a corrupted formula.  The covariance is assembled
    without the library's consistency check, so inconsistent closed forms
    show as failing rows rather than an error.

    Each Monte Carlo value is a sample mean with its standard error
    (ddof=1), or a sample covariance (ddof=1) with the standard error of
    the mean of its centred products, as two passes over whole columns
    would give them.  All come from one streamed pass: cycles are drawn
    chunk by chunk and only their moment sums are kept, so memory does not
    grow with ``n_samples``.  The detected-inspections moment uses the
    per-cycle statistic count * survival(overshoot) at the configured
    failure rate, whatever the end type, matching the expectation it
    estimates.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples below {MIN_SAMPLES} gives meaningless standard errors")
    overrides = closed_overrides or {}
    # the closed forms do not read a config whose counts would not be exact
    check_counts(config)
    moments = cycle_moments(config.sane, config.damage, config.inspection)
    shift, sums, failed, failed_sums = _moment_sums(config, n_samples, seed)
    n, c = n_samples, config.inspection.spacing
    # E[k'^a r'^b f^c] keyed by (a, b, c); as f*f = f, a key with c >= 1
    # reads the failed cycles' sums
    whole = {(0, 0): 1.0, **{q: s / n for q, s in zip(_POWERS, sums[:-2])}}
    on_failed = {(0, 0): failed / n, **{q: s / n for q, s in zip(_FAILED_POWERS, failed_sums)}}
    raw = {(a, b, f): (on_failed if f else whole)[a, b]
           for a in range(5) for b in range(5 - a) for f in range(5 - a - b)}
    e_k, e_r, p = raw[1, 0, 0], raw[0, 1, 0], raw[0, 0, 1]

    def centred(k, r, f):
        # k (k' - e_k) + r (r' - e_r) + f (f - p)
        return _linear(-(k * e_k + r * e_r + f * p), k, r, f)

    # k = k' + shift[0], x = r + c k and f, and the same centred
    k_, dk = _linear(shift[0], 1.0, 0.0, 0.0), centred(1.0, 0.0, 0.0)
    x_, dx = _linear(shift[1] + c * shift[0], c, 1.0, 0.0), centred(c, 1.0, 0.0)
    f_, df = _linear(0.0, 0.0, 0.0, 1.0), centred(0.0, 0.0, 1.0)
    cov = n / (n - 1)
    mc = {
        "mean_inspections": _estimate(k_, raw, n),
        "failure_prob": _estimate(f_, raw, n),
        "mean_cycle": _estimate(x_, raw, n),
        "mean_inspections_sq": _estimate(_times(k_, k_), raw, n),
        "mean_cycle_sq": _estimate(_times(x_, x_), raw, n),
        "cov_cycle_failure": _estimate(_times(dx, df), raw, n, cov),
        "cov_inspections_failure": _estimate(_times(dk, df), raw, n, cov),
        "cov_inspections_cycle": _estimate(_times(dk, dx), raw, n, cov),
        # the length of a failed cycle is its failure age
        "mean_cycle_on_failure": _estimate(_times(x_, f_), raw, n),
    }
    d_mean, d_sq = sums[-2] / n, sums[-1] / n
    mc["mean_inspections_detected"] = (shift[2] + d_mean, _std_err(d_sq - d_mean**2, n))
    closed: dict[str, float] = {name: getattr(moments, name) for name in mc}

    # Count-rate covariance entries: per-cycle statistics with closed-form
    # constants, linear in (k, x, f) and so in (k, r, f), so each entry is
    # a sample covariance of centred linear forms.
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    rate_cov = _rate_covariance(moments)
    stats = (dx, centred(pd * c, pd, -mx), centred(mk * c - mx, mk, 0.0))
    labels = ("repair", "failure", "inspection")
    for i in range(3):
        for j in range(i, 3):
            name = f"rate_cov[{labels[i]},{labels[j]}]"
            mc[name] = _estimate(_times(stats[i], stats[j]), raw, n, cov)
            closed[name] = rate_cov[i][j] * mx**3

    rows = []
    for name, (mc_value, mc_se) in mc.items():
        value = overrides.get(name, closed[name])
        z = _z_score(value, mc_value, mc_se)
        rows.append(
            ComparisonRow(
                quantity=name,
                closed_form=value,
                mc_value=mc_value,
                mc_se=mc_se,
                z_score=z,
                passed=abs(z) <= Z_THRESHOLD,
            )
        )
    return rows


VERIFICATION_HEADER = "quantity,closed_form,mc_value,mc_se,z_score,pass"


_VERIFICATION_ROW = "%s,%.17g,%.17g,%.17g,%.17g,%s\n"


def verification_lines(rows: Iterable[ComparisonRow]) -> Iterator[str]:
    """The rows as the verification-report CSV, line by line."""
    yield VERIFICATION_HEADER + "\n"
    for r in rows:
        yield _VERIFICATION_ROW % (
            r.quantity, r.closed_form, r.mc_value, r.mc_se, r.z_score,
            "true" if r.passed else "false",
        )


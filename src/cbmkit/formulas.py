"""Closed-form renewal quantities for the maintained three-state system.

Everything here is an exact expression in the inspection-gap Laplace
transform L and its derivatives at the damage rate ``mu`` (and at the
failure rate ``lam``).  Derivatives of 1/(1-L), L/(1-L) and L/(1-L)^2 are
obtained by truncated-series arithmetic over the jets and 1 - L of one
pass of ``laws._transform`` per anchor, read to order shape at most;
there is no quadrature on the real line and no symbolic algebra.

The rate pair (mu, lam) hits a removable singularity on the diagonal
mu = lam: the generic expressions carry (mu - lam)^-shape factors whose
poles only cancel analytically.  Within |lam - mu| <= mu/4 (see
``_near_diagonal``) the inspection series are instead the divided
differences they are, written as Cauchy integrals over the circle
|z - mu| = mu/2 and summed by the trapezoid rule, which reads only L and
1 - L at the nodes and is smooth through the diagonal.  The parameter
sensitivities come from the same series, not from hand-differentiated
copies of them, and from the same pass as the cycle moments: one jet per
rate and one band split give both.

Every closed form is elementwise over laws with arrays of rates, and
with scalar rates the same code computes in Python floats, so a lone
element is never boxed into an array (the contour's nodes are an array
axis either way).  Each element gets the bits it gets alone: sums run
term by term in index order (no ``np.dot`` or ``@``, whose BLAS kernels
sum in their own order), and ``exp``, ``expm1``, the trigonometric
functions and powers are the C library's scalar routines, not numpy's
SIMD loops.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .laws import (
    MAX_SHAPE,
    DamageLaw,
    InspectionLaw,
    SaneLaw,
    _all,
    _any,
    _cdiv,
    _exp_poly_moments,
    _transform,
    _value,
    complex_laplace,
)

# Trapezoid rule on the circle |z - mu| = mu/2 with N equispaced nodes
# z_k = mu (1 + u_k/2), u_k = exp(2 pi i k/N).  The integrands are real on
# the real axis, so only the conjugate half k = 0..N/2 is summed, with
# weight 1 at both ends and 2 between.
_NODES = 64
_WEIGHTS = np.array([[1.0]] + [[2.0]] * (_NODES // 2 - 1) + [[1.0]])


@functools.lru_cache(maxsize=None)
def _unit_power(p: int) -> tuple:
    """u_k^p at the summed nodes as an (re, im) pair of columns."""
    angles = [2.0 * math.pi * (k * p % _NODES) / _NODES for k in range(_NODES // 2 + 1)]
    return (np.array([[math.cos(t)] for t in angles]),
            np.array([[math.sin(t)] for t in angles]))


def _near_diagonal(mu, lam):
    # The circle |z - mu| = mu/2 then encloses lam at least mu/4 inside it,
    # and every zero of 1 - L (Re z <= 0) lies at least mu/2 outside it, so
    # the trapezoid sums converge like 2^-N on both sides.  Outside, the
    # generic branch's division by (mu - lam)^shape costs a few 1e-10
    # relative at shape 4 and mu*c = 1e-4; at mu/8 it would cost 7e-9.
    return abs(lam - mu) <= 0.25 * mu


def _power(x, p: int):
    """x ** p elementwise with the C library's pow, as Python's float power
    rounds (x * x is not always pow(x, 2)); p = 0 and 1 are exact.  A
    scalar x gives a float."""
    if not isinstance(x, np.ndarray):
        return math.pow(x, p)
    if p == 0:
        return np.ones_like(x)
    if p == 1:
        return x
    return np.array([math.pow(v, p) for v in x.tolist()], dtype=float)


def _elements(value) -> list:
    """The elements of a float or an array, as a list."""
    return value.tolist() if isinstance(value, np.ndarray) else [value]


def _rates(*laws) -> list:
    """The laws' rates: floats, or float arrays for arrays of rates."""
    return [_value(law.rate) for law in laws]


# ---------------------------------------------------------------------------
# Series arithmetic on jets
# ---------------------------------------------------------------------------


def _series_mul(a: list, b: list) -> list:
    """Taylor coefficients of a product, a row per order; coefficient i sums
    a[j] * b[i - j] over j = 0..i in that order."""
    out = []
    for i in range(len(a)):
        total = a[0] * b[i]
        for j in range(1, i + 1):
            total = total + a[j] * b[i - j]
        out.append(total)
    return out


def _series_reciprocal(den: list) -> list:
    """Taylor coefficients of 1/f from those of f: coefficient i is
    -sum_{j=1..i} den[j] out[i - j] / den[0], the sum taken with j from i
    down to 1."""
    out = [1.0 / den[0]]
    for i in range(1, len(den)):
        total = 0.0
        for p in range(i):
            total = total + den[i - p] * out[p]
        out.append(-total / den[0])
    return out


@dataclass(frozen=True)
class LawDerivatives:
    """Raw derivatives of L, 1/(1-L), L/(1-L) and L/(1-L)^2 at an anchor
    (a float) or at an array of anchors, a row per order: a float, or an
    array over the anchors.  ``one_minus`` is 1 - L without cancellation."""

    laplace: tuple
    one_minus: float | np.ndarray
    inv_one_minus: tuple
    gain: tuple
    gain_sq: tuple


def law_derivatives(s, insp: InspectionLaw, order: int) -> LawDerivatives:
    """Derivative bundle of L, 1/(1-L), L/(1-L), L/(1-L)^2 at s.

    A float anchor's bundle is cached (its rows are immutable floats): a
    single inversion reads the one at its fixed damage rate at every step,
    and its scan grid repeats the same points from call to call.  The cycle
    moments and the sensitivities come from one pass and need no cache to
    share theirs.
    """
    x = _value(s)
    if isinstance(x, np.ndarray):
        return _derivatives(x, insp, order)
    return _cached_derivatives(x, insp, order)


def _derivatives(x, insp: InspectionLaw, order: int) -> LawDerivatives:
    laplace, one_minus = _transform(x, insp, order)
    taylor = [v / math.factorial(i) for i, v in enumerate(laplace)]
    # The order-0 coefficient of 1-L is its own cancellation-free value;
    # the higher coefficients are exact sign flips.
    w = _series_reciprocal([one_minus] + [-v for v in taylor[1:]])
    psi = _series_mul(taylor, w)

    def raw(series: list) -> tuple:
        return tuple(v * math.factorial(i) for i, v in enumerate(series))

    return LawDerivatives(tuple(laplace), one_minus, raw(w), raw(psi), raw(_series_mul(psi, w)))


_cached_derivatives = functools.lru_cache(maxsize=32)(_derivatives)


# ---------------------------------------------------------------------------
# The inspection series (two Laplace-transform series and a first-moment kin)
# ---------------------------------------------------------------------------


def _taylor_tail(h_lam, h_mu, mu, lam, n: int):
    """h(lam) minus its Taylor polynomial of degree n - 1 about mu."""
    acc = h_lam - h_mu[0] if n else h_lam
    for j in range(1, n):
        acc = acc - _power(mu - lam, j) / math.factorial(j) * (-1.0) ** j * h_mu[j]
    return acc


def _indexed_series_sum(n: int, mu_derivs, at_lam, mu, lam, slope_at_lam=None):
    """sum_k k^w E[exp(-lam D_k) * integral] = (-mu)^n h[mu (n times), lam],
    off the equal-rates band.

    h is a rational function of L, ``mu_derivs`` its derivatives at mu and
    ``at_lam`` its value at lam: (mu/(mu-lam))^n (h(lam) - sum_{j<n}
    (mu-lam)^j/j! (-1)^j h^(j)(mu)), which reads ``mu_derivs`` to order
    n - 1 only.  Given ``slope_at_lam`` = h'(lam), returns (value,
    d value / d lam).
    """
    rho = _power(mu / (mu - lam), n)
    acc = _taylor_tail(at_lam, mu_derivs, mu, lam, n)
    if slope_at_lam is None:
        return rho * acc
    d_acc = _taylor_tail(slope_at_lam, mu_derivs[1:], mu, lam, n - 1)
    return rho * acc, rho * (n / (mu - lam) * acc + d_acc)


def _circle_values(mu, insp: InspectionLaw) -> tuple:
    """psi = L/(1-L) and 1 - L at the contour's nodes about mu, (re, im)
    pairs with a row per node and a column per element."""
    cos, sin = _unit_power(1)
    laplace, one_minus = complex_laplace(mu * (1.0 + 0.5 * cos), mu * (0.5 * sin), insp)
    return _cdiv(laplace, one_minus), one_minus


def _circle_sum(values: tuple, n: int, mu, lam, squared: bool = False):
    """(-mu)^n h[mu (n times), lam] in the equal-rates band, from h at the
    contour's nodes: with eps = (lam - mu)/mu, (-1)^n 2^(n-1) (1/N) Re
    sum_k h(z_k) u_k^(1-n) / (u_k/2 - eps).  ``squared`` squares the kernel,
    which gives mu times the series' slope in lam."""
    cos, sin = _unit_power(1)
    gap = (0.5 * cos - (lam - mu) / mu, 0.5 * sin)
    kernel = _cdiv(_unit_power(1 - n), gap)
    if squared:
        kernel = _cdiv(kernel, gap)
    terms = _WEIGHTS * (values[0] * kernel[0] - values[1] * kernel[1])
    total = terms[0]
    for row in terms[1:]:
        total = total + row
    total = total * ((-1.0) ** n * 2.0 ** (n - 1) / _NODES)
    return total if isinstance(mu, np.ndarray) or isinstance(lam, np.ndarray) else float(total[0])


def _by_band(mu, lam, generic, contour) -> tuple:
    """``generic`` on the elements off the equal-rates band and ``contour``
    on those in it, put back in place.  Each gets a function that restricts
    an elementwise argument to its own elements and returns a tuple of
    elementwise values; neither runs on the other's elements."""
    band = _near_diagonal(mu, lam)
    if not _any(band):
        return generic(_whole)
    if _all(band):
        return contour(_whole)
    off, on = np.flatnonzero(~band), np.flatnonzero(band)
    parts = [branch(lambda v, rows=rows: v[rows] if isinstance(v, np.ndarray) else v)
             for branch, rows in ((generic, off), (contour, on))]
    out = []
    for generic_part, contour_part in zip(*parts):
        full = np.empty(band.shape)
        full[off], full[on] = generic_part, contour_part
        out.append(full)
    return tuple(out)


def _whole(value):
    return value


# ---------------------------------------------------------------------------
# First moments
# ---------------------------------------------------------------------------


def _taylor_mean(w, mu, n: int):
    """sum_{i<n} mu^i/i! (-1)^i w^(i)(mu) for w = 1/(1-L)."""
    total = w[0]
    for i in range(1, n):
        total = total + _power(mu, i) / math.factorial(i) * (-1.0) ** i * w[i]
    return total


def mean_inspections(sane: SaneLaw, insp: InspectionLaw):
    """Expected number of inspections charged to one cycle.

    Equals sum_{i<shape} mu^i/i! (-1)^i d^i/ds^i [1/(1-L)](mu); always >= 1.
    """
    n = sane.shape
    (mu,) = _rates(sane)
    return _taylor_mean(law_derivatives(mu, insp, n - 1).inv_one_minus, mu, n)


def failure_probability(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw):
    """P(cycle ends in failure rather than detection).

    One minus the detection probability (1 - L(lam)) * S, with the series
    over inspection indices S = sum_k E[exp(-lam D_k) int_0^{D_k}
    exp(lam t) dF_s(t)]; exact for the absolutely continuous damage-time
    laws supported here.
    """
    n = sane.shape
    mu, lam = _rates(sane, damage)
    at_mu = law_derivatives(mu, insp, n - 1)
    at_lam = law_derivatives(lam, insp, 0)

    def generic(pick) -> tuple:
        psi = [pick(v) for v in at_mu.gain]
        return (_indexed_series_sum(n, psi, pick(at_lam.gain[0]), pick(mu), pick(lam)),)

    def contour(pick) -> tuple:
        return (_circle_sum(_circle_values(pick(mu), insp)[0], n, pick(mu), pick(lam)),)

    (series,) = _by_band(mu, lam, generic, contour)
    return 1.0 - at_lam.one_minus * series


# ---------------------------------------------------------------------------
# Second-moment bundle and sensitivities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleMoments:
    """First and second moments of one renewal cycle (elementwise arrays
    for arrays of rates).

    ``mean_cycle_on_failure`` is E[length * failed-indicator] (the cycle
    length equals the failure time on failure cycles) and
    ``mean_inspections_detected`` is E[inspections * detected-indicator];
    the covariances follow from these and the plain means.
    """

    mean_inspections: float
    failure_prob: float
    mean_cycle: float
    mean_inspections_sq: float
    mean_cycle_sq: float
    cov_cycle_failure: float
    cov_inspections_failure: float
    cov_inspections_cycle: float
    mean_cycle_on_failure: float
    mean_inspections_detected: float

    @property
    def var_cycle(self) -> float:
        return self.mean_cycle_sq - _power(self.mean_cycle, 2)

    @property
    def var_inspections(self) -> float:
        return self.mean_inspections_sq - _power(self.mean_inspections, 2)

    @property
    def var_failure(self) -> float:
        return self.failure_prob * (1.0 - self.failure_prob)


@dataclass(frozen=True)
class Sensitivities:
    """Derivatives of the invertible maps behind the count-ratio estimator.

    ``dmk_dmu`` is d(mean inspections)/d(damage rate) and is negative;
    ``dpd_dlambda`` is d(failure probability)/d(failure rate) and is
    positive.
    """

    dmk_dmu: float
    dpd_dmu: float
    dpd_dlambda: float


def _closed_forms(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw
) -> tuple[CycleMoments, Sensitivities]:
    """The cycle moments and the sensitivities at one rate pair, from one
    jet per rate and one band split: the plain series S_n, its slope in lam
    and S_(n+1) serve both."""
    n = sane.shape
    mu, lam = _rates(sane, damage)
    at_mu = law_derivatives(mu, insp, n)
    at_lam = law_derivatives(lam, insp, 1)
    oml = at_lam.one_minus
    l_lam = at_lam.laplace[0]
    lp_lam = at_lam.laplace[1]

    def generic(pick) -> tuple:
        m, l = pick(mu), pick(lam)
        psi, psi_lam = [pick(v) for v in at_mu.gain], [pick(v) for v in at_lam.gain]
        plain, slope = _indexed_series_sum(n, psi, psi_lam[0], m, l, psi_lam[1])
        weighted = _indexed_series_sum(n, [pick(v) for v in at_mu.gain_sq],
                                       pick(at_lam.gain_sq[0]), m, l)
        first_age = _indexed_series_sum(n, [-v for v in psi[1:]], -psi_lam[1], m, l)
        return plain, weighted, first_age, slope, _indexed_series_sum(n + 1, psi, psi_lam[0], m, l)

    def contour(pick) -> tuple:
        # (-psi')[mu (n times), lam] = -n psi[mu (n+1 times), lam]
        # - psi[mu (n times), lam, lam], integrating by parts on the circle
        m, l = pick(mu), pick(lam)
        psi, one_minus = _circle_values(m, insp)
        plain_next = _circle_sum(psi, n + 1, m, l)
        scaled_slope = _circle_sum(psi, n, m, l, True)
        return (_circle_sum(psi, n, m, l), _circle_sum(_cdiv(psi, one_minus), n, m, l),
                (n * plain_next - scaled_slope) / m, scaled_slope / m, plain_next)

    plain, weighted, first_age, slope, plain_next = _by_band(mu, lam, generic, contour)

    detect = oml * plain
    p_fail = 1.0 - detect

    mk = _taylor_mean(at_mu.inv_one_minus, mu, n)
    mk_next = _taylor_mean(at_mu.inv_one_minus, mu, n + 1)
    mx = n / mu + p_fail / lam

    e_k_sq = mk
    for i in range(n):
        e_k_sq = e_k_sq + 2.0 * _power(mu, i) / math.factorial(i) * (-1.0) ** i * at_mu.gain_sq[i]

    # E[inspections on detected cycles]: the weighted series collects the
    # k-th term of the detection decomposition, the geometric tail supplies
    # the rest.
    e_k_detected = oml * weighted - l_lam * detect / oml

    # Mean inspection age weighted by no-failure survival,
    # E[D_K exp(-lam (D_K - damage time))]; enters the failure-restricted
    # cycle-length moment below.
    age_weighted = oml * first_age + lp_lam * detect / oml

    e_x_on_fail = p_fail / lam + n / mu - age_weighted
    e_x_sq = n * (n + 1) / _power(mu, 2) + 2.0 * e_x_on_fail / lam

    cov_xi = e_x_on_fail - mx * p_fail
    cov_ki = detect * mk - e_k_detected
    cov_kx = (n / mu) * mk_next + (1.0 / lam - mx) * mk - e_k_detected / lam

    moments = CycleMoments(
        mean_inspections=mk,
        failure_prob=p_fail,
        mean_cycle=mx,
        mean_inspections_sq=e_k_sq,
        mean_cycle_sq=e_x_sq,
        cov_cycle_failure=cov_xi,
        cov_inspections_failure=cov_ki,
        cov_inspections_cycle=cov_kx,
        mean_cycle_on_failure=e_x_on_fail,
        mean_inspections_detected=e_k_detected,
    )
    return moments, Sensitivities(
        dmk_dmu=_power(-mu, n - 1) / math.factorial(n - 1) * at_mu.inv_one_minus[n],
        dpd_dmu=-oml * n * (plain - plain_next) / mu,
        dpd_dlambda=lp_lam * plain - oml * slope,
    )


def cycle_moments(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> CycleMoments:
    return _closed_forms(sane, damage, insp)[0]


def parameter_sensitivities(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw
) -> Sensitivities:
    """Derivatives (dmk/dmu, dpd/dmu, dpd/dlambda) of the estimating maps.

    Each comes from the jets that define the map, one Taylor order up;
    nothing is differentiated by hand.  With w = 1/(1-L), the
    mean-inspections sum telescopes under d/dmu to its last term,
    (-mu)^(n-1)/(n-1)! w^(n)(mu).  The failure probability is
    1 - (1-L(lam)) S_n with S_n = (-mu)^n psi[mu (n times), lam] the plain
    series of psi = L/(1-L), so d/dlambda takes the series' own slope and
    dS_n/dmu = n (S_n - S_{n+1}) / mu exactly.  In the equal-rates band all
    three series are trapezoid sums over the same nodes; the slope's kernel
    is the plain one squared.
    """
    return _closed_forms(sane, damage, insp)[1]


# ---------------------------------------------------------------------------
# Count-rate CLT matrix
# ---------------------------------------------------------------------------


def _matrices(rows: list) -> np.ndarray:
    """Nested lists of elementwise entries as a matrix, or as one matrix per
    element (element axis first) for entries that are arrays."""
    matrix = np.array(rows)
    return matrix if matrix.ndim == 2 else np.moveaxis(matrix, -1, 0)


def _rate_covariance(moments: CycleMoments) -> list:
    """Assemble the 3x3 limit covariance of (repair, failure, inspection)
    count rates from per-cycle moments, without consistency checks, as
    nested lists of elementwise entries."""
    var_x, cov_xi = moments.var_cycle, moments.cov_cycle_failure
    var_i, var_k = moments.var_failure, moments.var_inspections
    cov_xk, cov_ik = moments.cov_inspections_cycle, moments.cov_inspections_failure
    p_fail, mk, mx = moments.failure_prob, moments.mean_inspections, moments.mean_cycle
    mx_sq = _power(mx, 2)
    r11 = var_x
    r12 = p_fail * var_x - mx * cov_xi
    r13 = mk * var_x - mx * cov_xk
    r22 = _power(p_fail, 2) * var_x - 2.0 * p_fail * mx * cov_xi + mx_sq * var_i
    r23 = (
        p_fail * mk * var_x
        - p_fail * mx * cov_xk
        - mk * mx * cov_xi
        + mx_sq * cov_ik
    )
    r33 = _power(mk, 2) * var_x - 2.0 * mk * mx * cov_xk + mx_sq * var_k
    mx_cube = _power(mx, 3)
    return [[r / mx_cube for r in row] for row in ((r11, r12, r13), (r12, r22, r23), (r13, r23, r33))]


def _variance_problems(moments: CycleMoments) -> list:
    """Per element, why the moments are inconsistent (a negative variance),
    or None."""
    tol = -1e-10
    names = ("cycle length", "failure indicator", "inspection count")
    negative = zip(*(_elements(v < tol * scale) for v, scale in (
        (moments.var_cycle, moments.mean_cycle_sq),
        (moments.var_failure, 1.0),
        (moments.var_inspections, moments.mean_inspections_sq),
    )))
    # the first failing quantity names the problem
    return [
        next((f"inconsistent moments: negative variance of {name}"
              for name, bad in zip(names, flags) if bad), None)
        for flags in negative
    ]


def _raise_first(problems: list) -> None:
    for problem in problems:
        if problem is not None:
            raise ValueError(problem)


def count_rate_covariance(moments: CycleMoments) -> np.ndarray:
    """Limit covariance of sqrt(t)-scaled (repair, failure, inspection)
    count rates.

    Rows and columns are ordered (repairs, failures, inspections); entries
    are assembled from the per-cycle moments by bilinearity and scaled by
    mean_cycle^-3.  Moments of arrays of rates give one matrix per element
    (element axis first).
    """
    _raise_first(_variance_problems(moments))
    return _matrices(_rate_covariance(moments))


# ---------------------------------------------------------------------------
# Estimator covariance (delta method)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceBundle:
    """Count-rate covariance, the estimator linearization, and their product.

    ``param_cov`` scales like t * Var(estimates): the confidence half-width
    at level z is z * sqrt(param_cov[i, i] / t).  For arrays of rates each
    field holds one matrix per element, element axis first.
    """

    counts_cov: np.ndarray
    jacobian: np.ndarray
    param_cov: np.ndarray


def _sandwich(jac: list, cov: list) -> list:
    """jac @ cov @ jac.T for a 2x3 and a 3x3 matrix of elementwise entries,
    every sum in index order."""
    left = [[jac[a][0] * cov[0][c] + jac[a][1] * cov[1][c] + jac[a][2] * cov[2][c]
             for c in range(3)] for a in range(2)]
    return [[left[a][0] * jac[b][0] + left[a][1] * jac[b][1] + left[a][2] * jac[b][2]
             for b in range(2)] for a in range(2)]


def _covariance_bundle(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw, convention: str
) -> tuple[Optional[CovarianceBundle], list]:
    """The bundle of :func:`estimator_covariance` at every element, and per
    element the reason it is not defined there (None where it is); at a
    single element where it is not defined, no bundle."""
    if convention not in ("delta", "tabulated"):
        raise ValueError(f"unknown convention {convention!r}")
    moments, sens = _closed_forms(sane, damage, insp)
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    fp, gm, gl = sens.dmk_dmu, sens.dpd_dmu, sens.dpd_dlambda
    problems = _variance_problems(moments) if convention == "delta" else [None] * len(
        _elements(mx))
    flat = _elements(abs(gl) < 1e-14 * np.fmax(abs(pd), 1e-300))
    problems = [
        "failure rate not identifiable: flat failure probability" if f else p
        for p, f in zip(problems, flat)
    ]
    if not isinstance(mx, np.ndarray) and problems[0] is not None:
        return None, problems
    # elements where the bundle is not defined may divide by zero here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if convention == "delta":
            jac = [
                [-mx * mk / fp, 0.0 * mx, mx / fp],
                [mx * (mk * gm / fp - pd) / gl, mx / gl, -mx * gm / (fp * gl)],
            ]
        else:
            n = sane.shape
            mu, lam = _rates(sane, damage)
            at_lam = law_derivatives(lam, insp, 1)
            detect = 1.0 - pd
            on_fail = pd / lam + n / mu - at_lam.laplace[1] / at_lam.one_minus * detect
            # the reference tables' cycle-length moments replace the consistent ones
            moments = replace(moments,
                              mean_cycle_sq=n * (n + 1) / _power(mu, 2) + 2.0 * on_fail / lam,
                              cov_cycle_failure=on_fail - mk * pd)
            scale = mx / fp
            jac = [
                [scale * -mk, scale * 1.0, scale * 0.0],
                [scale * (mk * gm / gl - pd * fp / gl), scale * (-gm / gl),
                 scale * (fp / (mx * gl))],
            ]
        rate_cov = _rate_covariance(moments)
        param_cov = _sandwich(jac, rate_cov)
    return CovarianceBundle(_matrices(rate_cov), _matrices(jac), _matrices(param_cov)), problems


def estimator_covariance(
    sane: SaneLaw,
    damage: DamageLaw,
    insp: InspectionLaw,
    convention: str = "delta",
) -> CovarianceBundle:
    """Asymptotic covariance of the count-ratio estimates of the two rates.

    ``delta`` (default) linearizes the estimator exactly: the jacobian rows
    are the derivatives of (mu, lam) = (inverse mean-inspections map,
    inverse failure-probability map) applied to the three count rates, and
    the count covariance comes from the consistent moment set.  Intervals
    built from it achieve nominal coverage.

    ``tabulated`` reproduces the interval widths of the bundled reference
    tables (see the ``estimate --reproduce`` presets).  Those tables were
    generated with a different set of conventions: a first-moment variant
    of the failure-restricted cycle moment, the mean-inspections weight on
    the cycle/failure covariance, an identity-scaled third jacobian column,
    and failure/inspection columns transposed relative to the count
    ordering.  It is provided for reproduction only; its off-convention
    moment matrix is not checked for consistency.

    For arrays of rates each field holds one matrix per element; a
    ValueError names the first element where the bundle is not defined.
    """
    bundle, problems = _covariance_bundle(sane, damage, insp, convention)
    _raise_first(problems)
    return bundle


# ---------------------------------------------------------------------------
# Shared censored-window integral
# ---------------------------------------------------------------------------


def _window_sums(a, b, n: int, theta: float, orders: int) -> list:
    """P_r = int_0^(b-a) w^r (b-w)^(n-1) exp(theta w) dw for r = 0..orders.

    (b-w)^(n-1) is expanded binomially about b, so every P_r is a weighted
    sum of the moments m_r..m_(r+n-1) from one moments pass.
    """
    # an array even for scalar ends: the engine takes two floats in floats
    gap = np.asarray(b - a)
    moments = _exp_poly_moments(gap, theta, n - 1 + orders)
    weights = [math.comb(n - 1, i) * (-1.0) ** i * b ** (n - 1 - i) for i in range(n)]
    sums = []
    for r in range(orders + 1):
        inner = np.zeros_like(gap)
        for i, weight in enumerate(weights):
            inner += weight * moments[i + r]
        sums.append(inner)
    return sums


def detection_window_integral(a, b, sane: SaneLaw, damage: DamageLaw):
    """int_a^b exp(-lam (b - u)) dF_s(u): damage in (a, b], no failure by b.

    Closed form through the polynomial-times-exponential moments at rate
    mu - lam, organized around exp(-mu b) so nothing overflows while the
    rate difference sweeps sign.  Accepts scalar or array endpoints.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, mu, lam = sane.shape, sane.rate, damage.rate
    (inner,) = _window_sums(a, b, n, mu - lam, 0)
    out = mu**n / math.factorial(n - 1) * np.exp(-mu * b) * inner
    return out if out.ndim else float(out)


def window_moments(a, b, sane: SaneLaw, damage: DamageLaw) -> tuple:
    """Log of :func:`detection_window_integral` with the posterior mean and
    variance of the damage-to-window-end time, elementwise.

    Under the normalized integrand exp(-lam (b - u)) dF_s(u) on (a, b], the
    damage age u has mean b - mean and variance var; the censored
    likelihood's score and Hessian are sums of these (Louis's identity:
    observed = complete-data minus missing information).  Value, mean and
    variance come from one moments pass to order shape + 1, and the log
    is taken term by term, so exp(-mu b) cannot underflow.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, mu, lam = sane.shape, sane.rate, damage.rate
    p0, p1, p2 = _window_sums(a, b, n, mu - lam, 2)
    log_value = n * math.log(mu) - math.lgamma(n) - mu * b + np.log(p0)
    mean = p1 / p0
    return log_value, mean, p2 / p0 - mean * mean

"""Closed-form renewal quantities for the maintained three-state system.

Everything here is an exact expression in the inspection-gap Laplace
transform L and its derivatives at the damage rate ``mu`` (and at the
failure rate ``lam``).  Every closed form reads one jet format: the Taylor
coefficients about a rate x of L, 1/(1-L) and L/(1-L), scaled by x^k,
t_k = h^(k)(x) x^k / k!, from one pass of ``laws._transform`` at anchor 1
for the gap times x (see ``_jet``).  They have no time unit, so a closed
form computes the same bits in every unit and takes its dimension from
one division by a rate at the end.  There is no quadrature on the real
line and no symbolic algebra.

The inspection series are (-mu)^n h[mu (n times), lam], divided
differences of h = L/(1-L) (and of its kin) at the rate pair.  With
eps = (lam - mu)/mu and the scaled coefficients h_k of h about mu, off
the equal-rates band they are (-1/eps)^n (h(lam) - sum_(j<n) h_j eps^j);
within |lam - mu| <= mu/4 (see ``_near_diagonal``), where that division
by eps^n cancels, they are the Taylor sums (-1)^n sum_m h_(n+m) eps^m of
the same coefficients, read to N more orders from one jet at mu.  Both
are summed by Horner's rule.  The parameter sensitivities come from the
same series, not from hand-differentiated copies of them, and from the
same jets as the cycle moments: one jet per rate and one band split give
both.

Every closed form is elementwise over laws with arrays of rates, and
with scalar rates the same code computes in Python floats, so a lone
element is never boxed into an array.  Each element gets the bits it
gets alone: sums run term by term in index order (no ``np.dot`` or
``@``, whose BLAS kernels sum in their own order), ``exp`` and ``expm1``
are the C library's scalar routines, not numpy's SIMD loops (taken
through ``laws._libm``), and integer powers are running products, which
round the same in floats and in arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Optional

import numpy as np

from .laws import (
    DamageLaw,
    InspectionLaw,
    SaneLaw,
    _all,
    _any,
    _batch,
    _exp_poly_moments,
    _transform,
    _value,
)

# N, the terms of each equal-rates series (see _near_diagonal).
_BAND_TERMS = 32


def _near_diagonal(mu, lam):
    # The band's series sum T_(n+m) eps^m, m < N, eps = (lam - mu)/mu, over
    # the Taylor coefficients of psi = L/(1-L) about mu scaled by mu^k.
    # psi's nearest singularity is its pole at s = 0, mu away, so the T_k
    # stay near 1/(mu c) at every order, and with |eps| <= 1/4 the terms
    # left out are 4^-N relative; for lam < mu, psi's complete monotonicity
    # makes every term the same sign.  Outside, the generic branch's
    # division by eps^shape costs a few 1e-10 relative at shape 4 and
    # mu*c = 1e-4 (up to 2e-9 at lam/mu = 0.74); at mu/8 it would cost
    # 7e-9.
    return abs(lam - mu) <= 0.25 * mu


# ---------------------------------------------------------------------------
# Jets: scaled Taylor coefficients and their series arithmetic
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


def _jet(rate, insp: InspectionLaw, order: int) -> tuple:
    """(L, 1 - L, w, psi) at ``rate`` (a float, or an array of rates): the
    Taylor coefficients of L, w = 1/(1-L) and psi = L/(1-L) about the rate
    scaled by rate^k, t_k = h^(k)(rate) rate^k / k! for k = 0..order, each
    a tuple of rows, and 1 - L without cancellation.  One pass of
    ``laws._transform`` at anchor 1 for the gap times the rate, computed
    afresh on every call."""
    # From rate (c - h) = 1e3 on, exp(-rate (c - h)) = 0 zeroes every row of L
    # and leaves 1 - L = 1, while the rows' powers of rate c would overflow
    scale = _value(np.minimum(rate, 1e3 / (insp.spacing - insp.half_width)))
    rows, one_minus = _transform(1.0, insp, order, scale)
    # i! as a float: numpy before 2.0 boxes an int past 2^64 as an object
    laplace = [v / float(math.factorial(i)) for i, v in enumerate(rows)]
    # The order-0 coefficient of 1-L is its own cancellation-free value;
    # the higher coefficients are exact sign flips.
    w = _series_reciprocal([one_minus] + [-v for v in laplace[1:]])
    return tuple(laplace), one_minus, tuple(w), tuple(_series_mul(laplace, w))


# ---------------------------------------------------------------------------
# The inspection series (two Laplace-transform series and a first-moment kin)
# ---------------------------------------------------------------------------


def _horner(h, eps, slope: bool = False):
    """sum_k h[k] eps^k by Horner's rule; with ``slope``, its derivative
    in eps, sum_k k h[k] eps^(k-1), term by term."""
    acc = 0.0
    for k in range(len(h) - 1, 0 if slope else -1, -1):
        acc = acc * eps + (k * h[k] if slope else h[k])
    return acc


def _rho(eps, n: int):
    """(-1/eps)^n, a running product."""
    ratio = -1.0 / eps
    out = ratio
    for _ in range(n - 1):
        out = out * ratio
    return out


def _off_band(h: list, at_lam, n: int, eps):
    """(-mu)^n h[mu (n times), lam] off the equal-rates band, from h's
    Taylor coefficients about mu scaled by mu^k and its value at lam:
    (-1/eps)^n (h(lam) - sum_(j<n) h_j eps^j), which reads the
    coefficients to order n - 1 only.  Horner's rule takes h(lam) - h_0
    as the constant term, the difference that holds the series' digits."""
    return _rho(eps, n) * _horner([at_lam - h[0], *(-v for v in h[1:n])], eps)


def _band_sum(h: list, n: int, eps, slope: bool = False):
    """(-mu)^n h[mu (n times), lam] in the equal-rates band, from h's
    Taylor coefficients about mu scaled by mu^k: (-1)^n sum_(m<N) h_(n+m)
    eps^m.  ``slope`` sums the derivative in eps term by term instead, mu
    times the slope in lam."""
    acc = _horner(h[n:n + _BAND_TERMS], eps, slope)
    return -acc if n % 2 else acc


def _by_band(mu, lam, generic, in_band) -> tuple:
    """``generic`` on the elements off the equal-rates band and ``in_band``
    on those in it, put back in place.  Each gets a function that restricts
    an elementwise argument to its own elements and returns a tuple of
    elementwise values; neither runs on the other's elements."""
    band = _near_diagonal(mu, lam)
    if not _any(band):
        return generic(_whole)
    if _all(band):
        return in_band(_whole)
    off, on = np.flatnonzero(~band), np.flatnonzero(band)
    parts = [branch(lambda v, rows=rows: v[rows] if isinstance(v, np.ndarray) else v)
             for branch, rows in ((generic, off), (in_band, on))]
    out = []
    for generic_part, band_part in zip(*parts):
        full = np.empty(band.shape)
        full[off], full[on] = generic_part, band_part
        out.append(full)
    return tuple(out)


def _whole(value):
    return value


# ---------------------------------------------------------------------------
# First moments
# ---------------------------------------------------------------------------


def mean_inspections(sane: SaneLaw, insp: InspectionLaw):
    """Expected number of inspections charged to one cycle.

    Equals sum_{i<shape} (-1)^i w_i over the scaled Taylor coefficients
    w_i = mu^i/i! d^i/ds^i [1/(1-L)](mu): the Taylor polynomial of
    1/(1-L) about mu, at 0.  Always >= 1.
    """
    return _estimating_maps(sane, insp)[0]


def failure_probability(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw):
    """P(cycle ends in failure rather than detection).

    One minus the detection probability (1 - L(lam)) * S, with the series
    over inspection indices S = sum_k E[exp(-lam D_k) int_0^{D_k}
    exp(lam t) dF_s(t)]; exact for the absolutely continuous damage-time
    laws supported here.
    """
    return _estimating_maps(sane, insp)[1](damage.rate)


def _estimating_maps(sane: SaneLaw, insp: InspectionLaw) -> tuple:
    """Both estimating maps at the damage rates of ``sane`` from one jet
    there, which a search that keeps its damage rate pays for once:
    :func:`mean_inspections`, and :func:`failure_probability` as a function
    ``f(lam, rows=None)`` of the failure rate on the elements ``rows`` (a
    list of indices, all when None; one row computes in floats).  The
    equal-rates band's jet, to order shape + N, is built at every damage
    rate of the map on the first call where an element enters the band,
    and each later call restricts it to its elements as it restricts the
    jet to order shape - 1.
    """
    n, mu = sane.shape, sane.rate
    _, _, w, psi_mu = _jet(mu, insp, n - 1)
    band_jet: list = []  # psi's to order shape + N at every damage rate, once built

    def failure(lam, rows: Optional[list] = None):
        def take(v):
            return v if rows is None or not isinstance(v, np.ndarray) else _batch(v[rows])

        m, psi = take(mu), [take(v) for v in psi_mu]
        _, one_minus, _, psi_lam = _jet(lam, insp, 0)
        eps = (lam - m) / m

        def generic(pick) -> tuple:
            return (_off_band([pick(v) for v in psi], pick(psi_lam[0]), n, pick(eps)),)

        def in_band(pick) -> tuple:
            if not band_jet:
                band_jet.extend(_jet(mu, insp, n + _BAND_TERMS)[3])
            return (_band_sum([pick(take(v)) for v in band_jet], n, pick(eps)),)

        (series,) = _by_band(m, lam, generic, in_band)
        return 1.0 - one_minus * series

    return _horner(w[:n], -1.0), failure


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
        return self.mean_cycle_sq - self.mean_cycle * self.mean_cycle

    @property
    def var_inspections(self) -> float:
        return self.mean_inspections_sq - self.mean_inspections * self.mean_inspections

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
) -> tuple[CycleMoments, Sensitivities, tuple]:
    """The cycle moments and the sensitivities at one rate pair, from one
    jet per rate and one band split: the plain series S_n, its slope in lam
    and S_(n+1) serve both.  The jet at lam, to order 1, comes last."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    _, _, w, psi_mu = _jet(mu, insp, n)
    at_lam = _jet(lam, insp, 1)
    (l_lam, lp_scaled), oml, w_lam, psi_lam = at_lam
    lp_lam = lp_scaled / lam  # L'(lam)
    sq_mu = _series_mul(psi_mu, w)  # L/(1-L)^2
    eps = (lam - mu) / mu

    def generic(pick) -> tuple:
        m, e, lp, l, om = pick(mu), pick(eps), pick(lp_lam), pick(l_lam), pick(oml)
        psi, at = [pick(v) for v in psi_mu], pick(psi_lam[0])
        plain = _off_band(psi, at, n, e)
        rho, head, head_slope = _rho(e, n), _horner(psi[:n], e), _horner(psi[:n], e, True)
        # mu dS_n/dlam, the slope in eps of (-1/eps)^n (psi(lam) - P(eps)),
        # P the Taylor polynomial of psi of degree n - 1 about mu
        scaled_slope = rho * (m * pick(psi_lam[1]) / pick(lam) - head_slope) - n * plain / e
        # dp/dlam with (1 - L(lam)) psi(lam) read as L(lam): psi(lam), near
        # 1/(lam c) at small lam c, never enters, so nothing large cancels
        dpd = rho * (om * head_slope - m * lp * (1.0 + head) + n * (l - om * head) / e) / m
        weighted = _off_band([pick(v) for v in sq_mu], pick(psi_lam[0] * w_lam[0]), n, e)
        return plain, weighted, scaled_slope, _off_band(psi, at, n + 1, e), dpd

    def in_band(pick) -> tuple:
        m = pick(mu)
        e = pick(eps)
        _, _, w_band, psi = _jet(m, insp, n + _BAND_TERMS)
        plain = _band_sum(psi, n, e)
        scaled_slope = _band_sum(psi, n, e, slope=True)
        return (plain, _band_sum(_series_mul(psi, w_band), n, e), scaled_slope,
                _band_sum(psi, n + 1, e), pick(lp_lam) * plain - pick(oml) * scaled_slope / m)

    plain, weighted, scaled_slope, plain_next, dpd_dlambda = _by_band(mu, lam, generic, in_band)

    detect = oml * plain
    p_fail = 1.0 - detect

    mk = _horner(w[:n], -1.0)
    mx = n / mu + p_fail / lam
    e_k_sq = mk + 2.0 * _horner(sq_mu[:n], -1.0)

    # E[inspections on detected cycles]: the weighted series collects the
    # k-th term of the detection decomposition, the geometric tail supplies
    # the rest.
    e_k_detected = oml * weighted - l_lam * detect / oml

    # Mean inspection age weighted by no-failure survival,
    # E[D_K exp(-lam (D_K - damage time))], from the series of -psi':
    # (-mu)^n (-psi')[mu (n times), lam] = (n S_(n+1) - mu dS_n/dlam) / mu.
    # It enters the failure-restricted cycle-length moment below.
    age_weighted = oml * (n * plain_next - scaled_slope) / mu + lp_lam * detect / oml

    e_x_on_fail = p_fail / lam + n / mu - age_weighted
    e_x_sq = n * (n + 1) / mu / mu + 2.0 * e_x_on_fail / lam

    cov_xi = e_x_on_fail - mx * p_fail
    cov_ki = detect * mk - e_k_detected
    cov_kx = (n / mu) * _horner(w[:n + 1], -1.0) + (1.0 / lam - mx) * mk - e_k_detected / lam

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
        dmk_dmu=(n * w[n] if n % 2 else -n * w[n]) / mu,
        dpd_dmu=-oml * n * (plain - plain_next) / mu,
        dpd_dlambda=dpd_dlambda,
    ), at_lam


def cycle_moments(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> CycleMoments:
    return _closed_forms(sane, damage, insp)[0]


def parameter_sensitivities(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw
) -> Sensitivities:
    """Derivatives (dmk/dmu, dpd/dmu, dpd/dlambda) of the estimating maps.

    Each comes from the jets that define the map, one Taylor order up;
    nothing is differentiated by hand.  With w = 1/(1-L), the
    mean-inspections sum telescopes under d/dmu to its last term,
    (-1)^(n-1) n w_n / mu over the scaled coefficient w_n.  The failure
    probability is p = 1 - (1-L(lam)) S_n with S_n = (-mu)^n psi[mu (n
    times), lam] the plain series of psi = L/(1-L), so dS_n/dmu = n (S_n -
    S_(n+1)) / mu exactly.  Off the equal-rates band, with rho =
    (-1/eps)^n and P the Taylor polynomial of psi of degree n - 1 about
    mu, (1-L(lam)) psi(lam) = L(lam) gives dp/dlam = rho [(1-L) P'(eps)/mu
    - L'(lam) (1 + P(eps)) + n (L(lam) - (1-L) P(eps))/(eps mu)], free of
    psi(lam).  In the band all three series are Taylor sums in eps over
    the coefficients of one jet at mu, dp/dlam = L'(lam) S_n - (1-L(lam))
    dS_n/dlam, and the slope is the plain sum's derivative term by term.
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
    mx_sq = mx * mx
    r11 = var_x
    r12 = p_fail * var_x - mx * cov_xi
    r13 = mk * var_x - mx * cov_xk
    r22 = p_fail * p_fail * var_x - 2.0 * p_fail * mx * cov_xi + mx_sq * var_i
    r23 = (
        p_fail * mk * var_x
        - p_fail * mx * cov_xk
        - mk * mx * cov_xi
        + mx_sq * cov_ik
    )
    r33 = mk * mk * var_x - 2.0 * mk * mx * cov_xk + mx_sq * var_k
    mx_cube = mx_sq * mx
    return [[r / mx_cube for r in row] for row in ((r11, r12, r13), (r12, r22, r23), (r13, r23, r33))]


def _variance_problems(moments: CycleMoments) -> list:
    """Per element, why the moments are inconsistent (a negative variance),
    or None."""
    tol = -1e-10
    names = ("cycle length", "failure indicator", "inspection count")
    negative = zip(*(np.atleast_1d(v < tol * scale).tolist() for v, scale in (
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


# The interval conventions of :func:`estimator_covariance`.
CONVENTIONS = ("delta", "tabulated")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


# The failure-rate search's absolute tolerance on a failure probability; a
# probability flatter than it in log lam leaves the failure rate unidentified.
_FAILURE_PROB_ATOL = 1e-12


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
    _check_convention(convention)
    moments, sens, at_lam = _closed_forms(sane, damage, insp)
    if not isinstance(moments.mean_cycle, np.ndarray):
        # numpy floats at one element, so that a product underflowing to zero
        # divides there as in a batch (under the errstate below), not raising
        moments, sens = (type(v)(*map(np.float64, astuple(v))) for v in (moments, sens))
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    fp, gm, gl = sens.dmk_dmu, sens.dpd_dmu, sens.dpd_dlambda
    problems = _variance_problems(moments) if convention == "delta" else [None] * np.size(mx)
    flat = np.atleast_1d(damage.rate * abs(gl) < _FAILURE_PROB_ATOL).tolist()
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
            n, mu, lam = sane.shape, sane.rate, damage.rate
            detect = 1.0 - pd
            (_, lp_scaled), one_minus = at_lam[:2]
            on_fail = pd / lam + n / mu - lp_scaled / lam / one_minus * detect
            # the reference tables' cycle-length moments replace the consistent ones
            moments = replace(moments,
                              mean_cycle_sq=n * (n + 1) / mu / mu + 2.0 * on_fail / lam,
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
    sum of the moments m_r..m_(r+n-1) from one moments pass at one rate.
    """
    if isinstance(theta, np.ndarray):
        raise ValueError("the window integrals take one rate per law, not arrays of rates")
    # an array even for scalar ends: the engine takes a float gap in floats
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
    rate difference sweeps sign.  Scalar or array endpoints, one rate per law.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, mu, lam = sane.shape, sane.rate, damage.rate
    (inner,) = _window_sums(a, b, n, mu - lam, 0)
    out = mu**n / math.factorial(n - 1) * np.exp(-mu * b) * inner
    return out if out.ndim else float(out)


def window_moments(a, b, sane: SaneLaw, damage: DamageLaw) -> tuple:
    """Log of :func:`detection_window_integral` with the posterior mean and
    variance of the damage-to-window-end time in units of 1/mu, per window.

    Under the normalized integrand exp(-lam (b - u)) dF_s(u) on (a, b], the
    damage age u has mean b - mean/mu and variance var/mu^2; the censored
    likelihood's score and Hessian are sums of these (Louis's identity:
    observed = complete-data minus missing information).  Value, mean and
    variance come from one moments pass to order shape + 1 on the windows
    mu a to mu b, at the one rate 1 - lam/mu.  These have no time unit, so
    the powers of the window lengths to order shape + 1 take the same
    values in every unit, and mu^shape cancels out of the log.  The log is
    taken term by term, so exp(-mu b) cannot underflow.
    """
    n, mu, lam = sane.shape, sane.rate, damage.rate
    a, b = mu * np.asarray(a, dtype=float), mu * np.asarray(b, dtype=float)
    p0, p1, p2 = _window_sums(a, b, n, 1.0 - lam / mu, 2)
    mean = p1 / p0
    return np.log(p0) - b - math.lgamma(n), mean, p2 / p0 - mean * mean

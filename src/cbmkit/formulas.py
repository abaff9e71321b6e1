"""Closed-form renewal quantities for the maintained three-state system.

Everything here is an exact expression in the inspection-gap Laplace
transform L and its derivatives at the damage rate ``mu`` (and at the
failure rate ``lam``).  Derivatives of 1/(1-L), L/(1-L) and L/(1-L)^2 are
obtained by truncated-series arithmetic over the jets from
:func:`cbmkit.laws.laplace_jet`; there is no quadrature and no symbolic
algebra.

The rate pair (mu, lam) hits a removable singularity on the diagonal
mu = lam: the generic expressions carry (mu - lam)^-shape factors whose
poles only cancel analytically.  Inside a band around the diagonal (see
``_near_diagonal``) the code switches to a Taylor resummation that is
smooth through the diagonal, so inversion and differentiation stay
accurate there.  Both branches live in ``_indexed_series_sum`` only; the
parameter sensitivities come from the same series carried one Taylor order
further, not from hand-differentiated copies of it.

Every closed form is elementwise over laws with arrays of rates, and
with scalar rates the same code computes in Python floats, so a lone
element is never boxed into an array.  Each element gets the bits it gets
alone: sums run term by term in index order (no ``np.dot`` or ``@``, whose
BLAS kernels sum in their own order), and ``exp``, ``expm1`` and powers
are the C library's scalar routines, not numpy's SIMD loops.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .laws import (
    DERIVATIVE_CAP,
    DamageLaw,
    InspectionLaw,
    SaneLaw,
    _all,
    _any,
    _power,
    _value,
    _where,
    laplace_jet,
    one_minus_laplace,
)

# Relative half-width of the band around mu = lam inside which the diagonal
# expansion must be used (the generic branch cancels to noise there).
EQUAL_RATE_BAND = 1e-6

# Terms kept in the diagonal Taylor resummation; the truncation error is
# O(((lam-mu) * spacing)^4), far below float resolution inside the band.
_DIAGONAL_TERMS = 3

# The moment bundle asks for jets of order shape + _DIAGONAL_TERMS + 1, so
# the derivative cap bounds the gamma shapes the closed forms support.
MAX_SHAPE = DERIVATIVE_CAP - _DIAGONAL_TERMS - 1


def _near_diagonal(mu, lam, shape: int, spacing: float):
    # The generic branch divides by (mu-lam)^shape, losing roughly
    # 16*shape/(shape+4) digits at the crossover; balancing that loss
    # against the O(((mu-lam)*spacing)^4) truncation of the resummation
    # puts the switch at |mu-lam|*spacing = 10^(-16/(shape+4)).  The
    # relative floor keeps exact near-equal inputs on the smooth branch
    # whatever the spacing.
    width = _maximum(EQUAL_RATE_BAND * _maximum(mu, lam), 10.0 ** (-16.0 / (shape + 4)) / spacing)
    return abs(mu - lam) <= width


def _maximum(a, b):
    """The larger of a and b, elementwise."""
    return _where(a >= b, a, b)


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

    anchor: float | np.ndarray
    laplace: tuple
    one_minus: float | np.ndarray
    inv_one_minus: tuple
    gain: tuple
    gain_sq: tuple


def law_derivatives(s, insp: InspectionLaw, order: int) -> LawDerivatives:
    """Derivative bundle of L, 1/(1-L), L/(1-L), L/(1-L)^2 at s.

    A float anchor's bundle is cached (its rows are immutable floats): an
    inversion in the failure rate reads the one at its fixed damage rate at
    every step, and the moment bundle and the sensitivities share theirs.
    """
    x = _value(s)
    if isinstance(x, np.ndarray):
        return _derivatives(x, insp, order)
    return _cached_derivatives(x, insp, order)


def _derivatives(x, insp: InspectionLaw, order: int) -> LawDerivatives:
    laplace = laplace_jet(x, insp, order).coefficients
    taylor = [v / math.factorial(i) for i, v in enumerate(laplace)]
    # The order-0 coefficient of 1-L is rebuilt without cancellation; the
    # higher coefficients are exact sign flips.
    one_minus = one_minus_laplace(x, insp)
    w = _series_reciprocal([one_minus] + [-v for v in taylor[1:]])
    psi = _series_mul(taylor, w)

    def raw(series: list) -> tuple:
        return tuple(v * math.factorial(i) for i, v in enumerate(series))

    return LawDerivatives(x, tuple(laplace), one_minus, raw(w), raw(psi), raw(_series_mul(psi, w)))


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


def _indexed_series_sum(
    n: int,
    mu_derivs,
    at_lam,
    mu,
    lam,
    diagonal,
    slope_at_lam=None,
):
    """sum_k k^w E[exp(-lam D_k) * integral] = (-mu)^n h[mu (n times), lam].

    h is a rational function of L, ``mu_derivs`` its derivatives at mu and
    ``at_lam`` its value at lam.  Generic branch: (mu/(mu-lam))^n (h(lam) -
    sum_{j<n} (mu-lam)^j/j! (-1)^j h^(j)(mu)), which reads ``mu_derivs``
    to order n - 1 only.  ``diagonal`` branch (chosen per element by the
    caller at the sane shape): the same analytic function, resummed as
    mu^n (-1)^n sum_m (lam-mu)^m / (m+n)! h^(m+n)(mu).  In a batch that
    mixes the two, both branches are evaluated for all elements and the
    mask picks; each may overflow or divide by zero on the other's
    elements, harmlessly.  Given ``slope_at_lam`` = h'(lam), returns
    (value, d value / d lam).
    """

    def resummed() -> tuple:
        eps = lam - mu
        powers = [_power(eps, m) for m in range(_DIAGONAL_TERMS + 1)]
        total = d_total = 0.0
        for m in range(_DIAGONAL_TERMS + 1):
            fm = math.factorial(m + n)
            total = total + powers[m] / fm * mu_derivs[m + n]
            if m >= 1:
                d_total = d_total + m * powers[m - 1] / fm * mu_derivs[m + n]
        scale = (-1.0) ** n * _power(mu, n)
        return scale * total, scale * d_total

    def generic() -> tuple:
        rho = _power(mu / (mu - lam), n)
        acc = _taylor_tail(at_lam, mu_derivs, mu, lam, n)
        if slope_at_lam is None:
            return rho * acc, None
        d_acc = _taylor_tail(slope_at_lam, mu_derivs[1:], mu, lam, n - 1)
        return rho * acc, rho * (n / (mu - lam) * acc + d_acc)

    if not _any(diagonal):
        value, slope = generic()
    elif _all(diagonal):
        value, slope = resummed()
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            (on, d_on), (off, d_off) = resummed(), generic()
        value = _where(diagonal, on, off)
        slope = None if slope_at_lam is None else _where(diagonal, d_on, d_off)
    return value if slope_at_lam is None else (value, slope)


def inspection_series(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw, kind: str = "plain"
):
    """The two Laplace-transform series over inspection indices.

    ``plain`` is sum_k E[exp(-lam D_k) int_0^{D_k} exp(lam t) dF_s(t)] and
    satisfies 1 - failure_probability = (1 - L(lam)) * plain for the
    absolutely continuous damage laws supported here.  ``weighted`` carries
    an extra factor k per term and feeds the second-moment bundle.
    """
    if kind not in ("plain", "weighted"):
        raise ValueError(f"kind must be 'plain' or 'weighted', got {kind!r}")
    n = sane.shape
    mu, lam = _rates(sane, damage)
    diagonal = _near_diagonal(mu, lam, n, insp.spacing)
    # the generic branch reads the jet at mu to order n - 1 only
    at_mu = law_derivatives(mu, insp, n + _DIAGONAL_TERMS if _any(diagonal) else n - 1)
    at_lam = law_derivatives(lam, insp, 0)
    h = "gain" if kind == "plain" else "gain_sq"
    return _indexed_series_sum(n, getattr(at_mu, h), getattr(at_lam, h)[0], mu, lam, diagonal)


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

    One minus the detection probability (1 - L(lam)) * plain series, which
    is exact for the absolutely continuous damage-time laws supported here.
    """
    series = inspection_series(sane, damage, insp, "plain")
    return 1.0 - law_derivatives(damage.rate, insp, 0).one_minus * series


def mean_cycle_length(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw):
    """E[cycle length] = mean damage time + failure probability / failure rate."""
    return sane.mean + failure_probability(sane, damage, insp) / damage.rate


# ---------------------------------------------------------------------------
# Second-moment bundle
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


def cycle_moments(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> CycleMoments:
    n = sane.shape
    mu, lam = _rates(sane, damage)
    at_mu = law_derivatives(mu, insp, n + _DIAGONAL_TERMS + 1)
    at_lam = law_derivatives(lam, insp, 1)
    oml = at_lam.one_minus
    l_lam = at_lam.laplace[0]
    lp_lam = at_lam.laplace[1]

    diagonal = _near_diagonal(mu, lam, n, insp.spacing)
    plain = _indexed_series_sum(n, at_mu.gain, at_lam.gain[0], mu, lam, diagonal)
    weighted = _indexed_series_sum(n, at_mu.gain_sq, at_lam.gain_sq[0], mu, lam, diagonal)
    first_age = _indexed_series_sum(
        n, [-v for v in at_mu.gain[1:]], -at_lam.gain[1], mu, lam, diagonal
    )

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

    return CycleMoments(
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




# ---------------------------------------------------------------------------
# Count-rate CLT matrix
# ---------------------------------------------------------------------------


def _matrices(rows: list) -> np.ndarray:
    """Nested lists of elementwise entries as a matrix, or as one matrix per
    element (element axis first) for entries that are arrays."""
    matrix = np.array(rows)
    return matrix if matrix.ndim == 2 else np.moveaxis(matrix, -1, 0)


def _rate_covariance(moments: CycleMoments, var_x=None, cov_xi=None) -> list:
    """Assemble the 3x3 limit covariance of (repair, failure, inspection)
    count rates from per-cycle moments (with the cycle-length variance and
    cycle/failure covariance replaced where given), without consistency
    checks, as nested lists of elementwise entries."""
    var_x = moments.var_cycle if var_x is None else var_x
    cov_xi = moments.cov_cycle_failure if cov_xi is None else cov_xi
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
# Sensitivities
# ---------------------------------------------------------------------------


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
    dS_n/dmu = n (S_n - S_{n+1}) / mu exactly.  S_n and S_{n+1} share the
    branch chosen at shape n, which keeps all three uniformly accurate
    through the equal-rates diagonal for every supported shape.
    """
    n = sane.shape
    mu, lam = _rates(sane, damage)
    diagonal = _near_diagonal(mu, lam, n, insp.spacing)
    at_mu = law_derivatives(mu, insp, n + _DIAGONAL_TERMS + 1)
    at_lam = law_derivatives(lam, insp, 1)
    oml = at_lam.one_minus
    psi, psi_lam = at_mu.gain, at_lam.gain
    plain, slope = _indexed_series_sum(n, psi, psi_lam[0], mu, lam, diagonal, psi_lam[1])
    plain_next = _indexed_series_sum(n + 1, psi, psi_lam[0], mu, lam, diagonal)
    return Sensitivities(
        dmk_dmu=_power(-mu, n - 1) / math.factorial(n - 1) * at_mu.inv_one_minus[n],
        dpd_dmu=-oml * n * (plain - plain_next) / mu,
        dpd_dlambda=at_lam.laplace[1] * plain - oml * slope,
    )


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
    moments = cycle_moments(sane, damage, insp)
    sens = parameter_sensitivities(sane, damage, insp)
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    fp, gm, gl = sens.dmk_dmu, sens.dpd_dmu, sens.dpd_dlambda
    problems = _variance_problems(moments) if convention == "delta" else [None] * len(
        _elements(mx))
    flat = _elements(abs(gl) < 1e-14 * _maximum(abs(pd), 1e-300))
    problems = [
        "failure rate not identifiable: flat failure probability" if f else p
        for p, f in zip(problems, flat)
    ]
    if not isinstance(mx, np.ndarray) and problems[0] is not None:
        return None, problems
    # elements where the bundle is not defined may divide by zero here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if convention == "delta":
            rate_cov = _rate_covariance(moments)
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
            cov_xi = on_fail - mk * pd
            var_x = n * (n + 1) / _power(mu, 2) + 2.0 * on_fail / lam - _power(mx, 2)
            rate_cov = _rate_covariance(moments, var_x, cov_xi)
            scale = mx / fp
            jac = [
                [scale * -mk, scale * 1.0, scale * 0.0],
                [scale * (mk * gm / gl - pd * fp / gl), scale * (-gm / gl),
                 scale * (fp / (mx * gl))],
            ]
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
    gap = b - a
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


@functools.lru_cache(maxsize=None)
def _series_coefficients(top: int, negative: bool, terms: int) -> tuple:
    # theta > 0: mu_top(x) = sum_j x^j / (j! (top+j+1)); theta < 0:
    # mu_top(x) = exp(x) sum_j |x|^j top! / (top+j+1)!; positive terms both
    if negative:
        return tuple(
            math.factorial(top) / math.factorial(top + j + 1) for j in range(terms)
        )
    return tuple(1.0 / (math.factorial(j) * (top + j + 1)) for j in range(terms))


def _exp_poly_moments(g, theta: float, top: int) -> list:
    """m_i = int_0^g w^i exp(theta w) dw for i = 0..top, accurate for every
    theta*g.

    With x = theta*g, m_i = g^(i+1) mu_i(x) and mu_i(x) = int_0^1 t^i
    exp(x t) dt, the phi-function exp(x) i! phi_(i+1)(-x).  The upward
    recursion mu_i = (exp(x) - i mu_(i-1))/x multiplies the rounding error
    of mu_0 by about (top+1)!/|x|^top, so it is used where that is at most
    one, |x| >= ((top+1)!)^(1/top).  Below the switch, mu_top is a power
    series in |x| with positive terms only (the Taylor series for x > 0,
    exp(x) times the phi series for x < 0), summed to double precision,
    and the downward recursion mu_(i-1) = (exp(x) - x mu_i)/i, whose error
    shrinks by |x|/i per step, gives the rest.  Orders 0..6 match a
    high-precision reference to a few ulps times |x|.
    """
    g = np.asarray(g, dtype=float)
    flat = g.reshape(-1)
    x = theta * flat
    ex = np.exp(x)
    small = np.abs(x) < math.factorial(top + 1) ** (1.0 / max(top, 1))
    every = bool(small.all())
    out = np.empty((top + 1, flat.size))
    if small.any():
        pick = slice(None) if every else small
        xs, es, gs = x[pick], ex[pick], flat[pick]
        ax = np.abs(xs)
        # terms until r^j/j! drops below half an ulp at the largest |x|
        r, terms, last = float(ax.max()), 1, 1.0
        while last > 2.0**-54:
            last *= r / terms
            terms += 1
        coefficients = _series_coefficients(top, theta < 0.0, terms)
        acc = np.full_like(xs, coefficients[-1])
        for c in coefficients[-2::-1]:
            acc *= ax
            acc += c
        if theta < 0.0:
            acc *= es
        out[top, pick] = acc * gs ** (top + 1)
        for i in range(top, 0, -1):
            acc = (es - xs * acc) / i
            out[i - 1, pick] = acc * gs**i
    if not every:
        big = ~small
        xb, eb, gb = x[big], ex[big], flat[big]
        prev = np.expm1(xb) / theta
        out[0, big] = prev
        for i in range(1, top + 1):
            prev = (gb**i * eb - i * prev) / theta
            out[i, big] = prev
    return [m.reshape(g.shape) for m in out]

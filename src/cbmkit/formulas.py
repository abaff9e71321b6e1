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
accurate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import (
    DERIVATIVE_CAP,
    DamageLaw,
    InspectionLaw,
    SaneLaw,
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


def _near_diagonal(mu: float, lam: float, shape: int, spacing: float) -> bool:
    # The generic branch divides by (mu-lam)^shape, losing roughly
    # 16*shape/(shape+4) digits at the crossover; balancing that loss
    # against the O(((mu-lam)*spacing)^4) truncation of the resummation
    # puts the switch at |mu-lam|*spacing = 10^(-16/(shape+4)).  The
    # relative floor keeps exact near-equal inputs on the smooth branch
    # whatever the spacing.
    width = max(EQUAL_RATE_BAND * max(mu, lam), 10.0 ** (-16.0 / (shape + 4)) / spacing)
    return abs(mu - lam) <= width


# ---------------------------------------------------------------------------
# Series arithmetic on jets
# ---------------------------------------------------------------------------


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = len(a)
    out = np.zeros(k)
    for i in range(k):
        out[i] = np.dot(a[: i + 1], b[: i + 1][::-1])
    return out


def _series_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    k = len(num)
    out = np.zeros(k)
    out[0] = num[0] / den[0]
    for i in range(1, k):
        out[i] = (num[i] - np.dot(den[1 : i + 1], out[:i][::-1])) / den[0]
    return out


@dataclass(frozen=True)
class LawDerivatives:
    """Raw derivatives at one anchor of the rational functions of L.

    ``inv_one_minus`` is 1/(1-L), ``gain`` is L/(1-L) and ``gain_sq`` is
    L/(1-L)^2, each as arrays of derivatives 0..order.
    """

    anchor: float
    laplace: np.ndarray
    inv_one_minus: np.ndarray
    gain: np.ndarray
    gain_sq: np.ndarray


def law_derivatives(s: float, insp: InspectionLaw, order: int) -> LawDerivatives:
    """Derivative bundle of L, 1/(1-L), L/(1-L), L/(1-L)^2 at s."""
    jet = laplace_jet(s, insp, order)
    fact = np.array([math.factorial(i) for i in range(order + 1)], dtype=float)
    l_taylor = np.asarray(jet.coefficients) / fact
    den = -l_taylor
    # The order-0 coefficient of 1-L is rebuilt without cancellation; the
    # higher coefficients are exact sign flips.
    den[0] = one_minus_laplace(s, insp)
    one = np.zeros(order + 1)
    one[0] = 1.0
    w = _series_div(one, den)
    psi = _series_mul(l_taylor, w)
    phi = _series_mul(psi, w)
    return LawDerivatives(
        anchor=s,
        laplace=np.asarray(jet.coefficients, dtype=float),
        inv_one_minus=w * fact,
        gain=psi * fact,
        gain_sq=phi * fact,
    )


# ---------------------------------------------------------------------------
# The inspection series (two Laplace-transform series and a first-moment kin)
# ---------------------------------------------------------------------------


def _indexed_series_sum(
    sane: SaneLaw,
    mu_derivs: np.ndarray,
    at_lam: float,
    mu: float,
    lam: float,
    spacing: float,
) -> float:
    """sum_k k^w E[exp(-lam D_k) * integral] in terms of a rational h of L.

    Generic branch: (mu/(mu-lam))^n (h(lam) - sum_{j<n} (mu-lam)^j/j!
    (-1)^j h^(j)(mu)).  Diagonal branch: the same analytic function,
    resummed as mu^n (-1)^n sum_m (lam-mu)^m / (m+n)! h^(m+n)(mu).
    """
    n = sane.shape
    if _near_diagonal(mu, lam, n, spacing):
        eps = lam - mu
        total = 0.0
        for m in range(_DIAGONAL_TERMS + 1):
            total += eps**m / math.factorial(m + n) * mu_derivs[m + n]
        return (-1.0) ** n * mu**n * total
    rho = (mu / (mu - lam)) ** n
    acc = at_lam
    for j in range(n):
        acc -= (mu - lam) ** j / math.factorial(j) * (-1.0) ** j * mu_derivs[j]
    return rho * acc


def inspection_series(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw, kind: str = "plain"
) -> float:
    """The two Laplace-transform series over inspection indices.

    ``plain`` is sum_k E[exp(-lam D_k) int_0^{D_k} exp(lam t) dF_s(t)] and
    satisfies 1 - failure_probability = (1 - L(lam)) * plain for the
    absolutely continuous damage laws supported here.  ``weighted`` carries
    an extra factor k per term and feeds the second-moment bundle.
    """
    if kind not in ("plain", "weighted"):
        raise ValueError(f"kind must be 'plain' or 'weighted', got {kind!r}")
    mu, lam = sane.rate, damage.rate
    order = sane.shape + _DIAGONAL_TERMS
    at_mu = law_derivatives(mu, insp, order)
    at_lam = law_derivatives(lam, insp, 0)
    if kind == "plain":
        return _indexed_series_sum(sane, at_mu.gain, at_lam.gain[0], mu, lam, insp.spacing)
    return _indexed_series_sum(sane, at_mu.gain_sq, at_lam.gain_sq[0], mu, lam, insp.spacing)


# ---------------------------------------------------------------------------
# First moments
# ---------------------------------------------------------------------------


def mean_inspections(sane: SaneLaw, insp: InspectionLaw) -> float:
    """Expected number of inspections charged to one cycle.

    Equals sum_{i<shape} mu^i/i! (-1)^i d^i/ds^i [1/(1-L)](mu); always >= 1.
    """
    mu, n = sane.rate, sane.shape
    w = law_derivatives(mu, insp, n - 1).inv_one_minus
    total = 0.0
    for i in range(n):
        total += mu**i / math.factorial(i) * (-1.0) ** i * w[i]
    return total


def detection_probability(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> float:
    """P(cycle ends at a planned inspection), i.e. 1 - failure probability.

    Computed as (1 - L(lam)) * plain series, which is exact for the
    absolutely continuous damage-time laws supported here.
    """
    series = inspection_series(sane, damage, insp, "plain")
    return one_minus_laplace(damage.rate, insp) * series


def failure_probability(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> float:
    """P(cycle ends in failure rather than detection)."""
    return 1.0 - detection_probability(sane, damage, insp)


def mean_cycle_length(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> float:
    """E[cycle length] = mean damage time + failure probability / failure rate."""
    return sane.mean + failure_probability(sane, damage, insp) / damage.rate


# ---------------------------------------------------------------------------
# Second-moment bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleMoments:
    """First and second moments of one renewal cycle.

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
        return self.mean_cycle_sq - self.mean_cycle**2

    @property
    def var_inspections(self) -> float:
        return self.mean_inspections_sq - self.mean_inspections**2

    @property
    def var_failure(self) -> float:
        return self.failure_prob * (1.0 - self.failure_prob)


def cycle_moments(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> CycleMoments:
    n, mu, lam = sane.shape, sane.rate, damage.rate
    at_mu = law_derivatives(mu, insp, n + _DIAGONAL_TERMS + 1)
    at_lam = law_derivatives(lam, insp, 1)
    oml = one_minus_laplace(lam, insp)
    l_lam = at_lam.laplace[0]
    lp_lam = at_lam.laplace[1]

    plain = _indexed_series_sum(sane, at_mu.gain, at_lam.gain[0], mu, lam, insp.spacing)
    weighted = _indexed_series_sum(sane, at_mu.gain_sq, at_lam.gain_sq[0], mu, lam, insp.spacing)
    first_age = _indexed_series_sum(sane, -at_mu.gain[1:], -at_lam.gain[1], mu, lam, insp.spacing)

    detect = oml * plain
    p_fail = 1.0 - detect

    mk = mean_inspections(sane, insp)
    mk_next = mean_inspections(SaneLaw(n + 1, mu), insp)
    mx = n / mu + p_fail / lam

    e_k_sq = mk
    for i in range(n):
        e_k_sq += 2.0 * mu**i / math.factorial(i) * (-1.0) ** i * at_mu.gain_sq[i]

    # E[inspections on detected cycles]: the weighted series collects the
    # k-th term of the detection decomposition, the geometric tail supplies
    # the rest.
    e_k_detected = oml * weighted - l_lam * detect / oml

    # Mean inspection age weighted by no-failure survival,
    # E[D_K exp(-lam (D_K - damage time))]; enters the failure-restricted
    # cycle-length moment below.
    age_weighted = oml * first_age + lp_lam * detect / oml

    e_x_on_fail = p_fail / lam + n / mu - age_weighted
    e_x_sq = n * (n + 1) / mu**2 + 2.0 * e_x_on_fail / lam

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


def _rate_covariance_raw(
    var_x: float, var_i: float, var_k: float, cov_xi: float, cov_xk: float,
    cov_ik: float, p_fail: float, mk: float, mx: float,
) -> np.ndarray:
    """Assemble the 3x3 limit covariance of (repair, failure, inspection)
    count rates from per-cycle moments, without consistency checks."""
    r11 = var_x
    r12 = p_fail * var_x - mx * cov_xi
    r13 = mk * var_x - mx * cov_xk
    r22 = p_fail**2 * var_x - 2.0 * p_fail * mx * cov_xi + mx**2 * var_i
    r23 = (
        p_fail * mk * var_x
        - p_fail * mx * cov_xk
        - mk * mx * cov_xi
        + mx**2 * cov_ik
    )
    r33 = mk**2 * var_x - 2.0 * mk * mx * cov_xk + mx**2 * var_k
    return np.array([[r11, r12, r13], [r12, r22, r23], [r13, r23, r33]]) / mx**3


def count_rate_covariance(moments: CycleMoments) -> np.ndarray:
    """Limit covariance of sqrt(t)-scaled (repair, failure, inspection)
    count rates.

    Rows and columns are ordered (repairs, failures, inspections); entries
    are assembled from the per-cycle moments by bilinearity and scaled by
    mean_cycle^-3.
    """
    var_x = moments.var_cycle
    var_i = moments.var_failure
    var_k = moments.var_inspections
    tol = -1e-10
    for name, v, scale in (
        ("cycle length", var_x, moments.mean_cycle_sq),
        ("failure indicator", var_i, 1.0),
        ("inspection count", var_k, moments.mean_inspections_sq),
    ):
        if v < tol * scale:
            raise ValueError(f"inconsistent moments: negative variance of {name}")
    return _rate_covariance_raw(
        var_x,
        var_i,
        var_k,
        moments.cov_cycle_failure,
        moments.cov_inspections_cycle,
        moments.cov_inspections_failure,
        moments.failure_prob,
        moments.mean_inspections,
        moments.mean_cycle,
    )


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


def _sensitivities_jet(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> Sensitivities:
    n, mu, lam = sane.shape, sane.rate, damage.rate
    at_mu = law_derivatives(mu, insp, n + _DIAGONAL_TERMS + 1)
    at_lam = law_derivatives(lam, insp, 1)
    oml = one_minus_laplace(lam, insp)
    lp_lam = at_lam.laplace[1]
    psi = at_mu.gain

    # d(mean inspections)/d(mu) straight from the defining sum.
    w = at_mu.inv_one_minus
    fp = 0.0
    for i in range(n):
        sign = (-1.0) ** i
        if i >= 1:
            fp += sign * mu ** (i - 1) / math.factorial(i - 1) * w[i]
        fp += sign * mu**i / math.factorial(i) * w[i + 1]

    if _near_diagonal(mu, lam, n, insp.spacing):
        # Diagonal resummation: series value, its eps-derivative, and the
        # mu-derivative split into shape term, order bump, minus eps term.
        eps = lam - mu
        sgn = (-1.0) ** n
        base = bumped = d_eps = 0.0
        for m in range(_DIAGONAL_TERMS + 1):
            fm = math.factorial(m + n)
            base += eps**m / fm * psi[m + n]
            bumped += eps**m / fm * psi[m + n + 1]
            if m >= 1:
                d_eps += m * eps ** (m - 1) / fm * psi[m + n]
        phi_v = sgn * mu**n * base
        dphi_lam = sgn * mu**n * d_eps
        dphi_mu = sgn * (n * mu ** (n - 1) * base + mu**n * bumped) - dphi_lam
    else:
        rho = (mu / (mu - lam)) ** n
        bracket = at_lam.gain[0]
        for j in range(n):
            bracket -= (mu - lam) ** j / math.factorial(j) * (-1.0) ** j * psi[j]
        phi_v = rho * bracket
        d_bracket_lam = at_lam.gain[1]
        for j in range(n - 1):
            d_bracket_lam -= (mu - lam) ** j / math.factorial(j) * (-1.0) ** j * psi[j + 1]
        dphi_lam = rho * (n / (mu - lam) * bracket + d_bracket_lam)
        d_bracket_mu = 0.0
        for j in range(n):
            sign = (-1.0) ** j
            if j >= 1:
                d_bracket_mu -= sign * (mu - lam) ** (j - 1) / math.factorial(j - 1) * psi[j]
            d_bracket_mu -= sign * (mu - lam) ** j / math.factorial(j) * psi[j + 1]
        dphi_mu = rho * (-n * lam / (mu * (mu - lam)) * bracket + d_bracket_mu)

    dpd_dlambda = lp_lam * phi_v - oml * dphi_lam
    dpd_dmu = -oml * dphi_mu
    return Sensitivities(dmk_dmu=fp, dpd_dmu=dpd_dmu, dpd_dlambda=dpd_dlambda)


def _sensitivities_closed(sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw) -> Sensitivities:
    """Closed-form sensitivity maps, available for shapes 1 and 2."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    at_mu = law_derivatives(mu, insp, 4)
    l_mu, lp, lpp, lppp = at_mu.laplace[0], at_mu.laplace[1], at_mu.laplace[2], at_mu.laplace[3]
    om = one_minus_laplace(mu, insp)
    diagonal = _near_diagonal(mu, lam, n, insp.spacing)
    if not diagonal:
        at_lam = law_derivatives(lam, insp, 1)
        l_lam, lp_lam = at_lam.laplace[0], at_lam.laplace[1]
        oml = one_minus_laplace(lam, insp)
        d = mu - lam

    if n == 1:
        fp = lp / om**2
        if diagonal:
            gmu = (0.5 * mu * lpp + lp) / om + mu * lp**2 / om**2
            gl = mu * lpp / (2.0 * om)
        else:
            gmu = lam / d**2 * (l_lam - l_mu) / om - mu / d * lp * (l_lam - 1.0) / om**2
            gl = -(mu / d**2 * (l_lam - l_mu) / om + mu / d * lp_lam / om)
        return Sensitivities(fp, gmu, gl)

    if n == 2:
        fp = -mu * (lpp * om + 2.0 * lp**2) / om**3
        if diagonal:
            gmu = -mu / om**3 * (
                2.0 * om * (mu * lp * lpp + lp**2)
                + om**2 * (lpp + mu / 3.0 * lppp)
                + 2.0 * mu * lp**3
            )
            gl = -mu**2 / (2.0 * om**2) * (lpp * lp + om * lppp / 3.0)
        else:
            gmu = -mu / (om**3 * d**3) * (
                -2.0 * lam * om * ((l_lam - l_mu) * om + d * lp * (1.0 - l_lam))
                + mu * d**2 * (1.0 - l_lam) * (lpp * om + 2.0 * lp**2)
            )
            gl = -2.0 * mu**2 / (d**3 * om**2) * (
                om * (l_lam - l_mu)
                + d / 2.0 * (lp_lam * om + lp * (1.0 - l_lam))
                - d**2 / 2.0 * lp_lam * lp
            )
        return Sensitivities(fp, gmu, gl)

    raise ValueError("closed-form sensitivities cover shapes 1 and 2 only")


def parameter_sensitivities(
    sane: SaneLaw, damage: DamageLaw, insp: InspectionLaw, method: str = "auto"
) -> Sensitivities:
    """Derivatives (dmk/dmu, dpd/dmu, dpd/dlambda) of the estimating maps.

    ``jet`` is the series path, valid for any shape and uniformly accurate
    through the equal-rates diagonal; ``closed`` uses the explicit
    shape-1/shape-2 formulas, whose generic branch degrades inside the
    diagonal band (use it for cross-validation away from the diagonal or
    exactly on it).  ``auto`` therefore resolves to ``jet``; the tests pin
    the two paths to each other at 1e-8 relative on both regimes.
    """
    if method == "auto":
        method = "jet"
    if method == "closed":
        return _sensitivities_closed(sane, damage, insp)
    if method == "jet":
        return _sensitivities_jet(sane, damage, insp)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Estimator covariance (delta method)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceBundle:
    """Count-rate covariance, the estimator linearization, and their product.

    ``param_cov`` scales like t * Var(estimates): the confidence half-width
    at level z is z * sqrt(param_cov[i, i] / t).
    """

    counts_cov: np.ndarray
    jacobian: np.ndarray
    param_cov: np.ndarray


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
    """
    moments = cycle_moments(sane, damage, insp)
    sens = parameter_sensitivities(sane, damage, insp)
    mx, mk, pd = moments.mean_cycle, moments.mean_inspections, moments.failure_prob
    fp, gm, gl = sens.dmk_dmu, sens.dpd_dmu, sens.dpd_dlambda
    if abs(gl) < 1e-14 * max(abs(pd), 1e-300):
        raise ValueError("failure rate not identifiable: flat failure probability")

    if convention == "delta":
        rate_cov = count_rate_covariance(moments)
        jac = np.array(
            [
                [-mx * mk / fp, 0.0, mx / fp],
                [mx * (mk * gm / fp - pd) / gl, mx / gl, -mx * gm / (fp * gl)],
            ]
        )
    elif convention == "tabulated":
        n, mu, lam = sane.shape, sane.rate, damage.rate
        at_lam = law_derivatives(lam, insp, 1)
        oml = one_minus_laplace(lam, insp)
        detect = 1.0 - pd
        on_fail = pd / lam + n / mu - at_lam.laplace[1] / oml * detect
        cov_xi = on_fail - mk * pd
        var_x = n * (n + 1) / mu**2 + 2.0 * on_fail / lam - mx**2
        rate_cov = _rate_covariance_raw(
            var_x,
            moments.var_failure,
            moments.var_inspections,
            cov_xi,
            moments.cov_inspections_cycle,
            moments.cov_inspections_failure,
            pd,
            mk,
            mx,
        )
        jac = (mx / fp) * np.array(
            [
                [-mk, 1.0, 0.0],
                [mk * gm / gl - pd * fp / gl, -gm / gl, fp / (mx * gl)],
            ]
        )
    else:
        raise ValueError(f"unknown convention {convention!r}")

    param_cov = jac @ rate_cov @ jac.T
    return CovarianceBundle(counts_cov=rate_cov, jacobian=jac, param_cov=param_cov)


# ---------------------------------------------------------------------------
# Shared censored-window integral
# ---------------------------------------------------------------------------


def detection_window_integral(a, b, sane: SaneLaw, damage: DamageLaw):
    """int_a^b exp(-lam (b - u)) dF_s(u): damage in (a, b], no failure by b.

    Closed form through the polynomial-times-exponential moments at rate
    mu - lam, organized around exp(-mu b) so nothing overflows while the
    rate difference sweeps sign.  Accepts scalar or array endpoints.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, mu, lam = sane.shape, sane.rate, damage.rate
    theta = mu - lam
    gap = b - a
    moments = _exp_poly_moments(gap, theta, n - 1)
    inner = np.zeros_like(gap)
    for i in range(n):
        inner += math.comb(n - 1, i) * b ** (n - 1 - i) * (-1.0) ** i * moments[i]
    out = mu**n / math.factorial(n - 1) * np.exp(-mu * b) * inner
    return out if out.ndim else float(out)


def _exp_poly_moments(g, theta: float, top: int) -> list:
    """m_i = int_0^g w^i exp(theta w) dw for i = 0..top, stable near theta=0."""
    g = np.asarray(g, dtype=float)
    small = np.abs(theta * g) < 1e-4
    moments = []
    eg = np.exp(theta * np.where(small, 0.0, g))
    for i in range(top + 1):
        series = np.zeros_like(g)
        for j in range(6):
            series += theta**j * g ** (i + j + 1) / (math.factorial(j) * (i + j + 1))
        if i == 0:
            exact = np.where(small, series, np.expm1(theta * g) / theta if theta != 0.0 else series)
        else:
            exact = np.where(small, series, (g**i * eg - i * moments[i - 1]) / theta if theta != 0.0 else series)
        moments.append(exact)
    return moments

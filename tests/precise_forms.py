"""An independent 50-digit reference for the closed forms: the failure
probability, the mean inspections per cycle, the derivatives of both in
the rate each estimates, and the raw derivatives of the gap transform.

Built on the standard library's ``decimal`` only, and on nothing of
``cbmkit`` but its law parameters.  The inspection-gap transform L is
expanded about the damage rate mu in exact series with terms of one sign
where it matters: exp(-sc) for deterministic gaps, exp(-sc) times the even
series of sinh(hs)/(hs) for uniform ones.  psi = L/(1-L) = 1/(1-L) - 1
follows by series division, and the divided difference psi[mu (n times),
lam] by its Taylor series sum_m (lam-mu)^m psi_(m+n) within |lam - mu| <
mu/2 and by the generic formula elsewhere; 60 working digits leave at
least 50 after the cancellations of either.
"""

import math
from decimal import Decimal, localcontext

DIGITS = 60
# Series stop below this relative size of their sum.
_ROUNDING = Decimal(10) ** -DIGITS
# The divided difference's Taylor terms, which shrink like
# ((lam - mu)/mu)^m, stop below this one.
_TAIL = Decimal("1e-30")


def _decimal(x) -> Decimal:
    """A float's exact binary value."""
    return Decimal(float(x))


def _sinhc(v: Decimal) -> Decimal:
    """sinh(v)/v for v >= 0: its series below 1, the exponentials above."""
    if v >= 1:
        return (v.exp() - (-v).exp()) / (2 * v)
    total, term, k = Decimal(1), Decimal(1), 0
    while term > total * _ROUNDING:
        k += 1
        term = term * v * v / ((2 * k) * (2 * k + 1))
        total += term
    return total


def laplace(s, insp) -> Decimal:
    """L(s) = E[exp(-s * gap)]."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s = _decimal(s)
        value = (-s * _decimal(insp.spacing)).exp()
        if insp.kind == "uniform":
            value *= _sinhc(s * _decimal(insp.half_width))
        return value


def one_minus_laplace(s, insp) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return 1 - laplace(s, insp)


def _laplace_taylor(mu: Decimal, insp, terms: int) -> list:
    """L(mu + t) = sum_j L_j t^j for j < terms."""
    c = _decimal(insp.spacing)
    coefficients = [(-mu * c).exp()]
    for j in range(1, terms):
        coefficients.append(coefficients[-1] * -c / j)
    if insp.kind == "deterministic":
        return coefficients
    # sinh(h s)/(h s) = sum_k (h s)^(2k) / (2k+1)!, expanded binomially
    # about mu: coefficient j sums h^j (h mu)^(2k-j) C(2k, j) / (2k+1)!
    h = _decimal(insp.half_width)
    v = h * mu
    even = []
    for j in range(terms):
        total, k = Decimal(0), (j + 1) // 2
        while True:
            term = h**j * v ** (2 * k - j) * math.comb(2 * k, j) / math.factorial(2 * k + 1)
            total += term
            if term <= total * _ROUNDING:
                break
            k += 1
        even.append(total)
    return [sum(coefficients[i] * even[j - i] for i in range(j + 1)) for j in range(terms)]


def _psi_taylor(mu: Decimal, insp, terms: int) -> list:
    """Taylor coefficients of psi = 1/(1 - L) - 1 about mu."""
    laplace_coeffs = _laplace_taylor(mu, insp, terms)
    den = [1 - laplace_coeffs[0]] + [-v for v in laplace_coeffs[1:]]
    inverse = [1 / den[0]]
    for k in range(1, terms):
        inverse.append(-sum(den[j] * inverse[k - j] for j in range(1, k + 1)) / den[0])
    return [inverse[0] - 1] + inverse[1:]


def _divided_difference(n: int, mu: Decimal, lam: Decimal, insp) -> tuple:
    """psi[mu (n times), lam] and its derivative in lam: within |lam - mu|
    < mu/2 the Taylor series sum_m (lam-mu)^m psi_(m+n) and its term-by-term
    derivative, elsewhere the generic formula and its quotient rule with
    psi'(lam) = L'(lam)/(1 - L(lam))^2."""
    gap = lam - mu
    ratio = abs(gap) / mu
    if ratio < Decimal("0.5"):
        terms = n + 2
        while (terms - n) * ratio ** (terms - n - 1) > _TAIL:
            terms += 1
        series = _psi_taylor(mu, insp, terms)[n:]
        value, slope, power = Decimal(0), Decimal(0), Decimal(1)
        for m, coefficient in enumerate(series):
            value += power * coefficient
            if m + 1 < len(series):
                slope += (m + 1) * power * series[m + 1]
            power *= gap
        return value, slope
    psi = _psi_taylor(mu, insp, n)
    at_lam, slope_at_lam = _laplace_taylor(lam, insp, 2)
    tail = at_lam / (1 - at_lam) - sum(psi[j] * gap**j for j in range(n))
    tail_slope = slope_at_lam / (1 - at_lam) ** 2 - sum(
        j * psi[j] * gap ** (j - 1) for j in range(1, n))
    value = tail / gap**n
    return value, tail_slope / gap**n - n * value / gap


def failure_probability(shape: int, mu, lam, insp) -> Decimal:
    """1 - (1 - L(lam)) (-mu)^n psi[mu (n times), lam] for n = shape."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        mu, lam = _decimal(mu), _decimal(lam)
        difference, _ = _divided_difference(shape, mu, lam, insp)
        return 1 - (1 - laplace(lam, insp)) * (-mu) ** shape * difference


def dpd_dlambda(shape: int, mu, lam, insp) -> Decimal:
    """d/dlam of :func:`failure_probability`: L'(lam) (-mu)^n D - (1 -
    L(lam)) (-mu)^n D' with D = psi[mu (n times), lam]."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        mu, lam = _decimal(mu), _decimal(lam)
        difference, slope = _divided_difference(shape, mu, lam, insp)
        at_lam, slope_at_lam = _laplace_taylor(lam, insp, 2)
        return (-mu) ** shape * (slope_at_lam * difference - (1 - at_lam) * slope)


def laplace_jet(s, insp, order: int) -> list:
    """L^(i)(s) = i! L_i for i = 0..order, the Taylor coefficients of L
    about s."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        taylor = _laplace_taylor(_decimal(s), insp, order + 1)
        return [coefficient * math.factorial(i) for i, coefficient in enumerate(taylor)]


def mean_inspections(shape: int, mu, insp) -> Decimal:
    """sum_{i<n} (-mu)^i w_i for the Taylor coefficients w_i of
    w = 1/(1 - L) = 1 + psi about mu, n = shape."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        mu = _decimal(mu)
        psi = _psi_taylor(mu, insp, shape)
        return 1 + sum((-mu) ** i * coefficient for i, coefficient in enumerate(psi))


def dmk_dmu(shape: int, mu, insp) -> Decimal:
    """d/dmu of :func:`mean_inspections`, which telescopes to its last
    term: (-mu)^(n-1) n psi_n, psi_n the n-th Taylor coefficient of psi
    about mu."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        mu = _decimal(mu)
        psi = _psi_taylor(mu, insp, shape + 1)
        return (-mu) ** (shape - 1) * shape * psi[shape]

"""Probability-law primitives for the three-state maintenance model.

Three laws drive everything: the time from repair to damage (gamma with
integer shape and rate parameterization, mean = shape/rate), the time from
damage to failure (exponential), and the gap between consecutive planned
inspections (deterministic or uniform).  Besides sampling and pointwise
survival/density evaluation, this module produces exact derivative jets of
the inspection-gap Laplace transform (from the exponential moments that
also give the censored likelihood's window integral), which the closed-form
machinery in :mod:`cbmkit.formulas` consumes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The largest gamma shape the closed forms support: shapes 1 to 4 are the
# ones checked against an independent 50-digit reference.  The closed forms
# read jets to order shape at most and cross the equal-rates diagonal on a
# contour that needs none, so it caps the jet order too.
MAX_SHAPE = 4

# Below |w| = 2 * half_width * |z| of this, 1 - q(w), q(w) = (1 - exp(-w))/w,
# is summed from its series sum_k (-1)^(k+1) w^k/(k+1)! (the terms past
# k = 9 fall under double resolution), not taken as a difference near zero.
_SERIES_BELOW = 0.05
_ONE_MINUS_Q = tuple((-1.0) ** (k + 1) / math.factorial(k + 1) for k in range(1, 10))

_LN2 = math.log(2.0)

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"


def _check_rate(rate) -> None:
    # a rate may be an array of rates, one law per element, for the closed
    # forms' elementwise evaluation
    if not (((0.0 < rate) & (rate < math.inf)).all() if isinstance(rate, np.ndarray)
            else 0.0 < rate < math.inf):
        raise ValueError(f"rate must be positive and finite, got {rate!r}")


@dataclass(frozen=True)
class SaneLaw:
    """Gamma law of the repair-to-damage time, rate parameterization.

    ``shape`` must be a positive integer so draws are exact sums of
    exponentials and all closed forms stay polynomial in the rate.  The
    closed forms also take an array of rates, one law per element.
    """

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not isinstance(self.shape, int) or self.shape < 1:
            raise ValueError(f"shape must be a positive integer, got {self.shape!r}")
        _check_rate(self.rate)
        # Integer shape >= 1 makes the law absolutely continuous: no atom at
        # zero, which the closed forms silently rely on.

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class DamageLaw:
    """Exponential law of the damage-to-failure time."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class InspectionLaw:
    """Law of the gap between planned inspections.

    ``deterministic`` gaps equal ``spacing`` exactly; ``uniform`` gaps are
    drawn from [spacing - half_width, spacing + half_width] with
    0 < half_width < spacing so gaps stay strictly positive.
    """

    kind: str
    spacing: float
    half_width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (DETERMINISTIC, UNIFORM):
            raise ValueError(f"unknown inspection kind {self.kind!r}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if self.kind == DETERMINISTIC:
            if self.half_width != 0.0:
                raise ValueError("deterministic gaps take no half_width")
        elif not 0.0 < self.half_width < self.spacing:
            raise ValueError("uniform gaps need 0 < half_width < spacing")

    @property
    def mean(self) -> float:
        return self.spacing


def _value(s):
    """A rate or an anchor as the closed forms compute with it: a float, or
    a float array of several, one per element."""
    if isinstance(s, (float, int)):
        return float(s)
    x = np.asarray(s, dtype=float)
    return x if x.ndim else float(x)


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _all(mask) -> bool:
    return bool(mask.all()) if isinstance(mask, np.ndarray) else mask


def _libm(fn, x):
    """``fn``, a :mod:`math` function, on a float or on every element of an
    array: the C library's scalar bits on every CPU, where numpy's vector
    loops round differently with and without AVX-512."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def survival_sane(t: float, law: SaneLaw) -> float:
    """P(damage later than t): sum_{i<shape} (rate*t)^i/i! * exp(-rate*t).

    Below rate*t = 1 a shape above 1 takes one minus the lower tail
    sum_{i>=shape} instead: the head sum rounds above 1 near t = 0, and
    one minus the tiny tail stays at most 1 and nonincreasing.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    x = law.rate * t
    if law.shape > 1 and x < 1.0:
        term = x**law.shape / math.factorial(law.shape)
        tail = 0.0
        i = law.shape
        while tail + term != tail:
            tail += term
            i += 1
            term *= x / i
        return 1.0 - tail * math.exp(-x)
    term = 1.0
    acc = 1.0
    for i in range(1, law.shape):
        term *= x / i
        acc += term
    return acc * math.exp(-x)


def density_sane(t, law: SaneLaw):
    """Gamma density at t; accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    n, mu = law.shape, law.rate
    out = mu**n * t ** (n - 1) * np.exp(-mu * t) / math.factorial(n - 1)
    return out if out.ndim else float(out)


def _one_minus_q_series(w: tuple) -> tuple:
    """1 - q(w) from its series, for an (re, im) pair w."""
    acc = (_ONE_MINUS_Q[-1], 0.0)
    for c in _ONE_MINUS_Q[-2::-1]:
        re, im = _cmul(acc, w)
        acc = (re + c, im)
    return _cmul(acc, w)


def _cmul(a: tuple, b: tuple) -> tuple:
    """(re, im) product of two (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a: tuple, b: tuple) -> tuple:
    """(re, im) quotient a/b of two (re, im) pairs."""
    norm = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm


def _exp_pair(x: np.ndarray, y: np.ndarray) -> tuple:
    """exp(-w) and 1 - exp(-w) for w = x + iy, x >= 0, as (re, im) pairs
    of arrays, with two C library calls per element.

    1 - exp(-w) = (1 - exp(-x)) + 2 exp(-x) sin^2(y/2) + i exp(-x) sin(y)
    sums terms of one sign in its real part.  exp(-x) and 1 - exp(-x) come
    from one call, expm1 below x = ln 2 and exp above, the other from it by
    one operation that cancels nothing; sin(y/2) and cos(y/2) come from
    t = tan(y/4) as 2t/(1+t^2) and (1-t^2)/(1+t^2).
    """
    e, one_minus_e = np.empty_like(x), np.empty_like(x)
    near = x < _LN2
    one_minus_e[near] = -_libm(math.expm1, -x[near])
    e[near] = 1.0 - one_minus_e[near]
    e[~near] = _libm(math.exp, -x[~near])
    one_minus_e[~near] = 1.0 - e[~near]
    t = _libm(math.tan, 0.25 * y)
    t_sq = t * t
    sin_half, cos_half = 2.0 * t / (1.0 + t_sq), (1.0 - t_sq) / (1.0 + t_sq)
    e_sin = 2.0 * e * sin_half
    return ((e - e_sin * sin_half, -e_sin * cos_half),
            (one_minus_e + e_sin * sin_half, e_sin * cos_half))


def complex_laplace(x, y, law: InspectionLaw) -> tuple:
    """L(z) and 1 - L(z) at z = x + iy with x > 0, each an (re, im) pair of
    elementwise arrays, in real arithmetic with the C library's scalar
    routines and without cancellation.

    Deterministic gaps: L = exp(-zc).  Uniform gaps: L = exp(-za) q(2hz)
    with a = c - h and q(w) = (1 - exp(-w))/w, so 1 - L = (1 - q) +
    q (1 - exp(-za)), 1 - q taken from its series for small |w|.
    """
    if law.kind == DETERMINISTIC:
        return _exp_pair(x * law.spacing, y * law.spacing)
    a = law.spacing - law.half_width
    e_za, one_minus_e_za = _exp_pair(x * a, y * a)
    two_h = 2.0 * law.half_width
    w = (two_h * x, two_h * y)
    q = _cdiv(_exp_pair(*w)[1], w)
    one_minus_q = (1.0 - q[0], -q[1])
    near = w[0] * w[0] + w[1] * w[1] < _SERIES_BELOW * _SERIES_BELOW
    if near.any():
        series = _one_minus_q_series(w)
        one_minus_q = tuple(np.where(near, *pair) for pair in zip(series, one_minus_q))
    q_part = _cmul(q, one_minus_e_za)
    return _cmul(e_za, q), (one_minus_q[0] + q_part[0], one_minus_q[1] + q_part[1])


@functools.lru_cache(maxsize=None)
def _series_coefficients(top: int, negative: bool, terms: int) -> tuple:
    # theta > 0: mu_top(x) = sum_j x^j / (j! (top+j+1)); theta < 0:
    # mu_top(x) = exp(x) sum_j |x|^j top! / (top+j+1)!; positive terms both
    if negative:
        return tuple(
            math.factorial(top) / math.factorial(top + j + 1) for j in range(terms)
        )
    return tuple(1.0 / (math.factorial(j) * (top + j + 1)) for j in range(terms))


@functools.lru_cache(maxsize=16)
def _series_terms(reach: float) -> int:
    """Terms until reach^j/j! drops below half an ulp."""
    terms, last = 1, 1.0
    while last > 2.0**-54:
        last *= reach / terms
        terms += 1
    return terms


def _exp_poly_moments(g, theta, top: int, exp=np.exp, expm1=np.expm1,
                      elementwise: bool = False) -> list:
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

    g or theta may be an array (theta's elements of one sign); two floats
    compute in floats.  Each caller passes its exponentials: the censored
    likelihood's window (``formulas._window_sums``) numpy's, the uniform
    gap transform (``_transform``, theta = -s) the C library's, with the
    series summed over ``elementwise`` anchors to the terms of the whole
    range below the switch, so each anchor gets the bits it gets alone.
    """
    switch = math.factorial(top + 1) ** (1.0 / max(top, 1))
    reach = switch if elementwise else None
    if not isinstance(g, np.ndarray) and not isinstance(theta, np.ndarray):
        x = theta * g
        out = [[0.0] for _ in range(top + 1)]
        _moments(out, 0, x, exp(x), g, theta, top, expm1, abs(x) < switch, reach)
        return [m[0] for m in out]
    x = np.asarray(theta * g)
    shape, x = x.shape, x.reshape(-1)
    ex = exp(x)
    small = np.abs(x) < switch
    # each side of the switch on its own elements, rows written into one block
    out = np.empty((top + 1, x.size))
    sides = ([(small, True), (~small, False)] if small.any() and not small.all()
             else [(slice(None), bool(small.all()))])
    for rows, series in sides:
        _moments(out, rows, x[rows], ex[rows], _part(g, rows), _part(theta, rows), top, expm1,
                 series, reach)
    return [m.reshape(shape) for m in out]


def _part(value, rows):
    """The elements ``rows`` of an array, flattened, or a float as is."""
    return value.reshape(-1)[rows] if isinstance(value, np.ndarray) else value


def _moments(out, rows, x, ex, g, theta, top: int, expm1, series: bool, reach) -> None:
    """out[i][rows] = m_i for i = 0..top on one side of the switch: above it
    the upward recursion, below it mu_top from its series (Horner's rule, in
    place on arrays, to the terms of ``reach`` or of the largest |x|) and
    the downward recursion."""
    if not series:
        prev = out[0][rows] = expm1(x) / theta
        for i in range(1, top + 1):
            prev = out[i][rows] = (g**i * ex - i * prev) / theta
        return
    ax = abs(x)
    negative = _any(theta < 0.0)
    terms = _series_terms(reach or float(np.max(ax, initial=0.0)))
    coefficients = _series_coefficients(top, negative, terms)
    acc = ax * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= ax
    acc += coefficients[0]
    if negative:
        acc *= ex
    out[top][rows] = acc * g ** (top + 1)
    for i in range(top, 0, -1):
        acc = (ex - x * acc) / i
        out[i - 1][rows] = acc * g**i


def _transform(x, law: InspectionLaw, order: int) -> tuple:
    """L^(i) for i = 0..order, and 1 - L, at anchors x, in one pass.

    Uniform gaps on [a, a + 2h] read m_j = int_0^2h w^j exp(-x w) dw to
    MAX_SHAPE at any order, so row i does not depend on it: L^(i) = (-1)^i
    exp(-xa)/(2h) sum_j C(i,j) a^(i-j) m_j sums terms of one sign, and
    1 - L = -expm1(-xa) + exp(-xa) x (m_0 - m_1/(2h)), m_1/(2h) <= m_0/2.
    """
    if order > MAX_SHAPE:
        raise ValueError(f"order {order} exceeds the largest shape, {MAX_SHAPE}")
    if law.kind == DETERMINISTIC:
        c = law.spacing
        e = _libm(math.exp, -x * c)
        return [(-c) ** i * e for i in range(order + 1)], -_libm(math.expm1, -x * c)
    a, two_h = law.spacing - law.half_width, 2.0 * law.half_width
    m = _exp_poly_moments(two_h, -x, MAX_SHAPE, lambda v: _libm(math.exp, v),
                          lambda v: _libm(math.expm1, v), elementwise=True)
    e = _libm(math.exp, -x * a)
    # sums[k] = sum_j C(i,j) a^(i-j) m_(j+k), taken to i + 1 by Pascal's rule
    rows, sums = [], m
    for i in range(order + 1):
        rows.append((-1.0) ** i * e * sums[0] / two_h)
        sums = [a * v + w for v, w in zip(sums, sums[1:])]
    return rows, -_libm(math.expm1, -x * a) + e * x * (m[0] - m[1] / two_h)


def laplace_jet(s, law: InspectionLaw, order: int):
    """Exact derivatives of the gap Laplace transform at s, orders 0..order.

    Deterministic gaps give (-spacing)^i * exp(-s*spacing) directly; for
    uniform gaps each derivative sums terms of one sign over the
    exponential moments of the gap (see ``_transform``), for every s.  The
    derivatives are raw, not Taylor-scaled.  A scalar anchor gives a tuple
    of floats; an array of anchors gives one array, a row per order and a
    column per anchor.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    x = _value(s)
    if not _all(x > 0.0):
        if order > 0 and _any(x == 0.0):
            raise ValueError("s = 0 is only valid for order 0")
        if _any(x < 0.0):
            raise ValueError("s must be nonnegative")
    rows = _transform(x, law, order)[0]
    return np.array(rows) if isinstance(x, np.ndarray) else tuple(rows)


def one_minus_laplace(s, law: InspectionLaw):
    """1 - E[exp(-s*gap)] from terms of one sign, where the naive difference
    loses every digit at small s; elementwise over an array of s."""
    return _transform(_value(s), law, 0)[1]


def sample_sane(rng: np.random.Generator, law: SaneLaw) -> float:
    """One repair-to-damage draw: the exact sum of `shape` exponentials."""
    scale = 1.0 / law.rate
    total = 0.0
    for _ in range(law.shape):
        total += rng.exponential(scale)
    return total


def sample_damage(rng: np.random.Generator, law: DamageLaw) -> float:
    return rng.exponential(1.0 / law.rate)


def sample_inspection_gap(rng: np.random.Generator, law: InspectionLaw) -> float:
    if law.kind == DETERMINISTIC:
        return law.spacing
    return rng.uniform(law.spacing - law.half_width, law.spacing + law.half_width)


def sample_sane_many(rng: np.random.Generator, law: SaneLaw, size: int) -> np.ndarray:
    """Vectorized batch of repair-to-damage draws (same law as sample_sane)."""
    draws = rng.exponential(1.0 / law.rate, size=(size, law.shape))
    return draws.sum(axis=1)


def cdf_inspection_gap(x: float, law: InspectionLaw) -> float:
    if law.kind == DETERMINISTIC:
        return 0.0 if x < law.spacing else 1.0
    lo = law.spacing - law.half_width
    hi = law.spacing + law.half_width
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return (x - lo) / (hi - lo)

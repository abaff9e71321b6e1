"""Probability-law primitives for the three-state maintenance model.

Three laws drive everything: the time from repair to damage (gamma with
integer shape and rate parameterization, mean = shape/rate), the time from
damage to failure (exponential), and the gap between consecutive planned
inspections (deterministic or uniform).  Besides sampling, this module
produces exact derivative jets of the inspection-gap Laplace transform
(from the exponential moments that also give the censored likelihood's
window integral), which the closed forms of :mod:`cbmkit.formulas` read
for the gap times a rate x at anchor 1: row i is x^i L^(i)(x), without a
time unit.  Integer powers are running products, which round the same in
floats and in arrays, so an element of an array gets the bits it gets alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The largest gamma shape the closed forms support: shapes 1 to 4 are the
# ones checked against an independent 50-digit reference.  It is also the
# highest order of the public laplace_jet.
MAX_SHAPE = 4

# The highest order _transform computes: the equal-rates band of the closed
# forms reads its anchor-scaled jet to order shape + 32.  Uniform gaps read
# their moments to max(order, MAX_SHAPE), so rows up to order 4 keep the
# bits of the moments to order 4 whatever the order.
_MAX_ORDER = MAX_SHAPE + 32

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"


def _store_rate(law) -> None:
    """Check a law's rate and keep it as the closed forms compute with it: a
    float, or a float array of rates, one law per element."""
    rate = law.rate
    if not (((0.0 < rate) & (rate < math.inf)).all() if isinstance(rate, np.ndarray)
            else 0.0 < rate < math.inf):
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    object.__setattr__(law, "rate", _value(rate))


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
        _store_rate(self)
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
        _store_rate(self)

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


def _batch(values):
    """A float for one value, a float array for several, from a list or an
    array of rates."""
    return float(values[0]) if len(values) == 1 else np.asarray(values, dtype=float)


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


# exp and expm1: the C library's on every element, or numpy's
_LIBM_OPS = functools.partial(_libm, math.exp), functools.partial(_libm, math.expm1)
_NUMPY_OPS = np.exp, np.expm1


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


def _exp_poly_moments(g, theta: float, top: int, elementwise: bool = False) -> list:
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

    ``theta`` is one float, whose sign picks the series; ``g`` may be an
    array, a float computes in floats.  The powers g^i are running
    products, which round alike in floats and in arrays.  One switch picks
    the rest of the arithmetic: ``elementwise`` (``_transform``'s gap law)
    takes exp and expm1 from the C library through ``_libm`` and the series
    to the whole range below the switch, so each element gets its bits
    alone; the default (the censored likelihood's window) takes numpy's and
    the series to the largest |x|.
    """
    switch = math.factorial(top + 1) ** (1.0 / max(top, 1))
    reach, (exp, expm1) = (switch, _LIBM_OPS) if elementwise else (None, _NUMPY_OPS)
    if not isinstance(g, np.ndarray):
        x = theta * g
        out = [[0.0] for _ in range(top + 1)]
        _moments(out, 0, x, exp(x), g, theta, top, expm1, abs(x) < switch, reach)
        return [m[0] for m in out]
    shape, g = g.shape, g.reshape(-1)
    x = theta * g
    ex = exp(x)
    small = np.abs(x) < switch
    # each side of the switch on its own elements, rows written into one block
    out = np.empty((top + 1, x.size))
    sides = ([(small, True), (~small, False)] if small.any() and not small.all()
             else [(slice(None), bool(small.all()))])
    for rows, series in sides:
        _moments(out, rows, x[rows], ex[rows], g[rows], theta, top, expm1, series, reach)
    return [m.reshape(shape) for m in out]


def _moments(out, rows, x, ex, g, theta, top: int, expm1, series: bool, reach) -> None:
    """out[i][rows] = m_i for i = 0..top on one side of the switch: above it
    the upward recursion, below it mu_top from its series (Horner's rule, in
    place on arrays, to the terms of ``reach`` or of the largest |x|) and
    the downward recursion."""
    powers = [g]  # g^(i + 1) at i
    for _ in range(top):
        powers.append(powers[-1] * g)
    if not series:
        prev = out[0][rows] = expm1(x) / theta
        for i in range(1, top + 1):
            prev = out[i][rows] = (powers[i - 1] * ex - i * prev) / theta
        return
    ax = abs(x)
    negative = theta < 0.0
    terms = _series_terms(reach or float(np.max(ax, initial=0.0)))
    coefficients = _series_coefficients(top, negative, terms)
    acc = ax * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= ax
    acc += coefficients[0]
    if negative:
        acc *= ex
    out[top][rows] = acc * powers[top]
    for i in range(top, 0, -1):
        acc = (ex - x * acc) / i
        out[i - 1][rows] = acc * powers[i - 1]


def _transform(x: float, law: InspectionLaw, order: int, scale=1.0) -> tuple:
    """L^(i) for i = 0..order, and 1 - L, at one float anchor x, in one
    pass, for the gap times ``scale`` (a float or an array, one gap per
    element): at x = 1 and scale = s, row i is s^i L^(i)(s), unit-free.

    Uniform gaps on [a, a + 2h] read m_j = int_0^2h w^j exp(-x w) dw to
    max(order, MAX_SHAPE): L^(i) = (-1)^i exp(-xa)/(2h) sum_j C(i,j)
    a^(i-j) m_j sums terms of one sign, and 1 - L = -expm1(-xa) +
    exp(-xa) x (m_0 - m_1/(2h)), m_1/(2h) <= m_0/2.
    """
    if order > _MAX_ORDER:
        raise ValueError(f"order {order} exceeds the highest jet order, {_MAX_ORDER}")
    if law.kind == DETERMINISTIC:
        c = law.spacing * scale
        e = _libm(math.exp, -x * c)
        powers = [1.0]  # (-c)^i at i
        for _ in range(order):
            powers.append(powers[-1] * -c)
        return [p * e for p in powers], -_libm(math.expm1, -x * c)
    a, two_h = (law.spacing - law.half_width) * scale, 2.0 * law.half_width * scale
    # past x w = 1e3, exp(-x w) = 0 leaves the moments as they are there,
    # while w^i in their recursion would overflow
    span = two_h if _all(x * two_h <= 1e3) else _value(np.minimum(two_h, 1e3 / x))
    m = _exp_poly_moments(span, -x, max(order, MAX_SHAPE), elementwise=True)
    e = _libm(math.exp, -x * a)
    # sums[k] = sum_j C(i,j) a^(i-j) m_(j+k), taken to i + 1 by Pascal's rule
    rows, sums = [], m
    for i in range(order + 1):
        rows.append((-1.0) ** i * e * sums[0] / two_h)
        sums = [a * v + w for v, w in zip(sums, sums[1:])]
    return rows, -_libm(math.expm1, -x * a) + e * x * (m[0] - m[1] / two_h)


def _anchor(s, order: int) -> float:
    """The public transforms' one float anchor, checked with the jet order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_SHAPE:
        raise ValueError(f"order {order} exceeds the largest shape, {MAX_SHAPE}")
    x = _value(s)
    if isinstance(x, np.ndarray):
        raise ValueError(f"s must be one anchor, got an array of shape {x.shape}")
    if x < 0.0:
        raise ValueError("s must be nonnegative")
    if order > 0 and x == 0.0:
        raise ValueError("s = 0 is only valid for order 0")
    return x


def laplace_jet(s: float, law: InspectionLaw, order: int) -> tuple:
    """Exact derivatives of the gap Laplace transform at s, orders 0..order.

    Deterministic gaps give (-spacing)^i * exp(-s*spacing) directly; for
    uniform gaps each derivative sums terms of one sign over the
    exponential moments of the gap (see ``_transform``), for every s.  One
    float anchor gives a tuple of raw derivatives, not Taylor-scaled.
    """
    return tuple(_transform(_anchor(s, order), law, order)[0])


def one_minus_laplace(s: float, law: InspectionLaw) -> float:
    """1 - E[exp(-s*gap)] at one anchor s from terms of one sign, where the
    naive difference loses every digit at small s."""
    return _transform(_anchor(s, 0), law, 0)[1]


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
    """Vectorized batch of repair-to-damage draws (same law as sample_sane,
    and the same bits: each row's exponentials added left to right)."""
    draws = rng.exponential(1.0 / law.rate, size=(size, law.shape))
    total = draws[:, 0].copy()
    for j in range(1, law.shape):
        total += draws[:, j]
    return total


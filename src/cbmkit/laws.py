"""Probability-law primitives for the three-state maintenance model.

Three laws drive everything: the time from repair to damage (gamma with
integer shape and rate parameterization, mean = shape/rate), the time from
damage to failure (exponential), and the gap between consecutive planned
inspections (deterministic or uniform).  Besides sampling and pointwise
survival/density evaluation, this module produces exact derivative jets of
the inspection-gap Laplace transform, which the closed-form machinery in
:mod:`cbmkit.formulas` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Jets beyond this order are never needed: the closed forms ask for order
# shape + 4, so the cap bounds formulas.MAX_SHAPE = 4; it also keeps the
# recurrences auditable.
DERIVATIVE_CAP = 8

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"


def _check_rate(rate) -> None:
    # a rate may be an array of rates, one law per element, for the closed
    # forms' elementwise evaluation
    if not ((rate > 0.0).all() if isinstance(rate, np.ndarray) else rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate!r}")


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
        if not self.spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")
        if self.kind == DETERMINISTIC:
            if self.half_width != 0.0:
                raise ValueError("deterministic gaps take no half_width")
        elif not 0.0 < self.half_width < self.spacing:
            raise ValueError("uniform gaps need 0 < half_width < spacing")

    @property
    def mean(self) -> float:
        return self.spacing


@dataclass(frozen=True)
class TaylorJet:
    """Raw derivatives ``L(s), L'(s), ..., L^(k)(s)`` at an anchor.

    Coefficients are plain derivatives, not Taylor-scaled; divide by i! to
    get series coefficients.  At an array of anchors the coefficients are
    one array, a row per order and a column per anchor.
    """

    anchor: float
    coefficients: tuple | np.ndarray

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int):
        return self.coefficients[i]


def _value(s):
    """A rate or an anchor as the closed forms compute with it: a float, or
    a float array of several, one per element."""
    if isinstance(s, (float, int)):
        return float(s)
    x = np.asarray(s, dtype=float)
    return x if x.ndim else float(x)


def _where(mask, a, b):
    """``np.where`` elementwise; on a single element (a bool mask) the value
    chosen, without boxing it into an array."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _all(mask) -> bool:
    return bool(mask.all()) if isinstance(mask, np.ndarray) else mask


def _libm(fn, x):
    """``fn``, a :mod:`math` function, on a float or on every element of an
    array: the C library's scalar bits on every CPU, where numpy's vector
    loops round differently with and without AVX-512."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.tolist())), dtype=float)
    return fn(x)


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


def cdf_sane(t: float, law: SaneLaw) -> float:
    return 1.0 - survival_sane(t, law)


def laplace(s: float, law: InspectionLaw) -> float:
    """Laplace transform E[exp(-s * gap)] of the inspection-gap law."""
    return laplace_jet(s, law, 0)[0]


def one_minus_laplace(s, law: InspectionLaw):
    """1 - E[exp(-s*gap)], computed without cancellation for small s.

    The naive difference loses all digits once s*spacing is tiny; both
    branches below keep every term positive.  Accepts a scalar or an array
    of s, elementwise.
    """
    x = _value(s)
    if law.kind == DETERMINISTIC:
        return -_libm(math.expm1, -x * law.spacing)
    a = law.spacing - law.half_width
    zero = x == 0.0
    two_hs = 2.0 * law.half_width * _where(zero, 1.0, x)
    q = -_libm(math.expm1, -two_hs) / two_hs
    return _where(zero, 0.0, (1.0 - q) - q * _libm(math.expm1, -x * a))


def laplace_jet(s, law: InspectionLaw, order: int) -> TaylorJet:
    """Exact derivatives of the gap Laplace transform at s, orders 0..order.

    Deterministic gaps give (-spacing)^i * exp(-s*spacing) directly.  For
    uniform gaps, L(s) = (exp(-s(c-h)) - exp(-s(c+h))) / (2hs) and the
    derivatives follow from the Leibniz rule on the two exponentials and
    the 1/s factor, each derivative summed in index order; no quadrature
    anywhere.  A scalar anchor gives a tuple of floats; at an array of
    anchors the coefficients are one array, a row per order and a column
    per anchor.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > DERIVATIVE_CAP:
        raise ValueError(f"order {order} exceeds the cap {DERIVATIVE_CAP}")
    x = _value(s)
    zero = x == 0.0
    if not _all(x > 0.0):
        if order > 0 and _any(zero):
            raise ValueError("s = 0 is only valid for order 0")
        if _any(x < 0.0):
            raise ValueError("s must be nonnegative")
    if law.kind == DETERMINISTIC:
        e = _libm(math.exp, -x * law.spacing)
        rows = [(-law.spacing) ** i * e for i in range(order + 1)]
    else:
        a = law.spacing - law.half_width
        b = law.spacing + law.half_width
        # d^j (e^{-sa} - e^{-sb}) and d^m (1/s) = (-1)^m m! s^-(m+1),
        # combined by Leibniz; s = 0 (order 0 only) is the limit 1
        ea, eb = _libm(math.exp, -x * a), _libm(math.exp, -x * b)
        diff = [(-a) ** j * ea - (-b) ** j * eb for j in range(order + 1)]
        safe = _where(zero, 1.0, x)
        inv = [(-1.0) ** m * math.factorial(m) * _power(safe, -(m + 1)) for m in range(order + 1)]
        rows = []
        for i in range(order + 1):
            total = 0.0
            for j in range(i + 1):
                total = total + math.comb(i, j) * diff[j] * inv[i - j]
            rows.append(total / (2.0 * law.half_width))
        rows[0] = _where(zero, 1.0, rows[0])
    if isinstance(x, np.ndarray):
        return TaylorJet(x, np.array(rows))
    return TaylorJet(s, tuple(rows))


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

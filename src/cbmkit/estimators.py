"""Rate estimation from counts (asymptotic method) and from censored cycles
(maximum likelihood).

The asymptotic method inverts two monotone maps: mean inspections per
cycle determines the damage rate, then the per-cycle failure fraction
determines the failure rate.  Confidence intervals come from the
asymptotic covariance of the count rates pushed through the inverse maps
(plug-in, evaluated at the point estimates).  A batch of snapshots solves
each map in lockstep rounds, and every element keeps one slot per rate: it
holds the element's count ratio or fraction until its search ends, then
its rate or the error that stopped it, and the reports take the place of
the failure rates.  No error table runs beside the slots.

The likelihood baseline works from observables only: the damage time is
interval-censored between the last clean inspection and the end of the
cycle, failure instants are exact.  :class:`ObservedData` holds those
windows as columns, built once from a :class:`~cbmkit.simulator.CycleBatch`
(a simulated one, or a parsed event log with deterministic gaps), and every
likelihood evaluation reads them.  The fit takes Newton steps from the
asymptotic estimate: the score and the Hessian are posterior moments of the
damage age in each window (Louis's identity), from the same moments pass as
the likelihood value, and the intervals invert that Hessian at the optimum.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .config import ModelConfig
from .formulas import (
    _FAILURE_PROB_ATOL,
    _check_convention,
    _covariance_bundle,
    _estimating_maps,
    mean_inspections,
    window_moments,
)
from .laws import DETERMINISTIC, MAX_SHAPE, DamageLaw, InspectionLaw, SaneLaw, _batch
from .simulator import CountSnapshot, CycleBatch


class OutOfRangeError(ValueError):
    """Target value outside the attainable range of the inverted map."""


class DegenerateDataError(ValueError):
    """Counts carry no information about the requested parameter."""


class NonConvergenceError(RuntimeError):
    """Iterative optimization failed to converge."""


# ---------------------------------------------------------------------------
# Bracketed root finding
# ---------------------------------------------------------------------------


def _search(target: float, lo: float, hi: float, tol: float, trace: dict,
            start: float = math.nan) -> Generator[float, float, float]:
    """One inversion of a monotone map whose root the model proves to lie
    in [lo, hi] (``hi`` may be inf), as a coroutine: it yields every point
    where it needs the map, is sent the map's value there, and returns a
    point where the map is within ``tol`` of ``target``, or where the
    bracket spans at most about two ulps of it.

    The bracket: a ``start`` inside [lo, hi] is tried first, and
    [start/1.02, start*1.02], clipped to [lo, hi], is kept if its ends
    change sign.  Otherwise an open upper end is found by doubling from
    ``lo``, and a bracket wider than a factor of 2 is halved geometrically
    until an end is the root.  Proven ends of one sign raise
    OutOfRangeError, unless one of them already meets the tolerance and
    stands, and so does a lower end past the float range, before the map
    is evaluated.  The bracket goes to ``trace["bracket"]``.

    The polish, Chandrupatla (1997, Adv. Eng. Software 28:145): each step
    evaluates inverse quadratic interpolation through the two bracket ends
    and the point they last replaced where that interpolant is monotone
    over the bracket, and the midpoint elsewhere; steps keep at least an
    ulp away from the ends.  The first step bisects.
    ``trace["iterations"]`` gets the number of polish evaluations.
    """
    if not lo < math.inf:
        raise OutOfRangeError(f"target {target!r}: the proven bracket [{lo!r}, {hi!r}] "
                              "lies past the float range")
    if lo <= start <= hi:
        a, b = max(start / 1.02, lo), min(start * 1.02, hi)
        fa = (yield a) - target
        fb = (yield b) - target
    # the ends' sides by signs, not by fa * fb, which underflows to 0 below 1e-154
    if not (lo <= start <= hi and (fa <= 0.0 <= fb or fb <= 0.0 <= fa)):
        a, b = lo, hi if hi < math.inf else 2.0 * lo
        fa = (yield a) - target
        fb = (yield b) - target
        while hi == math.inf and (fa > 0.0 < fb or fa < 0.0 > fb) and 2.0 * b < math.inf:
            a, fa, b = b, fb, 2.0 * b
            fb = (yield b) - target
        if fa > 0.0 < fb or fa < 0.0 > fb:
            if min(abs(fa), abs(fb)) > tol:
                raise OutOfRangeError(
                    f"target {target!r} outside the range [{min(fa, fb) + target!r}, "
                    f"{max(fa, fb) + target!r}] of the map over its proven bracket "
                    f"[{lo!r}, {hi!r}]")
        else:
            while (fa < 0.0 < fb or fb < 0.0 < fa) and b > 2.0 * a:
                m = a * b  # sqrt(a) sqrt(b) only where a * b leaves the normal floats
                m = math.sqrt(m) if 2.0**-1022 <= m < math.inf else math.sqrt(a) * math.sqrt(b)
                fm = (yield m) - target
                if (fm > 0.0) == (fa > 0.0):
                    a, fa = m, fm
                else:
                    b, fb = m, fm
    trace["bracket"] = (a, b)
    x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    t = 0.5
    for iteration in range(200):
        size, width = abs(x), abs(b - a)
        # within tolerance, or the bracket exhausted at float resolution:
        # the best point stands
        if abs(fx) <= tol or width <= size * 4e-16:
            trace["iterations"] = iteration
            return x
        near = size * 2e-16 / width
        if t < near:
            t = near
        if t > 1.0 - near:
            t = 1.0 - near
        xt = a + t * (b - a)
        ft = (yield xt) - target
        # a is always the newest point, b the other end, c the point dropped
        if (ft > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = xt, ft
        x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
    trace["iterations"] = iteration
    if abs(fx) <= tol:
        return x
    raise NonConvergenceError("root refinement stalled before reaching tolerance")


def _solve(
    func: Callable, slots: list, brackets: Sequence[tuple], traces: list,
    rtol: float = 1e-12, atol: float = 0.0, starts: Optional[Sequence[float]] = None,
) -> list:
    """Invert a monotone map at every slot that holds a target (a float),
    all searches in lockstep: slot k over its proven bracket
    ``brackets[k]``, from ``starts[k]`` where given (see :func:`_search`),
    until the map is within rtol*|target| + atol of it.

    The searches are numbered by their position among those slots.  Each
    round evaluates ``func(x, rows)`` once, at the points of every search
    still running: ``rows`` lists their numbers and ``x`` holds their
    points, a float for one search, so one inversion computes in floats
    throughout, and an array otherwise.  Each search's slot then holds its
    root, or the error that stopped it, and its entry of ``traces`` its
    bracket, iterations and evaluations; a slot that holds an error keeps
    it.  Returns ``slots``.
    """
    live = [k for k, t in enumerate(slots) if not isinstance(t, Exception)]
    sends = [
        _search(slots[k], *brackets[k], rtol * abs(slots[k]) + atol, traces[k],
                math.nan if starts is None else starts[k]).send
        for k in live
    ]
    rows, values = list(range(len(live))), [None] * len(live)
    # a search that ends in this round has asked in every earlier one
    for evaluations in itertools.count():
        asking, points = [], []
        for r, value in zip(rows, values):
            try:
                points.append(sends[r](value))
            except StopIteration as stop:
                slots[live[r]] = stop.value
            except (OutOfRangeError, NonConvergenceError) as exc:
                slots[live[r]] = exc
            else:
                asking.append(r)
                continue
            traces[live[r]]["evaluations"] = evaluations
        rows = asking
        if not rows:
            return slots
        values = func(points[0] if len(rows) == 1 else np.array(points), rows)
        values = [values] if len(rows) == 1 else values.tolist()


def _settled(slot):
    """A slot's root, or its error raised."""
    if isinstance(slot, Exception):
        raise slot
    return slot


def _mean_inspection_roots(slots: list, shape: int, insp: InspectionLaw, traces: list) -> list:
    """:func:`invert_mean_inspections` at every slot that holds a target,
    each search from :func:`_damage_rate_start`; see :func:`_solve`.

    The proven bracket: the detection age V, the first planned age at or
    past the damage age Y, has Y <= V < Y + c + h (c the mean gap, h the
    uniform half-width), and E[V] = c r at r inspections per cycle by
    Wald's identity, so shape/(c r) <= mu < shape/(c (r - 1) - h), open
    above where c (r - 1) <= h.  Within the tolerance of 1 every large
    enough rate would meet the stopping test: no root is defined there.
    """
    c, h = insp.spacing, insp.half_width
    brackets = [(math.nan, math.nan)] * len(slots)
    starts = [math.nan] * len(slots)
    for k, t in enumerate(slots):
        if isinstance(t, Exception):
            continue
        if not t - 1.0 > 1e-12 * t:
            slots[k] = OutOfRangeError(
                "mean inspections per cycle must exceed 1 by more than the inversion "
                f"tolerance 1e-12 relative, got {t!r}")
            continue
        excess = c * (t - 1.0) - h
        brackets[k] = (shape / (c * t), shape / excess if excess > 0.0 else math.inf)
        starts[k] = _damage_rate_start(t, shape, insp)
    return _solve(lambda mu, rows: mean_inspections(SaneLaw(shape, mu), insp), slots, brackets,
                  traces, starts=starts)


def _damage_rate_start(ratio: float, shape: int, insp: InspectionLaw) -> float:
    """The damage rate at which ``ratio`` inspections per cycle are
    expected, from the moment identities: the exact inverse of
    1/(1 - exp(-mu c)) at shape 1 (deterministic gaps), and of
    shape/(mu c) + 1/2 above that, each at ``ratio`` less h^2/(6 c^2) for
    uniform gaps of half-width h; NaN where that is not above 1.

    Renewal theory gives E[N(t)] = t/c + E[G^2]/(2 c^2) - 1 + o(1) for gaps
    G, so the uniform gaps' E[G^2] = c^2 + h^2/3 adds h^2/(6 c^2) to the
    count that deterministic gaps expect."""
    c, g = insp.spacing, insp.half_width / insp.spacing
    ratio = ratio - g * g / 6.0
    if not ratio > 1.0:
        return math.nan
    if shape == 1:
        return -math.log1p(-1.0 / ratio) / c
    return shape / (c * (ratio - 0.5))


def _fraction_slot(slot):
    """A failure-fraction slot as the failure-rate search reads it: an
    error stays, and a fraction outside (0, 1), from which no failure rate
    follows, becomes one."""
    if isinstance(slot, Exception) or 0.0 < slot < 1.0:
        return slot
    return DegenerateDataError(
        f"failure rate not identifiable: per-cycle failure fraction {slot!r} is outside (0, 1)")


def _failure_rate_roots(slots: list, shape: int, mu: Sequence[float], insp: InspectionLaw,
                        traces: list, starts: Optional[Sequence[float]] = None) -> list:
    """:func:`invert_failure_probability` at every slot that holds a
    target, slot k at the damage rate ``mu[k]`` and from ``starts`` where
    given (see :func:`_solve`): one failure-probability map over the
    damage rates of the searches, built before the first round, serves
    every round (see :func:`cbmkit.formulas._estimating_maps`).

    The proven bracket: a cycle fails when its failure time, exponential
    at rate lam from the damage age, comes before the detection delay W
    = V - Y, so p = 1 - E[exp(-lam W)], where 0 <= W <= w = c + h and
    E[W] = c E[K](mu) - shape/mu with E[K] the mean inspections per cycle,
    the builder's other map.  Jensen's inequality gives
    lam >= -log1p(-p)/E[W], and the Edmundson-Madansky bound on the
    convex exp(-lam W) over [0, w] (Madansky 1959) gives
    lam <= -log1p(-p w/E[W])/w, open above where p w >= E[W].  As -log1p(-t)
    is convex, the ends are in order wherever 0 < E[W] <= w; an E[W] that
    cancels outside that range (many inspections a cycle) is refused.
    """
    slots[:] = map(_fraction_slot, slots)
    live = [k for k, t in enumerate(slots) if not isinstance(t, Exception)]
    if not live:
        return slots
    mean, failure = _estimating_maps(SaneLaw(shape, _batch([mu[k] for k in live])), insp)
    w = insp.spacing + insp.half_width
    brackets = [(math.nan, math.nan)] * len(slots)
    for k, mean_k in zip(live, np.atleast_1d(mean).tolist()):
        p, delay = slots[k], insp.spacing * mean_k - shape / mu[k]
        if 0.0 < delay <= w:
            brackets[k] = (-math.log1p(-p) / delay,
                           -math.log1p(-p * w / delay) / w if p * w < delay else math.inf)
        else:
            slots[k] = OutOfRangeError(f"failure rate not bracketed: the mean detection delay "
                                       f"c E[K] - shape/mu = {delay!r} lies outside (0, {w!r}], "
                                       f"lost to cancellation at E[K] = {mean_k!r}")
    return _solve(failure, slots, brackets, traces, atol=_FAILURE_PROB_ATOL, rtol=0.0,
                  starts=starts)


def invert_mean_inspections(target: float, shape: int, insp: InspectionLaw) -> float:
    """Damage rate whose mean inspections-per-cycle equals ``target``.

    The map decreases from +inf (rate -> 0) to 1 (rate -> inf), so targets
    not above 1 by more than the inversion tolerance are rejected.  The
    search starts from the moment identities (see
    :func:`_mean_inspection_roots`).
    """
    return _settled(_mean_inspection_roots([target], shape, insp, [{}])[0])


def invert_failure_probability(target: float, sane: SaneLaw, insp: InspectionLaw) -> float:
    """Failure rate whose per-cycle failure probability equals ``target``,
    searched over the bracket that the model proves (see
    :func:`_failure_rate_roots`)."""
    return _settled(_failure_rate_roots([target], sane.shape, [sane.rate], insp, [{}])[0])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_HEADER = (
    "method,mu_hat,mu_lo,mu_hi,lambda_hat,lambda_lo,lambda_hi,"
    "confidence,t,n_r,n_i,n_f,seed"
)
_REPORT_ROW = "%s" + ",%.17g" * 11 + ",%s\n"


@dataclass(frozen=True)
class EstimateReport:
    method: str
    mu_hat: float
    lambda_hat: float
    ci_mu: tuple[float, float]
    ci_lambda: tuple[float, float]
    confidence: float
    diagnostics: dict = field(default_factory=dict)

    def csv_row(self, counts: CountSnapshot, seed: Optional[int]) -> str:
        """The report's line of the estimate CSV, with the counts it was
        estimated from."""
        return _REPORT_ROW % (
            self.method, self.mu_hat, *self.ci_mu, self.lambda_hat, *self.ci_lambda,
            self.confidence, counts.time, counts.repairs, counts.inspections, counts.failures,
            "" if seed is None else seed,
        )


def _report(method: str, mu: float, lam: float, se_mu: float, se_lam: float, z: float,
            confidence: float, **diagnostics) -> EstimateReport:
    """The report of estimates ``mu`` and ``lam`` with standard errors
    ``se_mu`` and ``se_lam``: intervals of half-width z * se."""
    hw_mu = z * se_mu
    hw_lam = z * se_lam
    return EstimateReport(method, mu, lam, (mu - hw_mu, mu + hw_mu), (lam - hw_lam, lam + hw_lam),
                          confidence, diagnostics)


def _standard_error(var: float, t: float) -> float:
    """sqrt(var / t) in Python floats, taken as sqrt(var) / sqrt(t) where the
    quotient leaves the normal floats (it overflows at a subnormal time)."""
    q = float(var) / float(t)
    return math.sqrt(q) if 2.0**-1022 <= q < math.inf else math.sqrt(var) / math.sqrt(t)


def _z_quantile(confidence: float) -> float:
    if confidence == 0.0:
        return 0.0
    # imported here: `statistics` loads random, fractions and decimal,
    # which nothing else in cbmkit needs
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


# ---------------------------------------------------------------------------
# Asymptotic method
# ---------------------------------------------------------------------------


def asymptotic_estimate(
    snapshot: CountSnapshot, config: ModelConfig, interval: str = "delta"
) -> EstimateReport:
    """Point estimates and confidence intervals from bare counts.

    The snapshot's counts may be real-valued (useful for exact round-trip
    checks); only their ratios and the elapsed time enter.  ``interval``
    selects the conventions of the bundled reference tables versus the
    internally consistent construction:

    * ``delta`` (default): failure rate by inverting the failure
      probability in the per-cycle failure fraction, covariance by the
      exact linearization.  Round-trips exactly and achieves nominal
      interval coverage.
    * ``tabulated``: failure rate from the mean-cycle identity
      fraction / (observed mean cycle - shape/mu), covariance per the
      reference tables' conventions (see
      :func:`cbmkit.formulas.estimator_covariance`).  Both estimators are
      consistent and coincide on exact inputs; the tabulated one matches
      the published rows.

    This is :func:`asymptotic_estimates` on one snapshot, its error raised.
    """
    return _settled(_estimates([snapshot], config, interval)[0][0])


def asymptotic_estimates(
    snapshots: Sequence[CountSnapshot], config: ModelConfig, interval: str = "delta"
) -> list:
    """:func:`asymptotic_estimate` of every snapshot, solved as one batch.

    Returns one entry per snapshot: its report, or the error its single
    estimate raises (OutOfRangeError, NonConvergenceError, or
    DegenerateDataError, also where the covariance is not defined),
    returned rather than raised.  Every report equals the single
    estimate's bit for bit, whatever else the batch holds: each element's
    searches run in the batch's lockstep rounds, and its slot carries its
    rate or its error from the first check to the report.
    """
    return _estimates(snapshots, config, interval)[0]


def _time_error(time: float) -> Optional[DegenerateDataError]:
    """The error of an elapsed time that is not finite and positive, from
    which neither estimator takes a rate; None for any other time."""
    if 0.0 < time < math.inf:
        return None
    return DegenerateDataError(f"elapsed time {time!r} is not finite and positive")


def _count_rates(snapshots: Sequence[CountSnapshot], shape: int, insp: InspectionLaw,
                 mu_traces: list, lam_traces: list, tabulated: bool = False) -> tuple:
    """The damage-rate and the failure-rate slots of every snapshot, each
    its rate or the error that leaves it undefined: the two searches of
    the asymptotic method, the second started from the mean-cycle identity
    (observed mean cycle = shape/mu + fraction/rate), which is also the
    ``tabulated`` rate.  A snapshot whose elapsed time is not finite and
    positive, and then one with no completed cycle, gets that error in both
    slots; one with no failure keeps its damage rate, and its failure rate
    is the error "no failures observed", before any error of the damage
    rate, of its fraction or of its search."""
    ratios = [
        _time_error(s.time) or (
            s.inspections / s.repairs if s.repairs >= 1
            else DegenerateDataError("no completed cycles: nothing to estimate"))
        for s in snapshots]
    mu = _mean_inspection_roots(ratios, shape, insp, mu_traces)
    lam, delays = [], []
    for s, r, m in zip(snapshots, ratios, mu):
        if not isinstance(r, Exception) and s.failures < 1:
            m = DegenerateDataError("lambda not identifiable: no failures observed")
        lam.append(m if isinstance(m, Exception) else s.failures / s.repairs)
        delays.append(math.nan if isinstance(m, Exception) else s.time / s.repairs - shape / m)
    identity = [f / d if d > 0.0 else math.nan for f, d in zip(lam, delays)]
    if not tabulated:
        return mu, _failure_rate_roots(lam, shape, mu, insp, lam_traces, identity)
    short = "observed mean cycle is shorter than the implied mean damage time"
    return mu, [f if isinstance(f, Exception) else OutOfRangeError(short) if d <= 0.0 else rate
                for f, rate, d in zip(map(_fraction_slot, lam), identity, delays)]


def _estimates(snapshots: Sequence[CountSnapshot], config: ModelConfig, interval: str) -> tuple:
    """:func:`asymptotic_estimates`, and the damage-rate slot of every
    snapshot (see :func:`_count_rates`), which holds its rate also where
    the estimate fails later on."""
    _check_convention(interval)
    for snap in snapshots:
        if snap.failures >= 1 and 1 <= snap.repairs < 100:
            # stack: here, asymptotic_estimate(s), its caller
            warnings.warn(f"only {snap.repairs} cycles observed; asymptotic intervals are dubious",
                          stacklevel=3)

    shape = config.sane.shape
    insp = config.inspection
    mu_traces: list = [{} for _ in snapshots]
    lam_traces: list = [{} for _ in snapshots]
    # the failure-rate slots become the results
    mu, results = _count_rates(snapshots, shape, insp, mu_traces, lam_traces,
                               interval == "tabulated")

    solved = [i for i, lam in enumerate(results) if not isinstance(lam, Exception)]
    if not solved:
        return results, mu
    bundle, problems = _covariance_bundle(
        SaneLaw(shape, _batch([mu[i] for i in solved])),
        DamageLaw(_batch([results[i] for i in solved])), insp, interval,
    )
    z = _z_quantile(config.confidence)
    for k, i in enumerate(solved):
        if problems[k] is not None:
            results[i] = DegenerateDataError(problems[k])
            continue
        param_cov = np.reshape(bundle.param_cov, (-1, 2, 2))[k]
        var_mu, var_lam = param_cov[0, 0], param_cov[1, 1]
        if not (var_mu >= 0.0 and var_lam >= 0.0):
            results[i] = DegenerateDataError(
                f"interval covariance not defined: parameter variances {float(var_mu)!r} "
                f"and {float(var_lam)!r}")
            continue
        mu_trace, lam_trace, t = mu_traces[i], lam_traces[i], snapshots[i].time
        results[i] = _report(
            "AM", mu[i], results[i], _standard_error(var_mu, t), _standard_error(var_lam, t), z,
            config.confidence,
            mu_bracket=mu_trace.get("bracket"),
            mu_iterations=mu_trace.get("iterations"),
            mu_evaluations=mu_trace.get("evaluations"),
            lambda_bracket=lam_trace.get("bracket"),
            lambda_iterations=lam_trace.get("iterations"),
            lambda_evaluations=lam_trace.get("evaluations"),
        )
    return results, mu


# ---------------------------------------------------------------------------
# Censored maximum likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ObservedData:
    """What an observer sees of a set of cycles, as the likelihood reads it.

    Every cycle contributes its censoring window, from its last clean
    inspection ``a`` (0 without one) to its end ``b``: the detection age or
    the exact failure age.  Both columns keep cycle order; ``counts`` are
    the batch's counts at the end of its last cycle, whose time, the
    running sum of ``b``, is the total time the likelihood reads.
    """

    a: np.ndarray
    b: np.ndarray
    counts: CountSnapshot

    @classmethod
    def from_event_log_records(
        cls, cycles: CycleBatch, insp: InspectionLaw
    ) -> "ObservedData":
        """The observables of a batch of cycles.

        The last clean inspections come from the batch's inspection ages
        when it has them.  Deterministic batches and logs have none; with
        deterministic gaps the k-th age is ``c * k``, and with any other gap law the
        likelihood cannot be built (DegenerateDataError), nor where a cycle
        does not end after its last clean inspection.
        """
        k = cycles.inspection_count
        if cycles.inspection_ages.size:
            last = cycles.totals.inspections[1:] - 1
            a = np.where(k >= 2, cycles.inspection_ages[np.maximum(last - 1, 0)], 0.0)
        elif insp.kind == DETERMINISTIC:
            a = insp.spacing * (k - 1)
        else:
            raise DegenerateDataError(
                "event logs do not carry the planned schedule; the censored "
                "likelihood from a log requires deterministic gaps"
            )
        b = cycles.length
        if not (b > a).all():
            i = int(np.argmin(b > a))
            raise DegenerateDataError(
                f"cycle {i + 1} ends at age {float(b[i])!r}, not after its last clean "
                f"inspection at age {float(a[i])!r}"
            )
        return cls(a, b, cycles.counts())


@dataclass(frozen=True)
class _LikelihoodTerms:
    """The censored log-likelihood with its gradient and Hessian in the log
    rates, which have no unit, from one moments pass over the windows."""

    value: float
    score: np.ndarray
    hessian: np.ndarray
    # the complete-data curvatures C = (mu sum E[u], lam sum E[b - u])
    complete: np.ndarray


def _likelihood_terms(data: ObservedData, sane: SaneLaw, damage: DamageLaw) -> _LikelihoodTerms:
    """ℓ = N(n log mu - log (n-1)!) + n_f log lam + sum_i log Z_i with
    Z_i = int_a^b u^(n-1) exp(-mu u - lam (b-u)) du.  In the log rates, with
    C as above, V = mu^2 sum Var_i[u] and rho = lam/mu, the score is
    (N n, n_f) - C and the Hessian [[V, -rho V], [-rho V, rho^2 V]] - diag(C);
    a non-finite value reads as -inf."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    n_fail, n_all = data.counts.failures, data.counts.repairs
    rho = lam / mu
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_value, mean_w, var_w = window_moments(data.a, data.b, sane, damage)
        value = n_fail * math.log(lam) + float(log_value.sum())
        sum_w = float(mean_w.sum())
        complete = np.array([mu * data.counts.time - sum_w, rho * sum_w])
        var = float(var_w.sum())
    if not math.isfinite(value + sum_w + var):
        value = -math.inf
    cross = rho * var
    hessian = np.array([[var, -cross], [-cross, rho * cross]]) - np.diag(complete)
    return _LikelihoodTerms(value, np.array([n_all * n, n_fail]) - complete, hessian, complete)


def censored_log_likelihood(
    data: ObservedData, sane: SaneLaw, damage: DamageLaw
) -> float:
    """Log-likelihood of the observables under the two candidate laws.

    A cycle that ends at age b after a clean inspection at age a
    contributes log int_a^b exp(-lam (b-u)) dF_s(u), and log lam more when
    it ends in an exact failure.  The sum is over cycles, order-free; the
    value is the one the fit's Newton steps read.
    """
    return _likelihood_terms(data, sane, damage).value


def _rates(logs: np.ndarray) -> tuple[float, float]:
    # the scalar exp, the same on every CPU (numpy's vector exp may not be)
    return math.exp(logs[0]), math.exp(logs[1])


# the Newton fit stops once a step is at most this in both log parameters,
# and gives up after this many steps
_STEP_TOL = 1e-10
_MAX_STEPS = 50


def _newton_fit(
    data: ObservedData, shape: int, start: np.ndarray
) -> tuple[np.ndarray, _LikelihoodTerms, int, int]:
    """Maximize the censored likelihood over (log mu, log lam) by Newton.

    Each step solves with the analytic Hessian in the log parameters; where
    that is not negative definite it falls back to the complete-data
    curvature (an EM-like step, always uphill).  Steps are capped at 1 in
    each log parameter and halved until the likelihood does not drop by more
    than its rounding.  Converged when the Newton step is at most
    ``_STEP_TOL`` in both log parameters; returns the last evaluated point,
    its terms, the steps taken and the likelihood evaluations.
    """

    def terms_at(logs: np.ndarray) -> _LikelihoodTerms:
        mu, lam = _rates(logs)
        return _likelihood_terms(data, SaneLaw(shape, mu), DamageLaw(lam))

    logs = np.array(start, dtype=float)
    terms = terms_at(logs)
    evaluations = 1
    if not math.isfinite(terms.value):
        raise NonConvergenceError("censored likelihood is not finite at the start")
    for iteration in range(_MAX_STEPS):
        grad, hess = terms.score, terms.hessian
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        if hess[0, 0] < 0.0 and det > 0.0:
            step = np.array([
                hess[0, 1] * grad[1] - hess[1, 1] * grad[0],
                hess[0, 1] * grad[0] - hess[0, 0] * grad[1],
            ]) / det
        else:
            step = grad / terms.complete
        size = float(np.max(np.abs(step)))
        if size <= _STEP_TOL:
            return logs, terms, iteration, evaluations
        if size > 1.0:
            step = step / size
        slack = 1e-13 * abs(terms.value)
        for _ in range(60):
            trial_logs = logs + step
            trial = terms_at(trial_logs)
            evaluations += 1
            if trial.value >= terms.value - slack:
                break
            step = step / 2.0
        else:
            raise NonConvergenceError("Newton step found no likelihood increase")
        logs, terms = trial_logs, trial
    raise NonConvergenceError(f"Newton iteration did not converge in {_MAX_STEPS} steps")


def mle_estimate(data: ObservedData, config: ModelConfig) -> EstimateReport:
    """Censored maximum likelihood over (log mu, log lam).

    Starts from the asymptotic delta estimate of the data's counts (up to
    MAX_SHAPE), from the same searches and so with the same bits as
    :func:`asymptotic_estimate`, and takes safeguarded Newton steps on the
    analytic score and Hessian (see
    :func:`_newton_fit`); intervals come from the inverse observed
    information, the same analytic Hessian at the optimum.  Diagnostics:
    the Newton ``iterations``, the ``likelihood_evaluations`` (each one
    moments pass), the final ``log_likelihood`` and ``score_norm``
    (Euclidean norm of the score in the log parameters), and the start.
    An elapsed time that is not finite and positive raises the asymptotic
    method's DegenerateDataError before anything else is read.
    """
    counts = data.counts
    error = _time_error(counts.time)
    if error:
        raise error
    n_r, n_fail = counts.repairs, counts.failures
    if n_fail == 0 or n_fail == n_r:
        raise DegenerateDataError(
            "censored likelihood needs at least one detection and one failure"
        )
    shape = config.sane.shape
    insp = config.inspection

    # crude moment start above the closed forms' shapes, or when the count
    # ratios are uninformative
    start_mu, start_lam = shape * n_r / counts.time, n_fail / counts.time
    if shape <= MAX_SHAPE:
        (mu,), (lam,) = _count_rates([counts], shape, insp, [{}], [{}])
        if isinstance(lam, NonConvergenceError):
            raise lam
        if not isinstance(lam, Exception):
            start_mu, start_lam = mu, lam

    start_logs = np.array([math.log(start_mu), math.log(start_lam)])
    logs, terms, iterations, evaluations = _newton_fit(data, shape, start_logs)
    mu_hat, lam_hat = _rates(logs)

    # the observed information in the log rates has no time unit, nor has
    # its inverse; each rate enters its interval once, never squared
    info = np.diag(terms.score) - terms.hessian
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    if det <= 0.0 or info[0, 0] <= 0.0:
        raise NonConvergenceError("observed information is not positive definite")
    inverse = np.array([[info[1, 1], -info[0, 1]], [-info[0, 1], info[0, 0]]]) / det
    return _report(
        "MLE", mu_hat, lam_hat, mu_hat * math.sqrt(inverse[0, 0]),
        lam_hat * math.sqrt(inverse[1, 1]), _z_quantile(config.confidence), config.confidence,
        iterations=iterations,
        likelihood_evaluations=evaluations,
        log_likelihood=terms.value,
        score_norm=math.hypot(*terms.score),
        n_cycles=n_r,
        start_mu=start_mu,
        start_lambda=start_lam,
    )


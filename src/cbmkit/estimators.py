"""Rate estimation from counts (asymptotic method) and from censored cycles
(maximum likelihood).

The asymptotic method inverts two monotone maps: mean inspections per
cycle determines the damage rate, then the per-cycle failure fraction
determines the failure rate.  Confidence intervals come from the
asymptotic covariance of the count rates pushed through the inverse maps
(plug-in, evaluated at the point estimates).

The likelihood baseline works from observables only: the damage time is
interval-censored between the last clean inspection and the end of the
cycle, failure instants are exact.  :class:`ObservedData` holds those
windows as columns, built once from a :class:`~cbmkit.simulator.CycleBatch`
(a simulated one, or a parsed event log with deterministic gaps), and every
likelihood evaluation reads them.  The fit takes Newton steps from the
asymptotic estimate: the score and the Hessian are posterior moments of the
damage age in each window (Louis's identity), from the same moments pass as
the likelihood value, and the intervals invert that Hessian at the optimum.
A fully observed variant (closed-form, uses the latent times) is provided
for verification.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .config import ModelConfig
from .formulas import (
    _covariance_bundle,
    failure_probability,
    mean_inspections,
    window_moments,
)
from .laws import DETERMINISTIC, DamageLaw, InspectionLaw, SaneLaw
from .simulator import CountSnapshot, CycleBatch, CycleRecord


class OutOfRangeError(ValueError):
    """Target value outside the attainable range of the inverted map."""


class DegenerateDataError(ValueError):
    """Counts carry no information about the requested parameter."""


class NonConvergenceError(RuntimeError):
    """Iterative optimization failed to converge."""


# ---------------------------------------------------------------------------
# Bracketed root finding
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _scan_grid(lo: float, hi: float) -> tuple:
    """The scan's 64-point geometric grid over [lo, hi], as floats, built
    once for every search that reaches it."""
    return tuple(np.geomspace(lo, hi, 64).tolist())


def _search(
    target: float, lo: float, hi: float, rtol: float, atol: float, max_expand: int, trace: dict
) -> Generator[float, float, float]:
    """One inversion of a monotone map, as a coroutine: it yields every
    point where it needs the map, is sent the map's value there, and
    returns the root or raises (see :func:`invert_monotone`)."""
    for _ in range(max_expand):
        xs = _scan_grid(lo, hi)
        first = (yield xs[0]) - target
        last = (yield xs[-1]) - target
        if first == 0.0:
            return xs[0]
        if first * last <= 0.0:
            # i keeps the sign of the first point, j is the first index found
            # that does not
            i, j, fi, fj = 0, len(xs) - 1, first, last
            while j - i > 1:
                mid = (i + j) // 2
                fm = (yield xs[mid]) - target
                if first * fm > 0.0:
                    i, fi = mid, fm
                else:
                    j, fj = mid, fm
            break
        lo, hi = lo / 100.0, hi * 100.0
    else:
        raise OutOfRangeError(
            f"target {target!r} outside the attainable range "
            f"[{min(first, last) + target!r}, {max(first, last) + target!r}]"
        )
    trace["bracket"] = (xs[i], xs[j])
    return (yield from _chandrupatla(xs[i], xs[j], fi, fj, rtol * abs(target) + atol, trace,
                                     target))


def _chandrupatla(
    a: float, b: float, fa: float, fb: float, tol: float, trace: dict, offset: float = 0.0
) -> Generator[float, float, float]:
    """Shrink a sign-change bracket [a, b] of g (values fa, fb) until
    |g(x)| <= tol at its best point x, or until it spans at most about two
    ulps of x, when x stands; a coroutine like :func:`_search`, sent the
    values of g + ``offset``.

    Chandrupatla (1997, Adv. Eng. Software 28:145): each step evaluates
    inverse quadratic interpolation through the two bracket ends and the
    point they last replaced where that interpolant is monotone over the
    bracket, and the midpoint elsewhere; steps keep at least an ulp away
    from the ends.  The first step bisects.  ``trace["iterations"]`` gets
    the number of g evaluations made here.
    """
    x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    t = 0.5
    for iteration in range(200):
        trace["iterations"] = iteration
        if abs(fx) <= tol:
            return x
        width = abs(b - a)
        if width <= abs(x) * 4e-16:
            # bracket exhausted at float resolution; best point stands
            return x
        near = abs(x) * 2e-16 / width
        t = min(max(t, near), 1.0 - near)
        xt = a + t * (b - a)
        ft = (yield xt) - offset
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
    if abs(fx) <= tol:
        return x
    raise NonConvergenceError("root refinement stalled before reaching tolerance")


def _solve(
    func: Callable, targets: Sequence[float], errors: list, traces: list, lo: float = 1e-8,
    hi: float = 1e2, rtol: float = 1e-12, atol: float = 0.0, max_expand: int = 8,
) -> list:
    """Invert a monotone map at every target whose entry of ``errors`` is
    None, all searches in lockstep.

    Each round evaluates ``func(x, rows)`` once, at the points of every
    search still running: ``rows`` lists their indices into ``targets``
    and ``x`` holds their points, a float for one search and an array for
    several, so one inversion computes in floats throughout.  Returns the
    roots (NaN where there is none); a search's error goes to its entry of
    ``errors`` and its bracket, iterations and evaluations to its entry of
    ``traces``.
    """
    roots = [math.nan] * len(targets)
    searches = {}
    for k, target in enumerate(targets):
        if errors[k] is None:
            traces[k]["evaluations"] = 0
            searches[k] = _search(target, lo, hi, rtol, atol, max_expand, traces[k])
    rows, values = list(searches), [None] * len(searches)
    while rows:
        asking, points = [], []
        for k, value in zip(rows, values):
            try:
                points.append(searches[k].send(value))
            except StopIteration as stop:
                roots[k] = stop.value
            except (OutOfRangeError, NonConvergenceError) as exc:
                errors[k] = exc
            else:
                asking.append(k)
                traces[k]["evaluations"] += 1
        rows = asking
        if rows:
            values = func(points[0] if len(points) == 1 else np.array(points), rows)
            values = values.tolist() if isinstance(values, np.ndarray) else [values]
    return roots


def invert_monotone(
    func: Callable[[float], float],
    target: float,
    lo: float = 1e-8,
    hi: float = 1e2,
    rtol: float = 1e-12,
    atol: float = 0.0,
    max_expand: int = 8,
    trace: Optional[dict] = None,
) -> float:
    """Solve func(x) = target for monotone func on a positive domain.

    Finds the first interval of a 64-point geometric grid over [lo, hi]
    where func - target reaches zero or changes sign, expanding the
    interval geometrically if there is none, then polishes that bracket by
    Chandrupatla's method (:func:`_chandrupatla`) until
    |func(x) - target| <= rtol*|target| + atol, or until the bracket
    reaches float resolution, when its best point stands.  Monotonicity
    makes the signs on the grid one run of the first point's sign followed
    by the rest, so that interval is found by bisecting over the grid
    indices from the two end points, in 8 evaluations per grid.
    Raises OutOfRangeError when no bracket exists and NonConvergenceError
    when the polish stalls.  When ``trace`` is given it receives the
    bracket used, the polish iteration count and the number of func
    evaluations.  This is :func:`_solve` on one target.
    """
    errors = [None]
    roots = _solve(lambda x, rows: func(x), [target], errors, [{} if trace is None else trace],
                   lo, hi, rtol, atol, max_expand)
    return _only(roots, errors)


def _only(roots: list, errors: list) -> float:
    """The root of a one-target solve, or its error raised."""
    if errors[0] is not None:
        raise errors[0]
    return roots[0]


def _mean_inspection_roots(targets: Sequence[float], shape: int, insp: InspectionLaw,
                           errors: list, traces: list) -> list:
    """:func:`invert_mean_inspections` at every target at once."""
    for k, t in enumerate(targets):
        if errors[k] is None and not t > 1.0:
            errors[k] = OutOfRangeError(f"mean inspections per cycle must exceed 1, got {t!r}")
    return _solve(lambda mu, rows: mean_inspections(SaneLaw(shape, mu), insp), targets, errors,
                  traces)


def _failure_rate_roots(targets: Sequence[float], shape: int, mu: Sequence[float],
                        insp: InspectionLaw, errors: list, traces: list) -> list:
    """:func:`invert_failure_probability` at every target at once, target
    k at the damage rate ``mu[k]``."""
    for k, t in enumerate(targets):
        if errors[k] is None and not 0.0 < t < 1.0:
            errors[k] = DegenerateDataError(
                "failure rate not identifiable: per-cycle failure fraction "
                f"{t!r} is outside (0, 1)")

    def func(lam, rows: list):
        sane = SaneLaw(shape, _batch([mu[k] for k in rows]))
        return failure_probability(sane, DamageLaw(lam), insp)

    return _solve(func, targets, errors, traces, atol=1e-12, rtol=0.0)


def _batch(values: list):
    """A float for one value, an array for several."""
    return values[0] if len(values) == 1 else np.array(values)


def invert_mean_inspections(
    target: float, shape: int, insp: InspectionLaw, trace: Optional[dict] = None
) -> float:
    """Damage rate whose mean inspections-per-cycle equals ``target``.

    The map decreases from +inf (rate -> 0) to 1 (rate -> inf), so targets
    at or below 1 are rejected.
    """
    errors = [None]
    roots = _mean_inspection_roots([target], shape, insp, errors, [{} if trace is None else trace])
    return _only(roots, errors)


def invert_failure_probability(
    target: float, sane: SaneLaw, insp: InspectionLaw, trace: Optional[dict] = None
) -> float:
    """Failure rate whose per-cycle failure probability equals ``target``."""
    errors = [None]
    roots = _failure_rate_roots([target], sane.shape, [sane.rate], insp, errors,
                                [{} if trace is None else trace])
    return _only(roots, errors)


def failure_rate_from_cycle_identity(
    fail_fraction: float, mu_hat: float, t: float, n_r: float, shape: int
) -> float:
    """Failure rate from the mean-cycle identity, the reference tables'
    convention.

    Solves mean cycle = shape/mu + fraction/rate with the observed mean
    cycle t/n_r plugged in.  Consistent like the probability inversion
    (the two coincide on exact inputs) but uses the observed cycle length
    instead of the failure-probability map.
    """
    if not 0.0 < fail_fraction < 1.0:
        raise DegenerateDataError(
            "failure rate not identifiable: per-cycle failure fraction "
            f"{fail_fraction!r} is outside (0, 1)"
        )
    denom = t / n_r - shape / mu_hat
    if denom <= 0.0:
        raise OutOfRangeError(
            "observed mean cycle is shorter than the implied mean damage time"
        )
    return fail_fraction / denom


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_HEADER = (
    "method,mu_hat,mu_lo,mu_hi,lambda_hat,lambda_lo,lambda_hi,"
    "confidence,t,n_r,n_i,n_f,seed"
)


@dataclass(frozen=True)
class EstimateReport:
    method: str
    mu_hat: float
    lambda_hat: float
    ci_mu: tuple[float, float]
    ci_lambda: tuple[float, float]
    confidence: float
    sigma2: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def csv_row(
        self,
        t: float = float("nan"),
        n_r: float = float("nan"),
        n_i: float = float("nan"),
        n_f: float = float("nan"),
        seed: Optional[int] = None,
    ) -> str:
        cells = [
            self.method,
            format(self.mu_hat, ".17g"),
            format(self.ci_mu[0], ".17g"),
            format(self.ci_mu[1], ".17g"),
            format(self.lambda_hat, ".17g"),
            format(self.ci_lambda[0], ".17g"),
            format(self.ci_lambda[1], ".17g"),
            format(self.confidence, ".17g"),
            format(t, ".17g"),
            format(n_r, ".17g"),
            format(n_i, ".17g"),
            format(n_f, ".17g"),
            "" if seed is None else str(seed),
        ]
        return ",".join(cells)


def _z_quantile(confidence: float) -> float:
    if not 0.0 <= confidence < 1.0:
        raise ValueError("confidence must lie in [0, 1)")
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
    snapshot: CountSnapshot,
    config: ModelConfig,
    confidence: Optional[float] = None,
    interval: str = "delta",
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
    (report,) = _estimates([snapshot], config, confidence, interval)
    if isinstance(report, Exception):
        raise report
    return report


def asymptotic_estimates(
    snapshots: Sequence[CountSnapshot],
    config: ModelConfig,
    confidence: Optional[float] = None,
    interval: str = "delta",
) -> list:
    """:func:`asymptotic_estimate` of every snapshot, solved as one batch.

    Returns one entry per snapshot: its report, or the error its single
    estimate raises (OutOfRangeError, DegenerateDataError,
    NonConvergenceError, or a ValueError where the covariance is not
    defined), returned rather than raised.  Every report equals the single
    estimate's bit for bit, whatever else the batch holds.
    """
    return _estimates(snapshots, config, confidence, interval)


def _estimates(
    snapshots: Sequence[CountSnapshot],
    config: ModelConfig,
    confidence: Optional[float],
    interval: str,
) -> list:
    confidence = config.confidence if confidence is None else confidence
    errors: list = []
    for snap in snapshots:
        n_r, n_i, n_f = snap.repairs, snap.inspections, snap.failures
        if n_r < 1:
            errors.append(DegenerateDataError("no completed cycles: nothing to estimate"))
        elif n_i <= n_r:
            errors.append(OutOfRangeError("mean inspections per cycle must exceed 1"))
        elif n_f < 1:
            errors.append(DegenerateDataError("lambda not identifiable: no failures observed"))
        else:
            errors.append(None)
            if n_r < 100:
                # stack: here, asymptotic_estimate(s), its caller
                warnings.warn(
                    f"only {n_r} cycles observed; asymptotic intervals are dubious",
                    stacklevel=3,
                )

    shape = config.sane.shape
    insp = config.inspection
    ratios = [math.nan if e else s.inspections / s.repairs for s, e in zip(snapshots, errors)]
    fractions = [math.nan if e else s.failures / s.repairs for s, e in zip(snapshots, errors)]
    mu_traces: list = [{} for _ in snapshots]
    lam_traces: list = [{} for _ in snapshots]
    mu_hat = _mean_inspection_roots(ratios, shape, insp, errors, mu_traces)
    if interval == "tabulated":
        lam_hat = [math.nan] * len(snapshots)
        for i, snap in enumerate(snapshots):
            if errors[i] is None:
                try:
                    lam_hat[i] = failure_rate_from_cycle_identity(
                        fractions[i], mu_hat[i], snap.time, snap.repairs, shape
                    )
                except (OutOfRangeError, DegenerateDataError) as exc:
                    errors[i] = exc
    else:
        lam_hat = _failure_rate_roots(fractions, shape, mu_hat, insp, errors, lam_traces)

    solved = [i for i, e in enumerate(errors) if e is None]
    if not solved:
        return errors
    bundle, problems = _covariance_bundle(
        SaneLaw(shape, _batch([mu_hat[i] for i in solved])),
        DamageLaw(_batch([lam_hat[i] for i in solved])), insp, interval,
    )
    z = _z_quantile(confidence)
    results = list(errors)
    for k, i in enumerate(solved):
        snap, mu_trace, lam_trace = snapshots[i], mu_traces[i], lam_traces[i]
        mu_i, lam_i, t = mu_hat[i], lam_hat[i], snap.time
        try:
            if problems[k] is not None:
                raise ValueError(problems[k])
            param_cov = bundle.param_cov if len(solved) == 1 else bundle.param_cov[k]
            hw_mu = z * math.sqrt(param_cov[0, 0] / t)
            hw_lam = z * math.sqrt(param_cov[1, 1] / t)
        except ValueError as exc:
            results[i] = exc
            continue
        results[i] = EstimateReport(
            method="AM",
            mu_hat=mu_i,
            lambda_hat=lam_i,
            ci_mu=(mu_i - hw_mu, mu_i + hw_mu),
            ci_lambda=(lam_i - hw_lam, lam_i + hw_lam),
            confidence=confidence,
            sigma2=param_cov,
            diagnostics={
                "interval": interval,
                "t": t,
                "n_r": snap.repairs,
                "n_i": snap.inspections,
                "n_f": snap.failures,
                "mu_bracket": mu_trace.get("bracket"),
                "mu_iterations": mu_trace.get("iterations"),
                "mu_evaluations": mu_trace.get("evaluations"),
                "lambda_bracket": lam_trace.get("bracket"),
                "lambda_iterations": lam_trace.get("iterations"),
                "lambda_evaluations": lam_trace.get("evaluations"),
            },
        )
    return results


# ---------------------------------------------------------------------------
# Censored maximum likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ObservedData:
    """What an observer sees of a set of cycles, as the likelihood reads it.

    A detection cycle contributes the window from its last clean inspection
    ``det_a`` to the detection ``det_b``; a failure cycle its last clean
    inspection ``fail_a`` and its exact failure age ``fail_z``.  Without a
    clean inspection the age is 0.  Each column keeps cycle order.  The
    failures count as inspections in ``n_inspections``, and ``total_time``
    is the running sum of the cycle lengths.
    """

    det_a: np.ndarray
    det_b: np.ndarray
    fail_a: np.ndarray
    fail_z: np.ndarray
    n_inspections: int
    total_time: float

    @classmethod
    def from_event_log_records(
        cls, cycles: CycleBatch, insp: InspectionLaw
    ) -> "ObservedData":
        """The observables of a batch of cycles.

        The censoring windows come from the batch's inspection ages when it
        has them.  A parsed event log has none; with deterministic gaps the
        k-th age is ``c * k``, and with any other gap law the likelihood
        cannot be built (DegenerateDataError).
        """
        k = cycles.inspection_count
        if cycles.inspection_ages.size:
            ages = cycles.inspection_ages
            last = cycles.totals.inspections[1:] - 1
            before = np.where(k >= 2, ages[np.maximum(last - 1, 0)], 0.0)
            end = ages[last]
        elif insp.kind == DETERMINISTIC:
            before = insp.spacing * (k - 1)
            end = insp.spacing * k
        else:
            raise DegenerateDataError(
                "event logs do not carry the planned schedule; the censored "
                "likelihood from a log requires deterministic gaps"
            )
        failed = cycles.failed
        counts = cycles.counts()
        return cls(
            before[~failed], end[~failed], before[failed], cycles.length[failed],
            counts.inspections, counts.time,
        )


@dataclass(frozen=True)
class _LikelihoodTerms:
    """The censored log-likelihood with its gradient and Hessian in
    (mu, lam), from one moments pass over each window set."""

    value: float
    score: np.ndarray
    hessian: np.ndarray
    # the complete-data curvatures mu * sum E[u] and lam * sum E[b - u]
    complete: np.ndarray


def _likelihood_terms(data: ObservedData, sane: SaneLaw, damage: DamageLaw) -> _LikelihoodTerms:
    """ℓ = N(n log mu - log (n-1)!) + n_f log lam + sum_i log Z_i with
    Z_i = int_a^b u^(n-1) exp(-mu u - lam (b-u)) du, so
    dℓ/dmu = N n/mu - sum E_i[u], dℓ/dlam = n_f/lam - sum E_i[b-u], and the
    Hessian is [[-N n/mu^2 + V, -V], [-V, -n_f/lam^2 + V]] with
    V = sum Var_i[u]; a non-finite value reads as -inf."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    n_fail = data.fail_z.size
    n_all = n_fail + data.det_b.size
    value = n_fail * math.log(lam)
    sum_u = sum_w = var = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, b in ((data.det_a, data.det_b), (data.fail_a, data.fail_z)):
            if b.size:
                log_value, mean_w, var_w = window_moments(a, b, sane, damage)
                value += float(log_value.sum())
                w = float(mean_w.sum())
                sum_w += w
                sum_u += float(b.sum()) - w
                var += float(var_w.sum())
    if not math.isfinite(value + sum_u + var):
        value = -math.inf
    score = np.array([n_all * n / mu - sum_u, n_fail / lam - sum_w])
    hessian = np.array([
        [-n_all * n / mu**2 + var, -var],
        [-var, -n_fail / lam**2 + var],
    ])
    return _LikelihoodTerms(value, score, hessian, np.array([mu * sum_u, lam * sum_w]))


def censored_log_likelihood(
    data: ObservedData, sane: SaneLaw, damage: DamageLaw
) -> float:
    """Log-likelihood of the observables under the two candidate laws.

    A detection at age b after a clean inspection at age a contributes
    log int_a^b exp(-lam (b-u)) dF_s(u); an exact failure at age z after a
    clean inspection at age a contributes log lam int_a^z exp(-lam (z-u))
    dF_s(u).  The sum is over cycles, order-free; the value is the one the
    fit's Newton steps read.
    """
    return _likelihood_terms(data, sane, damage).value


def _rates(logs: np.ndarray) -> tuple[float, float]:
    # the scalar exp, the same on every CPU (numpy's vector exp may not be)
    return math.exp(logs[0]), math.exp(logs[1])


def _newton_fit(
    data: ObservedData, shape: int, start: np.ndarray, step_tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[np.ndarray, _LikelihoodTerms, int, int]:
    """Maximize the censored likelihood over (log mu, log lam) by Newton.

    Each step solves with the analytic Hessian in the log parameters; where
    that is not negative definite it falls back to the complete-data
    curvature (an EM-like step, always uphill).  Steps are capped at 1 in
    each log parameter and halved until the likelihood does not drop by more
    than its rounding.  Converged when the Newton step is at most
    ``step_tol`` in both log parameters; returns the last evaluated point,
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
    for iteration in range(max_iter):
        rates = np.array(_rates(logs))
        grad = rates * terms.score
        hess = terms.hessian * np.outer(rates, rates) + np.diag(grad)
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        if hess[0, 0] < 0.0 and det > 0.0:
            step = np.array([
                hess[0, 1] * grad[1] - hess[1, 1] * grad[0],
                hess[0, 1] * grad[0] - hess[0, 0] * grad[1],
            ]) / det
        else:
            step = grad / terms.complete
        size = float(np.max(np.abs(step)))
        if size <= step_tol:
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
    raise NonConvergenceError(f"Newton iteration did not converge in {max_iter} steps")


def mle_estimate(
    data: ObservedData,
    config: ModelConfig,
    confidence: Optional[float] = None,
) -> EstimateReport:
    """Censored maximum likelihood over (log mu, log lam).

    Starts from the asymptotic estimate and takes safeguarded Newton steps
    on the analytic score and Hessian (see :func:`_newton_fit`); intervals
    come from the inverse observed information, the same analytic Hessian
    at the optimum.  Diagnostics: the Newton ``iterations``, the
    ``likelihood_evaluations`` (each one moments pass), the final
    ``log_likelihood`` and ``score_norm`` (Euclidean norm of the score in
    the log parameters), and the start.
    """
    confidence = config.confidence if confidence is None else confidence
    n_fail = data.fail_z.size
    n_r = n_fail + data.det_b.size
    if n_fail == 0 or n_fail == n_r:
        raise DegenerateDataError(
            "censored likelihood needs at least one detection and one failure"
        )
    shape = config.sane.shape
    insp = config.inspection

    n_i = data.n_inspections
    t_total = data.total_time
    try:
        start_mu = invert_mean_inspections(n_i / n_r, shape, insp)
        start_lam = invert_failure_probability(
            n_fail / n_r, SaneLaw(shape, start_mu), insp
        )
    except (OutOfRangeError, DegenerateDataError):
        # crude moment start when the count ratios are uninformative
        start_mu = shape * n_r / t_total
        start_lam = n_fail / t_total

    start_logs = np.array([math.log(start_mu), math.log(start_lam)])
    logs, terms, iterations, evaluations = _newton_fit(data, shape, start_logs)
    mu_hat, lam_hat = _rates(logs)

    info = -terms.hessian
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    if det <= 0.0 or info[0, 0] <= 0.0:
        raise NonConvergenceError("observed information is not positive definite")
    cov = np.array([[info[1, 1], -info[0, 1]], [-info[0, 1], info[0, 0]]]) / det
    z = _z_quantile(confidence)
    hw_mu = z * math.sqrt(cov[0, 0])
    hw_lam = z * math.sqrt(cov[1, 1])
    return EstimateReport(
        method="MLE",
        mu_hat=mu_hat,
        lambda_hat=lam_hat,
        ci_mu=(mu_hat - hw_mu, mu_hat + hw_mu),
        ci_lambda=(lam_hat - hw_lam, lam_hat + hw_lam),
        confidence=confidence,
        sigma2=cov * t_total,
        diagnostics={
            "iterations": iterations,
            "likelihood_evaluations": evaluations,
            "log_likelihood": terms.value,
            "score_norm": math.hypot(mu_hat * terms.score[0], lam_hat * terms.score[1]),
            "n_cycles": n_r,
            "start_mu": start_mu,
            "start_lambda": start_lam,
        },
    )


def full_information_estimate(
    records: Sequence[CycleRecord],
    config: ModelConfig,
    confidence: Optional[float] = None,
) -> EstimateReport:
    """Oracle baseline using the latent times themselves (closed form).

    With every damage time and failure delay observed, the maximizers are
    shape * cycles / total damage time and cycles / total failure delay;
    intervals use the exact Fisher information of those laws.  This is a
    verification aid, not an estimator available to a real observer.
    """
    confidence = config.confidence if confidence is None else confidence
    n = len(records)
    if n == 0:
        raise DegenerateDataError("no cycles")
    sum_damage = sum(r.time_to_damage for r in records)
    sum_fail = sum(r.damage_to_failure for r in records)
    shape = config.sane.shape
    mu_hat = shape * n / sum_damage
    lam_hat = n / sum_fail
    z = _z_quantile(confidence)
    hw_mu = z * mu_hat / math.sqrt(shape * n)
    hw_lam = z * lam_hat / math.sqrt(n)
    return EstimateReport(
        method="MLE",
        mu_hat=mu_hat,
        lambda_hat=lam_hat,
        ci_mu=(mu_hat - hw_mu, mu_hat + hw_mu),
        ci_lambda=(lam_hat - hw_lam, lam_hat + hw_lam),
        confidence=confidence,
        diagnostics={"oracle": "full-information", "n_cycles": n},
    )

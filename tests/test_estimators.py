import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cbmkit import estimators
from cbmkit import formulas as F
from cbmkit.cli import PUBLISHED_TABLES
from cbmkit.config import config_from_values
from cbmkit.estimators import (
    DegenerateDataError,
    EstimateReport,
    NonConvergenceError,
    ObservedData,
    OutOfRangeError,
    asymptotic_estimate,
    asymptotic_estimates,
    censored_log_likelihood,
    invert_failure_probability,
    invert_mean_inspections,
    mle_estimate,
)
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw
from cbmkit.simulator import (
    CountSnapshot,
    CycleRecord,
    counts_at_times,
    read_event_log,
    simulate_cycle,
    simulate_horizon,
)
from age_law import density_sane
from conftest import batch_of, csv_text, draw_cycles, make_config, time_scaled
from simplex import nelder_mead

DET = InspectionLaw("deterministic", 1000.0)
UNIF = InspectionLaw("uniform", 1000.0, 100.0)


def _observed(*cycles):
    """The observables of hand-built deterministic-gap cycles, each given
    as (planned schedule, failed, length); latent times are left at 0."""
    records = [
        CycleRecord(0.0, 0.0, tuple(ages), len(ages), ages[-1], length if failed else math.inf,
                    length, failed)
        for ages, failed, length in cycles
    ]
    return ObservedData.from_event_log_records(batch_of(records), DET)


def simpson_adaptive(f, a, b, tol=1e-12, depth=30):
    """Plain adaptive Simpson quadrature; the independent oracle for the
    censored-likelihood integrals."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, level):
        left, lm = simpson(lo, 0.5 * (lo + hi))
        right, rm = simpson(0.5 * (lo + hi), hi)
        if level <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, 0.5 * (lo + hi), left, level - 1) + recurse(
            0.5 * (lo + hi), hi, right, level - 1
        )

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, depth)


UNIF900 = InspectionLaw("uniform", 1000.0, 900.0)
LAWS = [DET, UNIF, UNIF900]
LAW_IDS = ["det", "unif", "unif900"]


def _damage_bracket(r, shape, law):
    """The damage rates that give r inspections per cycle, by Wald's
    identity: shape/(c r) <= mu < shape/(c (r - 1) - h)."""
    c, h = law.spacing, law.half_width
    return shape / (c * r), shape / (c * (r - 1.0) - h) if c * (r - 1.0) > h else math.inf


def _failure_bracket(p, shape, mu, law):
    """The failure rates that give failure probability p at the damage
    rate mu, by Jensen's inequality and the Edmundson-Madansky bound on
    the detection delay W in [0, w]."""
    c, w = law.spacing, law.spacing + law.half_width
    delay = c * F.mean_inspections(SaneLaw(shape, mu), law) - shape / mu
    return (-math.log1p(-p) / delay,
            -math.log1p(-p * w / delay) / w if p * w < delay else math.inf)


def _one_search(func, target, bracket, **kwargs):
    """``estimators._solve`` on one target over an explicit bracket: the
    root, its trace and the points where the map was called; a search
    error is raised."""
    calls = []

    def counted(x, rows):
        calls.append(x)
        return func(x)

    traces = [{}]
    (root,) = estimators._solve(counted, [target], [bracket], traces, **kwargs)
    if isinstance(root, Exception):
        raise root
    return root, traces[0], calls


class TestBracketSearch:
    """Every search runs inside a bracket that the model proves holds its
    root: Wald's identity for the damage rate, Jensen's inequality and the
    Edmundson-Madansky bound for the failure rate.  Over the supported
    domain the map's values at the proven ends straddle the target, or one
    end already meets the tolerance, and every root meets its stopping
    test from inside that bracket."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_mc=st.floats(-4.0, 1.0))
    @example(log_mc=-4.0)
    @example(log_mc=1.0)
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_mean_inspections_map(self, shape, law, log_mc):
        mu = 10.0**log_mc / law.spacing

        def func(x):
            return F.mean_inspections(SaneLaw(shape, x), law)

        r, tol = func(mu), 1e-12 * func(mu)
        lo, hi = _damage_bracket(r, shape, law)
        # the map falls to 1 < r as the rate grows without bound
        f_lo, f_hi = func(lo) - r, (func(hi) if hi < math.inf else 1.0) - r
        assert f_lo * f_hi <= 0.0 or min(abs(f_lo), abs(f_hi)) <= tol
        traces = [{}]
        (root,) = estimators._mean_inspection_roots([r], shape, law, traces)
        assert type(root) is float
        assert abs(func(root) - r) <= tol
        a, b = traces[0]["bracket"]
        assert lo <= a <= root <= b <= hi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_mc=st.floats(-4.0, 1.0), log_ratio=st.floats(-3.0, 3.0))
    @example(log_mc=-4.0, log_ratio=-3.0)
    @example(log_mc=-4.0, log_ratio=3.0)
    @example(log_mc=1.0, log_ratio=-3.0)
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_failure_probability_map(self, shape, law, log_mc, log_ratio):
        # the first example puts the lower end of shape 2 deterministic
        # gaps a little above the closed form's root, well inside atol
        mu = 10.0**log_mc / law.spacing
        lam = mu * 10.0**log_ratio
        sane = SaneLaw(shape, mu)

        def func(x):
            return F.failure_probability(sane, DamageLaw(x), law)

        p = func(lam)
        traces = [{}]
        (root,) = estimators._failure_rate_roots([p], shape, [mu], law, traces)
        if not 0.0 < p < 1.0:
            # the failure probability rounds to 0 or 1: no rate follows
            assert type(root) is DegenerateDataError
            return
        lo, hi = _failure_bracket(p, shape, mu, law)
        # the map rises to 1 > p as the rate grows without bound
        f_lo, f_hi = func(lo) - p, (func(hi) if hi < math.inf else 1.0) - p
        assert f_lo * f_hi <= 0.0 or min(abs(f_lo), abs(f_hi)) <= 1e-12
        assert type(root) is float
        assert abs(func(root) - p) <= 1e-12
        a, b = traces[0]["bracket"]
        assert lo <= a <= root <= b <= hi

    def test_unusable_start_takes_the_proven_bracket(self):
        # a start that is not finite and positive, or lies outside the
        # proven bracket, leaves the search to that bracket: the same
        # evaluations, bracket and root as without one
        def func(mu, rows):
            return F.mean_inspections(SaneLaw(2, mu), UNIF)

        target = func(1e-3, None)
        bracket = _damage_bracket(target, 2, UNIF)
        starts = [math.nan, -1e-3, 0.0, math.inf, 1e20, 1e-30]
        traces = [{} for _ in starts]
        roots = estimators._solve(func, [target] * len(starts), [bracket] * len(starts), traces,
                                  starts=starts)
        plain = [{}]
        (root,) = estimators._solve(func, [target], [bracket], plain)
        assert roots == [root] * 6 and traces == plain * 6
        assert type(root) is float

    def test_expansion(self):
        # an open upper end is found by doubling from the lower one; the
        # bracket polished spans a factor of 2
        for func, target in ((lambda v: v, 3e2), (lambda v: 1.0 / v, 4e-13), (lambda v: v, 1e-3)):
            root, trace, calls = _one_search(func, target, (1e-3, math.inf))
            a, b = trace["bracket"]
            assert b == 2.0 * a and a <= root <= b
            assert abs(func(root) - target) <= 1e-12 * target
        # the same on the mean-inspections map, whose bracket is open above
        # where c (r - 1) <= h
        r = F.mean_inspections(SaneLaw(1, 3e-3), UNIF900)
        assert 1000.0 * (r - 1.0) <= 900.0
        (mu,) = estimators._mean_inspection_roots([r], 1, UNIF900, [{}])
        assert type(mu) is float
        assert abs(F.mean_inspections(SaneLaw(1, mu), UNIF900) - r) <= 1e-12 * r

    XS = np.geomspace(1e-8, 1e2, 64)

    @pytest.mark.parametrize("k", [0, 1, 31, 62, 63])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_root_on_a_grid_point(self, k, sign):
        # a root on a point of a geometric grid over a ten-decade bracket:
        # an end that is the root stands as it is, an inner point is found
        # to the tolerance
        root, trace, calls = _one_search(lambda v: sign * v, sign * float(self.XS[k]),
                                         (1e-8, 1e2))
        assert abs(root - self.XS[k]) <= 1e-12 * self.XS[k]
        if k in (0, 63):
            assert root == self.XS[k] and trace["iterations"] == 0

    @pytest.mark.parametrize("interval", [0, 62], ids=["first", "last"])
    @pytest.mark.parametrize("func", [lambda v: v, lambda v: -(v**3), lambda v: 1.0 / v],
                             ids=["linear", "cubic", "reciprocal"])
    def test_root_in_an_end_interval(self, interval, func):
        # a root in the first or last interval of that grid, next to an end
        # of the bracket: the halving homes in on that end, and the polish
        # meets the tolerance
        root = math.sqrt(self.XS[interval] * self.XS[interval + 1])
        x, trace, calls = _one_search(func, func(root), (1e-8, 1e2))
        a, b = trace["bracket"]
        assert a <= x <= b <= 2.0 * a
        assert abs(func(x) - func(root)) <= 1e-12 * abs(func(root))

    def test_wide_bracket_is_halved_before_the_polish(self):
        # fifteen decades come down to a factor of 2 by geometric halving,
        # whatever end the root lies near
        for target in (2e-13, 3.7, 5e1):
            root, trace, calls = _one_search(lambda v: v, target, (1e-13, 1e2))
            a, b = trace["bracket"]
            assert b <= 2.0 * a and a <= root <= b
            assert abs(root - target) <= 1e-12 * target
            # the two ends, six halvings, then the polish
            assert calls[:2] == [1e-13, 1e2] and len(calls) - trace["iterations"] == 8

    @pytest.mark.parametrize("bracket, target, scale", [
        ((1e200, 1e300), 3e250, math.log), ((1e-300, 1e-200), 3e-250, math.log),
        ((1e-160, 1e-150), 3e-155, math.log), ((1e-13, 1e2), 3.7, math.log),
        ((1e-300, 1e-200), 3e-250, float), ((1e-200, 1e-190), 3e-195, float),
    ], ids=["overflow", "underflow", "subnormal", "normal", "offsets-near-1e-250",
            "offsets-near-1e-195"])
    def test_geometric_midpoint_at_the_float_ends(self, bracket, target, scale):
        # a*b past the largest float, to 0 or among the subnormals: the
        # midpoint is sqrt(a) sqrt(b), inside the bracket; where a*b is a
        # normal float it stays sqrt(a*b), bit for bit.  A map in log x
        # keeps the polish away from the ends of the float range; the
        # identity map's offsets at both ends lie below 1e-154, where their
        # product underflows to 0, and the ends' sides still tell the root
        # inside the bracket, so the bracket is halved all the same
        lo, hi = bracket

        def inside(x):
            assert lo <= x <= hi, x
            return scale(x)

        root, trace, calls = _one_search(inside, scale(target), bracket)
        product = lo * hi
        assert calls[2] == (math.sqrt(product) if 2.0**-1022 <= product < math.inf
                            else math.sqrt(lo) * math.sqrt(hi))
        a, b = trace["bracket"]
        assert b <= 2.0 * a and a <= root <= b
        assert abs(math.log(root) - math.log(target)) <= 1e-12 * abs(math.log(target))

    def test_out_of_range_text(self, monkeypatch):
        # a map wrong at both proven ends is an error that names the bracket
        original = estimators.mean_inspections
        monkeypatch.setattr(estimators, "mean_inspections",
                            lambda sane, insp: 10.0 * original(sane, insp))
        target = original(SaneLaw(2, 1e-3), UNIF)
        lo, hi = _damage_bracket(target, 2, UNIF)
        with pytest.raises(OutOfRangeError) as info:
            invert_mean_inspections(target, 2, UNIF)
        assert str(info.value).startswith(f"target {target!r} outside the range [")
        assert str(info.value).endswith(f"of the map over its proven bracket [{lo!r}, {hi!r}]")
        # and on an explicit bracket
        with pytest.raises(OutOfRangeError) as info:
            _one_search(lambda v: 1.0 / (1.0 + v), 2.0, (1.0, 1e3))
        low = 1.0 / 1001.0 - 2.0 + 2.0  # as the search rounds it, from f - target
        assert str(info.value) == (f"target 2.0 outside the range [{low!r}, 0.5] of the "
                                   "map over its proven bracket [1.0, 1000.0]")

    @pytest.mark.parametrize("bracket, offset", [((1.0, 2.0), 5e-13), ((0.5, 1.0), -5e-13)],
                             ids=["lower", "upper"])
    def test_end_within_tolerance_stands(self, bracket, offset):
        # proven ends of one sign, one of them within the tolerance of the
        # target: that end is the root, after the two evaluations
        root, trace, calls = _one_search(lambda v: v + offset, 1.0, bracket)
        assert root == 1.0 and calls == list(bracket) and trace["iterations"] == 0


    @pytest.mark.parametrize(
        "func, target, bracket, raises",
        [
            (lambda mu: F.mean_inspections(SaneLaw(2, mu), UNIF),
             F.mean_inspections(SaneLaw(2, 1e-3), UNIF), (1e-4, 1e-2), False),
            (lambda v: v, 3e2, (1e-3, math.inf), False),
            (lambda v: 1.0 / (1.0 + v), 2.0, (1e-3, 1e3), True),
        ],
        ids=["polished", "doubled", "out-of-range"],
    )
    def test_evaluations_traced(self, func, target, bracket, raises):
        calls = []

        def counted(x, rows):
            calls.append(x)
            return func(x)

        traces = [{}]
        (root,) = estimators._solve(counted, [target], [bracket], traces)
        assert (type(root) is OutOfRangeError) == raises
        assert traces[0]["evaluations"] == len(calls) > 0


def _bisect_to_exhaustion(g, lo, hi):
    """A root of g in the sign-change bracket [lo, hi], halving until the
    midpoint rounds to an end: the reference the polish is checked
    against."""
    g_lo = g(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(g_lo) <= abs(g(hi)) else hi
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid


class TestChandrupatla:
    """The polish meets its residual tolerance on both maps, lands where a
    bisection to exhaustion puts the root within that tolerance, and ends
    at float resolution without raising where the tolerance is out of
    reach; each search runs on an explicit bracket some decades wide."""

    @staticmethod
    def _check(func, target, bracket, **kwargs):
        x, trace, calls = _one_search(func, target, bracket, **kwargs)
        assert trace["evaluations"] == len(calls) == len(set(calls))
        tol = kwargs.get("rtol", 1e-12) * abs(target) + kwargs.get("atol", 0.0)
        assert abs(func(x) - target) <= tol, target
        # both x and the reference are within tol of the target (the
        # reference up to the map's rounding), so they lie within that
        # much of each other through the local slope
        a, b = trace["bracket"]
        reference = _bisect_to_exhaustion(lambda v: func(v) - target, a, b)
        slope = (func(x * (1 + 1e-6)) - func(x * (1 - 1e-6))) / (2e-6 * x)
        spread = (tol + abs(func(reference) - target)) / abs(slope)
        assert abs(x - reference) <= spread, (target, x, reference, spread)
        return x, trace

    @pytest.mark.parametrize("law", [DET, UNIF], ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_mean_inspections_map(self, shape, law):
        def func(mu):
            return F.mean_inspections(SaneLaw(shape, mu), law)

        targets = [func(mu) for mu in (3e-5, 1e-4, 1e-3, 3e-3)] + [53116 / 33501, 51503 / 20668]
        for target in targets:
            self._check(func, target, (1e-6, 1e-1))

    @pytest.mark.parametrize("law", [DET, UNIF], ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_failure_probability_map(self, shape, law):
        sane = SaneLaw(shape, 1e-3)

        def func(lam):
            return F.failure_probability(sane, DamageLaw(lam), law)

        targets = [func(lam) for lam in (1e-5, 5e-4, 0.1)] + [8255 / 33501, 4452 / 20470]
        for target in targets:
            self._check(func, target, (1e-7, 10.0), atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize(
        "func",
        [lambda v: 0.0 if v < 0.37 else 1.0, lambda v: max(v - 0.37, 0.0) * 1e18,
         lambda v: (v - 0.37) * 1e18],
        ids=["step", "flat-then-steep", "steep-line"],
    )
    def test_ends_at_float_resolution(self, func):
        # the steep line's interpolation steps fall within an ulp of the
        # newest point, and flat-then-steep's of the other end: both keep
        # an ulp away
        target = 0.5 if func(1.0) == 1.0 else 1.0
        x, trace, calls = _one_search(func, target, (1e-8, 1e2))
        assert abs(func(x) - target) > 1e-12 * target
        assert x == pytest.approx(0.37, rel=1e-15, abs=0.0)
        assert trace["evaluations"] == len(calls) == len(set(calls))
        assert trace["iterations"] < 200


class TestInvertMeanInspections:
    def test_round_trip(self):
        target = F.mean_inspections(SaneLaw(1, 1e-3), DET)
        mu = invert_mean_inspections(target, 1, DET)
        assert_allclose(mu, 1e-3, rtol=1e-10)

    def test_round_trip_shape_two_uniform(self):
        target = F.mean_inspections(SaneLaw(2, 7e-4), UNIF)
        mu = invert_mean_inspections(target, 2, UNIF)
        assert_allclose(mu, 7e-4, rtol=1e-10)

    def test_published_deterministic_run(self):
        # published count ratio 53116/33501 recovers 0.000996184
        mu = invert_mean_inspections(53116 / 33501, 1, DET)
        assert_allclose(mu, 0.000996184, rtol=1e-4)
        assert abs(F.mean_inspections(SaneLaw(1, mu), DET) - 53116 / 33501) <= 1e-12 * (53116 / 33501)

    def test_published_shape_two_run(self):
        mu = invert_mean_inspections(51503 / 20668, 2, DET)
        assert_allclose(mu, 0.0010054, rtol=1e-3)

    def test_rejects_target_at_most_one(self):
        with pytest.raises(OutOfRangeError):
            invert_mean_inspections(1.0, 1, DET)


class TestInvertFailureProbability:
    def test_round_trip(self):
        sane = SaneLaw(1, 1e-3)
        target = F.failure_probability(sane, DamageLaw(5e-4), DET)
        lam = invert_failure_probability(target, sane, DET)
        assert_allclose(lam, 5e-4, rtol=1e-10)

    def test_post_condition_on_published_counts(self):
        mu = invert_mean_inspections(53116 / 33501, 1, DET)
        sane = SaneLaw(1, mu)
        lam = invert_failure_probability(8255 / 33501, sane, DET)
        assert abs(F.failure_probability(sane, DamageLaw(lam), DET) - 8255 / 33501) <= 1e-12

    def test_published_value_uses_cycle_identity(self):
        # the published run's failure rate comes from the mean-cycle
        # identity, not the probability inversion (0.000503941); both are
        # consistent estimators
        mu = invert_mean_inspections(53116 / 33501, 1, DET)
        lam = asymptotic_estimate(CountSnapshot(50001908.0, 33501, 53116, 8255), make_config(),
                                  interval="tabulated").lambda_hat
        assert_allclose(lam, 0.000504197, rtol=1e-4)
        lam_prob = invert_failure_probability(8255 / 33501, SaneLaw(1, mu), DET)
        assert_allclose(lam_prob, 0.000503941, rtol=1e-5)

    def test_published_uniform_shape_two(self):
        mu = 0.0009964
        lam = invert_failure_probability(4452 / 20470, SaneLaw(2, mu), UNIF)
        assert abs(
            F.failure_probability(SaneLaw(2, mu), DamageLaw(lam), UNIF) - 4452 / 20470
        ) <= 1e-12
        # best reproduction of the published 0.0005064 is ~1.5e-3 relative
        # under any convention tried; that row's counts and estimates are
        # mutually inconsistent, so only the weaker bound is asserted here
        assert_allclose(lam, 0.0005064, rtol=2e-3)

    def test_meets_tolerance_near_equal_rates(self):
        # shape 2 uniform counts (111 repairs, 37 failures) whose estimate
        # lies inside the equal-rates band, lambda/mu = 1.004: the map is
        # smooth to far below the inversion's atol = 1e-12 there, in steady
        # steps of about 2.5e-12 per 1e-11 relative change of lambda
        sane = SaneLaw(2, 0.0008634333553908156)
        lam = invert_failure_probability(37 / 111, sane, UNIF)
        assert F._near_diagonal(sane.rate, lam)
        assert abs(F.failure_probability(sane, DamageLaw(lam), UNIF) - 37 / 111) <= 1e-12
        values = [F.failure_probability(SaneLaw(2, 8.634e-4), DamageLaw(8.668e-4 * (1 + k * 1e-11)),
                                        UNIF) for k in range(11)]
        steps = np.diff(values)
        assert steps.min() > 0.9 * steps.max() > 0.0

    def test_degenerate_fraction(self):
        with pytest.raises(DegenerateDataError):
            invert_failure_probability(0.0, SaneLaw(1, 1e-3), DET)
        with pytest.raises(DegenerateDataError):
            invert_failure_probability(1.0, SaneLaw(1, 1e-3), DET)

    @pytest.mark.parametrize("inspections, delay", [(1e18, "0.0"), (4e17, "1024.0")])
    def test_cancelled_detection_delay_is_refused(self, inspections, delay):
        # 1e16 and 4e15 inspections a cycle: c E[K] - shape/mu cancels to 0
        # and to past the gap, and neither bounds the failure rate
        with pytest.raises(OutOfRangeError, match=rf"= {delay} lies outside \(0, 1000\.0\], "
                                                  "lost to cancellation"):
            asymptotic_estimate(CountSnapshot(1e5, 100, inspections, 30), make_config())


class TestAsymptoticEstimate:
    def test_round_trip_on_exact_pseudo_counts(self):
        cfg = make_config(shape=2, kind="uniform")
        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        t = 1e9
        snap = CountSnapshot(
            t, t / m.mean_cycle, t * m.mean_inspections / m.mean_cycle,
            t * m.failure_prob / m.mean_cycle,
        )
        for interval in ("delta", "tabulated"):
            report = asymptotic_estimate(snap, cfg, interval=interval)
            assert_allclose(report.mu_hat, cfg.sane.rate, rtol=1e-8)
            assert_allclose(report.lambda_hat, cfg.damage.rate, rtol=1e-8)

    def test_map_evaluations_bounded(self, any_config, monkeypatch):
        # counts of a horizon-5e7 run, at their expected values
        cfg = any_config
        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        n_r = round(cfg.horizon / m.mean_cycle)
        snap = CountSnapshot(cfg.horizon, n_r, round(n_r * m.mean_inspections),
                             round(n_r * m.failure_prob))
        # every map call of the lockstep driver, whichever map it solves
        calls = []
        solve = estimators._solve
        monkeypatch.setattr(estimators, "_solve", lambda func, *a, **k: solve(
            lambda x, rows: calls.append(1) or func(x, rows), *a, **k))
        report = asymptotic_estimate(snap, cfg)
        d = report.diagnostics
        assert d["mu_evaluations"] <= 8 and d["lambda_evaluations"] <= 8
        assert d["mu_evaluations"] + d["lambda_evaluations"] == len(calls) <= 16

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_wide_gaps_start_near_the_root(self, shape):
        # uniform gaps with h = 900 at the base rates: the damage-rate start
        # from the renewal expansion lies within 1% of the root, and its
        # bracket holds it, so the search stops within 6 evaluations (9-10
        # with the deterministic gaps' start)
        cfg = make_config(shape=shape, kind="uniform")
        cfg = dataclasses.replace(cfg, inspection=UNIF900)
        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        n_r = round(cfg.horizon / m.mean_cycle)
        snap = CountSnapshot(cfg.horizon, n_r, round(n_r * m.mean_inspections),
                             round(n_r * m.failure_prob))
        start = estimators._damage_rate_start(snap.inspections / snap.repairs, shape, UNIF900)
        assert abs(start / cfg.sane.rate - 1.0) < 0.01
        assert asymptotic_estimate(snap, cfg).diagnostics["mu_evaluations"] <= 6

    @pytest.mark.parametrize("insp", [DET, UNIF, UNIF900], ids=["det", "unif", "unif900"])
    @pytest.mark.parametrize("shape", [1, 2])
    def test_damage_rate_start_scales_exactly(self, shape, insp):
        # the uniform correction reads h/c, which has no unit, so the start
        # divides by s = 2^j bit for bit wherever c s stays a normal float;
        # a correction h^2/(6 c^2) divided 0 by 0 from j = -549, where
        # 6 c^2 underflows
        base = estimators._damage_rate_start(1.6, shape, insp)
        for j in range(-1030, 1011, 10):
            s = 2.0**j
            scaled = dataclasses.replace(insp, spacing=insp.spacing * s,
                                         half_width=insp.half_width * s)
            assert estimators._damage_rate_start(1.6, shape, scaled) == base / s, j

    @pytest.mark.parametrize("table", sorted(PUBLISHED_TABLES))
    def test_estimates_scale_exactly(self, table):
        # times by s = 2^j and rates over s divide each estimate, interval
        # end and parameter covariance entry (at the report's rates) by s,
        # bit for bit; delta only, as the tabulated convention depends on
        # the time unit, and j < 200, where the uniform presets' closed
        # forms overflow in laws._moments
        values, snap = PUBLISHED_TABLES[table]
        base_config = config_from_values(values)
        base = asymptotic_estimate(snap, base_config)

        def param_cov(report, config):
            return F.estimator_covariance(SaneLaw(config.sane.shape, report.mu_hat),
                                          DamageLaw(report.lambda_hat),
                                          config.inspection).param_cov

        base_cov = param_cov(base, base_config)
        for j in range(-300, 151, 10):
            s = 2.0**j
            config = time_scaled(base_config, s)
            got = asymptotic_estimate(dataclasses.replace(snap, time=snap.time * s), config)
            assert (got.mu_hat, got.ci_mu, got.lambda_hat, got.ci_lambda) == (
                base.mu_hat / s, (base.ci_mu[0] / s, base.ci_mu[1] / s),
                base.lambda_hat / s, (base.ci_lambda[0] / s, base.ci_lambda[1] / s)), j
            assert param_cov(got, config).tobytes() == (base_cov / s).tobytes(), j

    def test_zero_confidence_gives_point_interval(self, base_config):
        snap = CountSnapshot(50001908.0, 33501, 53116, 8255)
        report = asymptotic_estimate(snap, dataclasses.replace(base_config, confidence=0.0))
        assert report.ci_mu == (report.mu_hat, report.mu_hat)
        assert report.ci_lambda == (report.lambda_hat, report.lambda_hat)

    def test_warns_on_few_cycles(self, base_config):
        snap = CountSnapshot(5e4, 30, 60, 8)
        with pytest.warns(UserWarning, match="dubious"):
            asymptotic_estimate(snap, base_config)

    def test_degenerate_counts(self, base_config):
        with pytest.raises(DegenerateDataError, match="no failures"):
            asymptotic_estimate(CountSnapshot(1e6, 500, 900, 0), base_config)
        with pytest.raises(OutOfRangeError):
            asymptotic_estimate(CountSnapshot(1e6, 500, 500, 5), base_config)
        with pytest.raises(DegenerateDataError):
            asymptotic_estimate(CountSnapshot(1e6, 0, 0, 0), base_config)

    def test_unknown_interval_rejected_before_any_work(self, base_config, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an inversion ran before the convention was checked")

        monkeypatch.setattr(estimators, "_solve", never)
        feasible = CountSnapshot(50001908.0, 33501, 53116, 8255)
        empty = CountSnapshot(5e7, 0, 0, 0)
        with pytest.raises(ValueError, match="^unknown convention 'bogus'$"):
            asymptotic_estimate(feasible, base_config, interval="bogus")
        for batch in ([feasible, empty], [empty]):
            with pytest.raises(ValueError, match="^unknown convention 'bogus'$"):
                asymptotic_estimates(batch, base_config, interval="bogus")

    def test_interval_ordering(self, base_config):
        snap = CountSnapshot(50001908.0, 33501, 53116, 8255)
        report = asymptotic_estimate(snap, base_config)
        assert report.ci_mu[0] < report.mu_hat < report.ci_mu[1]
        assert report.ci_lambda[0] < report.lambda_hat < report.ci_lambda[1]

    def test_csv_row_and_flat_text(self, base_config):
        snap = CountSnapshot(50001908.0, 33501, 53116, 8255)
        report = asymptotic_estimate(snap, base_config)
        row = report.csv_row(snap, 7)
        assert row.startswith("AM,")
        assert row.endswith(",7\n")

    def test_consistency_medians_shrink(self):
        # median absolute error decreases across growing horizons
        cfg = make_config(seed=0)
        rng = np.random.default_rng(1234)
        medians = []
        with warnings.catch_warnings():
            # sub-100-cycle horizons legitimately trigger the small-sample
            # warning; the point here is only the shrinking median error
            warnings.simplefilter("ignore")
            for horizon in (1e5, 1e6, 1e7):
                errors = []
                for _ in range(50):
                    cycles = simulate_horizon(rng, dataclasses.replace(cfg, horizon=horizon))
                    report = asymptotic_estimate(cycles.counts(), cfg)
                    errors.append(abs(report.mu_hat - cfg.sane.rate))
                medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


BASE_CONFIGS = [make_config(shape=n, kind=k) for n in (1, 2) for k in ("deterministic", "uniform")]


def _snapshots(draw_config):
    """Snapshots of every kind a series meets: feasible counts, counts with
    no failure (mu-only rows), counts out of range or with no cycle, and
    exact expected counts whose failure rate sits in the equal-rates band."""
    t = st.floats(1e5, 5e7)
    feasible = st.builds(
        lambda n_r, ratio, frac, t: CountSnapshot(t, n_r, round(n_r * ratio), round(n_r * frac)),
        st.integers(100, 40000), st.floats(1.05, 4.0), st.floats(0.01, 0.6), t,
    )
    few = st.builds(
        lambda n_r, extra, n_f, t: CountSnapshot(t, n_r, n_r + extra, min(n_f, n_r)),
        st.integers(1, 99), st.integers(1, 200), st.integers(1, 30), t,
    )
    no_failure = st.builds(
        lambda n_r, ratio, t: CountSnapshot(t, n_r, round(n_r * ratio), 0),
        st.integers(1, 40000), st.floats(1.05, 4.0), t,
    )
    out_of_range = st.one_of(
        st.builds(lambda n_r, t: CountSnapshot(t, n_r, n_r, 1), st.integers(1, 1000), t),
        st.builds(lambda n_r, t: CountSnapshot(t, n_r, n_r * 10**15, 1), st.integers(1, 1000), t),
        st.builds(lambda t: CountSnapshot(t, 0, 0, 0), t),
    )

    def band(mu, rel, n_r):
        cfg = draw_config
        m = F.cycle_moments(SaneLaw(cfg.sane.shape, mu), DamageLaw(mu * (1.0 + rel)),
                            cfg.inspection)
        return CountSnapshot(n_r * m.mean_cycle, n_r, n_r * m.mean_inspections,
                             n_r * m.failure_prob)

    equal_rates = st.builds(band, st.floats(2e-4, 3e-3), st.floats(-1e-7, 1e-7),
                            st.integers(1000, 40000))
    return st.one_of(feasible, few, no_failure, out_of_range, equal_rates)


def _bracket_kind(bracket, start, proven):
    """"seeded" for the bracket [start/1.02, start*1.02] clipped to the
    proven one, else "proven": a part of the proven bracket no wider than
    a factor of 2."""
    lo, hi = proven
    if lo <= start <= hi and bracket == (max(start / 1.02, lo), min(start * 1.02, hi)):
        return "seeded"
    a, b = bracket
    assert lo <= a < b <= min(hi, 2.0 * a)
    return "proven"


def _single(snap, cfg, interval):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return asymptotic_estimate(snap, cfg, interval=interval)
        except (ValueError, NonConvergenceError) as exc:
            return exc


class TestLockstepRounds:
    """What one round of the lockstep driver evaluates: one float call where
    every search asks for the same point, and for the failure rate, the
    work at each search's fixed damage rate once per solve."""

    def test_one_search_calls_in_floats(self, monkeypatch):
        # searches with different targets call mean_inspections at an array
        # of their points while two or more run, and at a float once one is
        # left; each root and trace is the single inversion's, which
        # computes in floats throughout
        targets = [F.mean_inspections(SaneLaw(2, mu), UNIF) for mu in (7e-4, 1e-3, 1.3e-3)]
        singles = []
        for target in targets:
            traces = [{}]
            (root,) = estimators._mean_inspection_roots([target], 2, UNIF, traces)
            singles.append((root, traces[0]))
        rates = []
        original = estimators.mean_inspections
        monkeypatch.setattr(estimators, "mean_inspections",
                            lambda sane, insp: rates.append(sane.rate) or original(sane, insp))
        traces = [{} for _ in targets]
        roots = estimators._mean_inspection_roots(list(targets), 2, UNIF, traces)
        assert list(zip(roots, traces)) == singles
        assert [type(r) for r in roots] == [float] * 3
        evaluations = sorted(t["evaluations"] for t in traces)
        arrays = [r for r in rates if isinstance(r, np.ndarray)]
        assert [len(r) for r in arrays] == sorted(
            (sum(e > k for e in evaluations) for k in range(evaluations[1])), reverse=True)
        assert [type(r) for r in rates[len(arrays):]] == [float] * (evaluations[2] - evaluations[1])
        rates.clear()
        invert_mean_inspections(targets[0], 2, UNIF)
        assert rates and all(type(r) is float for r in rates)

    def test_equal_targets_share_their_rounds(self, monkeypatch):
        # equal targets ask for the same points every round: one array call
        # per round, and the single inversion's root for every row
        target = F.mean_inspections(SaneLaw(1, 1e-3), DET)
        single = invert_mean_inspections(target, 1, DET)
        seen = []
        original = estimators.mean_inspections
        monkeypatch.setattr(estimators, "mean_inspections",
                            lambda sane, insp: seen.append(sane.rate.tolist())
                            or original(sane, insp))
        traces = [{} for _ in range(4)]
        roots = estimators._mean_inspection_roots([target] * 4, 1, DET, traces)
        assert seen and all(x == [x[0]] * 4 for x in seen)
        assert roots == [single] * 4
        assert [t["evaluations"] for t in traces] == [len(seen)] * 4

    def test_damage_rate_work_done_once(self, monkeypatch):
        # a failure-rate solve whose estimates end in the equal-rates band
        # for rows 0 and 2: the jet at the damage rates, to order shape - 1,
        # takes one pass however many rounds read it, and so does the band's
        # jet, to order shape + N, over the map's damage rates, once a row
        # reaches the band
        mus = [8e-4, 1e-3, 1.2e-3, 9e-4]
        lams = [8.1e-4, 2e-4, 1.19e-3, 5e-3]
        targets = [F.failure_probability(SaneLaw(2, m), DamageLaw(v), UNIF)
                   for m, v in zip(mus, lams)]
        singles = [invert_failure_probability(t, SaneLaw(2, m), UNIF) for t, m in zip(targets, mus)]
        calls = []
        jet = F._jet

        def counted(rate, insp, order):
            calls.append((order, np.atleast_1d(rate).tolist()))
            return jet(rate, insp, order)

        monkeypatch.setattr(F, "_jet", counted)
        traces = [{} for _ in mus]
        roots = estimators._failure_rate_roots(targets, 2, mus, UNIF, traces)
        assert roots == singles
        assert [rates for order, rates in calls if order == 1] == [mus]
        assert [rates for order, rates in calls if order == 2 + F._BAND_TERMS] == [mus]
        assert {order for order, _ in calls} == {0, 1, 2 + F._BAND_TERMS}
        assert min(t["evaluations"] for t in traces) > 2

    def test_failure_rate_rows_with_errors(self):
        # rows the solve skips stay out of the map: NaN damage rates of
        # failed mean-inspection searches never reach it
        target = F.failure_probability(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        failed = OutOfRangeError("x")
        roots = estimators._failure_rate_roots([failed, 1.5, target], 1, [math.nan, 1e-3, 1e-3],
                                               DET, [{}, {}, {}])
        assert roots[0] is failed
        assert type(roots[1]) is DegenerateDataError
        assert roots[2] == invert_failure_probability(target, SaneLaw(1, 1e-3), DET)


class TestBatchedEstimates:
    """One batch solves every snapshot; each row must be the single
    estimate's, bit for bit, or the same error, whatever the batch mixes."""

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_single_estimates(self, data):
        cfg = data.draw(st.sampled_from(BASE_CONFIGS))
        interval = data.draw(st.sampled_from(["delta", "tabulated"]))
        snaps = data.draw(st.lists(_snapshots(cfg), min_size=1, max_size=8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = asymptotic_estimates(snaps, cfg, interval=interval)
        assert len(batch) == len(snaps)
        for snap, row in zip(snaps, batch):
            single = _single(snap, cfg, interval)
            if isinstance(single, Exception):
                assert (type(row), str(row)) == (type(single), str(single))
                continue
            assert isinstance(row, EstimateReport)
            for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda", "diagnostics"):
                assert getattr(row, name) == getattr(single, name), name

    def test_seeded_rows_equal_single_estimates(self):
        # a batch whose searches leave their starts every way: rows whose
        # ±2% bracket holds the root, rows whose failure-rate start misses
        # it by 15% or by a factor of 2 and take the proven bracket, a row
        # whose failure-rate start is undefined (observed mean cycle below
        # shape/mu_hat), a row at 1.5 inspections per cycle, where the
        # damage-rate start misses, and early grid times of a short horizon
        cfg = BASE_CONFIGS[3]
        n, insp = cfg.sane.shape, cfg.inspection
        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        n_r = 30000
        base = CountSnapshot(n_r * m.mean_cycle, n_r, n_r * m.mean_inspections,
                             n_r * m.failure_prob)
        exact = asymptotic_estimate(base, cfg)
        mu_hat, lam_hat = exact.mu_hat, exact.lambda_hat

        def timed(scale):
            # counts whose failure-rate start is about scale * lam_hat
            t = n_r * (n / mu_hat + base.failures / base.repairs / (scale * lam_hat))
            return dataclasses.replace(base, time=t)

        undefined = dataclasses.replace(base, time=0.9 * n_r * n / mu_hat)
        early = counts_at_times([1e4 * i for i in range(1, 11)],
                                simulate_horizon(np.random.default_rng(5),
                                                 dataclasses.replace(cfg, horizon=2e5)))
        far = dataclasses.replace(base, inspections=1.5 * n_r)
        snaps = [base, timed(1.15), timed(0.85), timed(2.0), undefined, far, *early]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = asymptotic_estimates(snaps, cfg)
        kinds = []
        for snap, row in zip(snaps, batch):
            single = _single(snap, cfg, "delta")
            if isinstance(single, Exception):
                assert (type(row), str(row)) == (type(single), str(single))
                kinds.append(None)
                continue
            for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda", "diagnostics"):
                assert getattr(row, name) == getattr(single, name), name
            ratio, fraction = snap.inspections / snap.repairs, snap.failures / snap.repairs
            delay = snap.time / snap.repairs - n / row.mu_hat
            kinds.append((
                _bracket_kind(row.diagnostics["mu_bracket"],
                              estimators._damage_rate_start(ratio, n, insp),
                              _damage_bracket(ratio, n, insp)),
                _bracket_kind(row.diagnostics["lambda_bracket"],
                              fraction / delay if delay > 0.0 else math.nan,
                              _failure_bracket(fraction, n, row.mu_hat, insp)),
            ))
        assert [k[1] for k in kinds[:5]] == ["seeded", "proven", "proven", "proven", "proven"]
        assert [k[0] for k in kinds[:6]] == ["seeded"] * 5 + ["proven"]
        assert None not in kinds[6:]

    def test_equal_rates_rows_take_the_diagonal(self):
        # the band strategy above must reach the equal-rates band
        cfg = BASE_CONFIGS[3]
        m = F.cycle_moments(cfg.sane, DamageLaw(cfg.sane.rate), cfg.inspection)
        snap = CountSnapshot(1e7 * m.mean_cycle, 1e7, 1e7 * m.mean_inspections,
                             1e7 * m.failure_prob)
        (row,) = asymptotic_estimates([snap], cfg)
        assert F._near_diagonal(row.mu_hat, row.lambda_hat)

    def test_flat_failure_probability_is_degenerate(self, base_config):
        # a failure fraction this close to 1 leaves the failure probability
        # flat in lambda: that row's covariance is not defined, the others'
        # rows are unchanged
        flat = CountSnapshot(1e6, 1000, 1500, 999.9999999999)
        snaps = [CountSnapshot(50001908.0, 33501, 53116, 8255), flat,
                 CountSnapshot(50002058.0, 20668, 51503, 4369)]
        batch = asymptotic_estimates(snaps, base_config)
        assert type(batch[1]) is DegenerateDataError
        assert str(batch[1]) == "failure rate not identifiable: flat failure probability"
        with pytest.raises(DegenerateDataError, match="flat failure probability"):
            asymptotic_estimate(flat, base_config)
        for k in (0, 2):
            single = asymptotic_estimate(snaps[k], base_config)
            for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda", "diagnostics"):
                assert getattr(batch[k], name) == getattr(single, name), name

    def test_lone_snapshot_gets_the_batch_error(self):
        # at c = 1e-300 the jacobian's product of two sensitivities (about
        # -9e-301 and 4e-301) underflows to zero: a lone snapshot gets the
        # error its row gets in a batch, not a ZeroDivisionError
        cfg = dataclasses.replace(make_config(), inspection=InspectionLaw("deterministic", 1e-300))
        snap = CountSnapshot(5e7, 33501, 53116, 8255)
        (lone,) = asymptotic_estimates([snap], cfg)
        for row in (_single(snap, cfg, "delta"), *asymptotic_estimates([snap, snap], cfg)):
            assert (type(row), str(row)) == (type(lone), str(lone))
        assert type(lone) is DegenerateDataError
        assert str(lone) == "interval covariance not defined: parameter variances nan and nan"

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_elapsed_time_not_finite_and_positive(self, t, base_config):
        # no rate comes from such a time: one error in both slots, checked
        # first, where it raised a ZeroDivisionError (0), a math domain
        # error (-1) for the whole batch, or gave NaN (nan) or zero-width
        # (inf) intervals
        bad = CountSnapshot(t, 100, 200, 30)
        good = CountSnapshot(50001908.0, 33501, 53116, 8255)
        line = f"elapsed time {t!r} is not finite and positive"
        with pytest.raises(DegenerateDataError, match=f"^{re.escape(line)}$"):
            asymptotic_estimate(bad, base_config)
        batch = asymptotic_estimates([good, bad], base_config)
        assert (type(batch[1]), str(batch[1])) == (DegenerateDataError, line)
        single = asymptotic_estimate(good, base_config)
        for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda", "diagnostics"):
            assert getattr(batch[0], name) == getattr(single, name), name
        # the MLE refuses it with the same error, before its start (where
        # it raised a math domain error, a ZeroDivisionError or a bad rate)
        with pytest.raises(DegenerateDataError, match=f"^{re.escape(line)}$"):
            mle_estimate(ObservedData(np.zeros(1), np.ones(1), bad), base_config)

    def test_negative_parameter_variance_is_degenerate(self):
        # counts whose inspections per cycle lie within the inversion
        # tolerance of 1, where every large enough damage rate meets the
        # stopping test (they once reached a negative delta-method
        # variance): that row is infeasible, the other row is its single
        # estimate
        cfg = make_config(shape=2, horizon=1e6)
        bad = CountSnapshot(4703460.384428939, 142667.74932316577, 142667.74932316583,
                            8.361688631161266)
        good = CountSnapshot(50002058.0, 20668, 51503, 4369)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = asymptotic_estimates([good, bad], cfg)
        assert type(batch[1]) is OutOfRangeError
        assert str(batch[1]).startswith("mean inspections per cycle must exceed 1 ")
        with pytest.raises(OutOfRangeError, match="^mean inspections per cycle must exceed 1 "):
            asymptotic_estimate(bad, cfg)
        single = asymptotic_estimate(good, cfg)
        for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda", "diagnostics"):
            assert getattr(batch[0], name) == getattr(single, name), name

    def test_negative_variance_guard(self, base_config, monkeypatch):
        # a parameter covariance with a negative damage-rate variance leaves
        # its row infeasible; no counts probed reach it, so the bundle is
        # made to return one
        bundle = estimators._covariance_bundle

        def negative(*args):
            result, problems = bundle(*args)
            cov = np.array(result.param_cov)
            cov[..., 0, 0] = -cov[..., 0, 0]
            return dataclasses.replace(result, param_cov=cov), problems

        monkeypatch.setattr(estimators, "_covariance_bundle", negative)
        with pytest.raises(DegenerateDataError,
                           match=r"^interval covariance not defined: parameter variances -\d"):
            asymptotic_estimate(CountSnapshot(50001908.0, 33501, 53116, 8255), base_config)

    def test_warns_for_each_short_snapshot(self, base_config):
        snaps = [CountSnapshot(5e4, 30, 60, 8), CountSnapshot(5e4, 40, 90, 8)]
        with pytest.warns(UserWarning, match="dubious") as record:
            asymptotic_estimates(snaps, base_config)
        assert len(record) == 2
        assert record[0].filename == __file__

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(
        cfg=st.sampled_from(BASE_CONFIGS),
        mu=st.lists(st.floats(1e-6, 1e-1), min_size=2, max_size=2),
        rel=st.lists(st.one_of(st.floats(-1e-7, 1e-7), st.floats(-0.9, 9.0)),
                     min_size=2, max_size=2),
    )
    def test_maps_do_not_depend_on_the_batch(self, cfg, mu, rel):
        # [a, b] gives the bits of [a] and [b] alone, across branches too
        n, insp = cfg.sane.shape, cfg.inspection
        lam = [m * (1.0 + r) for m, r in zip(mu, rel)]
        pair = SaneLaw(n, np.array(mu)), DamageLaw(np.array(lam))
        singles = [(SaneLaw(n, m), DamageLaw(v)) for m, v in zip(mu, lam)]
        assert F.mean_inspections(pair[0], insp).tolist() == [
            F.mean_inspections(s, insp) for s, _ in singles]
        assert F.failure_probability(*pair, insp).tolist() == [
            F.failure_probability(s, d, insp) for s, d in singles]
        for func in (F.cycle_moments, F.parameter_sensitivities):
            batch = func(*pair, insp)
            for k, (s, d) in enumerate(singles):
                one = func(s, d, insp)
                for field in dataclasses.fields(one):
                    assert getattr(batch, field.name)[k] == getattr(one, field.name), field.name
        batch, problems = F._covariance_bundle(*pair, insp, "delta")
        for k, (s, d) in enumerate(singles):
            try:
                one = F.estimator_covariance(s, d, insp)
            except ValueError as exc:
                assert problems[k] == str(exc)
            else:
                assert problems[k] is None
                assert batch.param_cov[k].tobytes() == one.param_cov.tobytes()


class TestCensoredLikelihood:
    def test_single_detection_matches_quadrature(self):
        # one detected cycle with visits at 1000 and 2000: the likelihood
        # is the censored integral of the damage density against the
        # failure survival, cross-checked by adaptive quadrature
        data = _observed(((1000.0, 2000.0), False, 2000.0))
        for mu, lam in [(1e-3, 5e-4), (8e-4, 1.3e-3), (1e-3, 1e-3)]:
            sane, dmg = SaneLaw(1, mu), DamageLaw(lam)
            got = math.exp(censored_log_likelihood(data, sane, dmg))
            oracle = simpson_adaptive(
                lambda u: math.exp(-lam * (2000.0 - u)) * density_sane(u, sane),
                1000.0,
                2000.0,
            )
            assert_allclose(got, oracle, rtol=1e-8)

    def test_single_failure_matches_quadrature(self):
        # clean at 1000, failed at 1700 before the visit planned at 2000
        data = _observed(((1000.0, 2000.0), True, 1700.0))
        for n, mu, lam in [(1, 1e-3, 5e-4), (2, 1e-3, 7e-4)]:
            sane, dmg = SaneLaw(n, mu), DamageLaw(lam)
            got = math.exp(censored_log_likelihood(data, sane, dmg))
            oracle = simpson_adaptive(
                lambda u: lam * math.exp(-lam * (1700.0 - u)) * density_sane(u, sane),
                1000.0,
                1700.0,
            )
            assert_allclose(got, oracle, rtol=1e-8)

    def test_first_interval_detection(self):
        # detection at the very first inspection censors against zero
        data = _observed(((1000.0,), False, 1000.0))
        sane, dmg = SaneLaw(1, 1e-3), DamageLaw(5e-4)
        got = math.exp(censored_log_likelihood(data, sane, dmg))
        oracle = simpson_adaptive(
            lambda u: math.exp(-5e-4 * (1000.0 - u)) * density_sane(u, sane), 0.0, 1000.0
        )
        assert_allclose(got, oracle, rtol=1e-8)

    def test_relabeling_invariance(self, base_config):
        rng = np.random.default_rng(77)
        records = [simulate_cycle(rng, base_config) for _ in range(200)]
        data = ObservedData.from_event_log_records(batch_of(records), DET)
        order = np.random.default_rng(5).permutation(len(records))
        shuffled = ObservedData.from_event_log_records(
            batch_of([records[i] for i in order]), DET
        )
        sane, dmg = SaneLaw(1, 9e-4), DamageLaw(6e-4)
        assert censored_log_likelihood(data, sane, dmg) == pytest.approx(
            censored_log_likelihood(shuffled, sane, dmg), rel=1e-15
        )

    def test_total_time_is_the_counts_time(self):
        # lengths whose pairwise np.sum is another float than their running
        # sum, the counts' time: the complete-data curvature in log mu reads
        # the counts' time, the t that the report prints
        b = np.random.default_rng(0).exponential(3000.0, 64) + 1000.0
        time = float(np.cumsum(b)[-1])
        assert float(b.sum()) != time
        data = ObservedData(np.zeros_like(b), b, CountSnapshot(time, 64, 200, 20))
        sane, dmg = SaneLaw(2, 1e-3), DamageLaw(5e-4)
        sum_w = float(F.window_moments(data.a, data.b, sane, dmg)[1].sum())
        complete = estimators._likelihood_terms(data, sane, dmg).complete
        assert complete[0] == 1e-3 * time - sum_w
        assert complete[0] != 1e-3 * float(b.sum()) - sum_w


def _simulated_data(shape):
    """60 deterministic-gap cycles at the base rates."""
    batch = draw_cycles(np.random.default_rng(5), make_config(shape=shape), 60,
                        inspections=True)
    return ObservedData.from_event_log_records(batch, DET)


def _base_run():
    """The base config (seed 22) and the observables of its 2e6 horizon."""
    cfg = make_config(seed=22, horizon=2e6)
    cycles = simulate_horizon(np.random.default_rng(22), cfg)
    return cfg, ObservedData.from_event_log_records(cycles, cfg.inspection)


class TestLikelihoodDerivatives:
    """The analytic score and Hessian in the log rates against central
    differences of the likelihood value in the log rates."""

    # theta*c for c = 1000: on the diagonal, both sides of the 1e-4 switch
    # of the old moments series, and well away from it
    @pytest.mark.parametrize("x", [0.0, 5e-5, -5e-5, 1.01e-4, -1.01e-4, 3e-4, -0.25, 0.5])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4, 5])
    def test_matches_central_differences(self, shape, x):
        data = _simulated_data(shape)
        assert 0 < data.counts.failures < 60
        mu = 1e-3
        lam = mu - x / 1000.0

        def ll(x, y):
            # at log mu + x and log lam + y
            return censored_log_likelihood(data, SaneLaw(shape, mu * math.exp(x)),
                                           DamageLaw(lam * math.exp(y)))

        sane, damage = SaneLaw(shape, mu), DamageLaw(lam)
        terms = estimators._likelihood_terms(data, sane, damage)
        # the value in logs against the window integrals themselves
        direct = (np.log(F.detection_window_integral(data.a, data.b, sane, damage)).sum()
                  + data.counts.failures * math.log(lam))
        assert terms.value == pytest.approx(direct, rel=1e-13)
        # steps 1e-6 in the log rates for the slopes and 1e-4 for the
        # curvatures; the value sums terms of a few thousand, so rounding
        # alone moves a curvature in the log rates by up to about
        # 1e-16 * 3e3 / 1e-8
        h = 1e-6
        grad = [(ll(h, 0.0) - ll(-h, 0.0)) / (2 * h), (ll(0.0, h) - ll(0.0, -h)) / (2 * h)]
        h = 1e-4
        f0 = ll(0.0, 0.0)
        d_mm = (ll(h, 0.0) - 2.0 * f0 + ll(-h, 0.0)) / h**2
        d_ll = (ll(0.0, h) - 2.0 * f0 + ll(0.0, -h)) / h**2
        d_ml = (ll(h, h) - ll(h, -h) - ll(-h, h) + ll(-h, -h)) / (4.0 * h * h)
        assert_allclose(terms.score, grad, rtol=1e-6, atol=1e-6)
        assert_allclose(terms.hessian, [[d_mm, d_ml], [d_ml, d_ll]], rtol=1e-6, atol=2e-4)

    def test_newton_steps_shrink_quadratically(self):
        # pure Newton in the log rates from a start 5% off: each step's
        # size is at most about the square of the last one
        _, data = _base_run()
        logs = np.log([1.05e-3, 4.75e-4])
        sizes = []
        for _ in range(5):
            rates = np.exp(logs)
            terms = estimators._likelihood_terms(data, SaneLaw(1, rates[0]), DamageLaw(rates[1]))
            step = -np.linalg.solve(terms.hessian, terms.score)
            sizes.append(float(np.max(np.abs(step))))
            logs = logs + step
        assert sizes[0] > 1e-2
        for before, after in zip(sizes, sizes[1:]):
            if before > 1e-7:
                assert after <= 5.0 * before**2, sizes
        assert sizes[-1] < 1e-12

    @pytest.mark.parametrize("start", [(1e-2, 1e-5), (1e-6, 1e-6), (3e-2, 3e-2), (1e-4, 1e-1)])
    def test_far_starts_reach_the_same_optimum(self, start):
        # the last two starts have an indefinite Hessian in the log rates,
        # so the fit first takes complete-data steps; capped steps and
        # halving carry every start to the optimum of the asymptotic start
        cfg, data = _base_run()
        report = mle_estimate(data, cfg)
        terms = estimators._likelihood_terms(data, SaneLaw(1, start[0]), DamageLaw(start[1]))
        hess = terms.hessian
        definite = hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0
        assert definite == (start[0] < 2e-2 and start[1] < 1e-2)
        logs, terms, iterations, _ = estimators._newton_fit(data, 1, np.log(start))
        assert iterations <= 15
        assert_allclose(np.exp(logs), [report.mu_hat, report.lambda_hat], rtol=1e-9)
        assert terms.value == pytest.approx(report.diagnostics["log_likelihood"], rel=1e-14)


def _two_set_terms(data, failed, sane, damage):
    """The likelihood terms in the log rates as the detection cycles and the
    failure cycles give them apart, one moments pass over each set: the
    reference for the one pass over every cycle."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    n_fail, n_all = int(failed.sum()), failed.size
    value = n_fail * math.log(lam)
    # mu sum E[u], mu sum E[b - u] and mu^2 sum Var[u]
    sum_u = sum_w = var = 0.0
    for part in (~failed, failed):
        a, b = data.a[part], data.b[part]
        log_value, mean_w, var_w = F.window_moments(a, b, sane, damage)
        value += float(log_value.sum())
        sum_w += float(mean_w.sum())
        sum_u += mu * float(b.sum()) - float(mean_w.sum())
        var += float(var_w.sum())
    rho = lam / mu
    complete = np.array([sum_u, rho * sum_w])
    hessian = np.array([[var - sum_u, -rho * var], [-rho * var, rho * rho * var - rho * sum_w]])
    return value, np.array([n_all * n, n_fail]) - complete, hessian, complete


class TestOneWindowSet:
    """One moments pass over every cycle's window against the detection and
    failure sets summed apart."""

    RATES = [(1e-3, 5e-4), (1.3e-3, 3e-4), (8e-4, 8.1e-4), (6e-4, 2e-3)]

    @staticmethod
    def _check(data, failed, shape):
        assert data.counts.failures == int(failed.sum())
        assert 0 < data.counts.failures < data.counts.repairs
        for mu, lam in TestOneWindowSet.RATES:
            sane, damage = SaneLaw(shape, mu), DamageLaw(lam)
            terms = estimators._likelihood_terms(data, sane, damage)
            value, score, hessian, complete = _two_set_terms(data, failed, sane, damage)
            assert terms.value == pytest.approx(value, rel=1e-13, abs=0.0)
            assert_allclose(terms.complete, complete, rtol=1e-13, atol=0.0)
            # score and Hessian entries in the log rates are differences of
            # sums of up to a few thousand; each is held to 1e-13 of its
            # count term (or of the variance sum, off the diagonal)
            n_all, n_fail, cross = data.counts.repairs, data.counts.failures, -hessian[0, 1]
            first = np.array([n_all * shape, n_fail])
            assert np.all(np.abs(terms.score - score) <= 1e-13 * first)
            second = np.array([[n_all * shape, cross], [cross, n_fail]])
            assert np.all(np.abs(terms.hessian - hessian) <= 1e-13 * second)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_in_memory_batches(self, shape, kind):
        cfg = make_config(shape=shape, kind=kind)
        batch = draw_cycles(np.random.default_rng(40 + shape), cfg, 2000, inspections=True)
        data = ObservedData.from_event_log_records(batch, cfg.inspection)
        self._check(data, batch.failed, shape)

    def test_parsed_log(self, tmp_path):
        batch = draw_cycles(np.random.default_rng(41), make_config(), 2000)
        path = tmp_path / "events.csv"
        path.write_text(csv_text(batch)[0])
        parsed = read_event_log(path)
        self._check(ObservedData.from_event_log_records(parsed, DET), parsed.failed, 1)


class TestNewtonAgainstSimplex:
    """The Newton fit against the derivative-free simplex walk, which reads
    only likelihood values, from the same start."""

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_same_optimum(self, shape):
        self._check_same_optimum(shape, "deterministic")

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_same_optimum_uniform(self, shape):
        # the last clean inspections read off the uniform schedules
        self._check_same_optimum(shape, "uniform")

    @staticmethod
    def _check_same_optimum(shape, kind):
        cfg = make_config(shape=shape, kind=kind, seed=31, horizon=2e6)
        cycles = simulate_horizon(np.random.default_rng(31 + shape), cfg)
        data = ObservedData.from_event_log_records(cycles, cfg.inspection)
        report = mle_estimate(data, cfg)
        d = report.diagnostics

        def negloglik(logs):
            return -censored_log_likelihood(
                data, SaneLaw(shape, math.exp(logs[0])), DamageLaw(math.exp(logs[1]))
            )

        best, f_best, _ = nelder_mead(
            negloglik, np.log([d["start_mu"], d["start_lambda"]])
        )
        newton = -negloglik(np.log([report.mu_hat, report.lambda_hat]))
        assert newton >= -f_best - 1e-9 * abs(f_best)
        assert d["log_likelihood"] == pytest.approx(newton, rel=1e-13)
        assert_allclose([report.mu_hat, report.lambda_hat], np.exp(best), rtol=1e-6)
        assert d["iterations"] <= 8


class TestMleEstimate:
    def test_recovers_truth_on_simulated_data(self):
        # a representative seed; the 100-replicate coverage check lives in
        # the acceptance suite
        cfg, data = _base_run()
        report = mle_estimate(data, cfg)
        assert report.ci_mu[0] < cfg.sane.rate < report.ci_mu[1]
        assert report.ci_lambda[0] < cfg.damage.rate < report.ci_lambda[1]
        assert report.diagnostics["iterations"] > 0

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_estimates_scale_with_the_time_unit(self, shape, kind):
        # times by s = 2^j and rates over s divide the fit's estimates and
        # interval ends by s, up to the rounding of its Newton steps: the
        # window moments, the score, the Hessian and the information all
        # compute in the log rates, without a unit, and each rate enters its
        # interval once.  So the outputs' own exponents bound the range: the
        # elapsed time, 2e6 s < 2^21 s, stays finite up to j = 1003, and the
        # largest rate output, the upper end of mu's interval near 1.1e-3/s
        # > 2^-10/s, down to j = -1033, where mu_hi is the last output to
        # stay in the floats (from j = -1034 the rates leave them)
        base_config = make_config(shape=shape, kind=kind, horizon=2e6)

        def fit(j):
            config = time_scaled(base_config, 2.0**j)
            cycles = simulate_horizon(np.random.default_rng(5), config)
            return mle_estimate(ObservedData.from_event_log_records(cycles, config.inspection),
                                config)

        base = fit(0)
        for j in [-1033, -1032, -1031, *range(-1030, 1001, 10), 1003]:
            got = fit(j)
            for name in ("mu_hat", "lambda_hat", "ci_mu", "ci_lambda"):
                scaled = np.array(getattr(got, name)) * 2.0**j
                assert_allclose(scaled, getattr(base, name), rtol=1e-12, atol=0.0,
                                err_msg=f"{name} at j = {j}")

    def test_needs_both_end_types(self, base_config):
        data = _observed(((1000.0,), False, 1000.0))
        with pytest.raises(DegenerateDataError):
            mle_estimate(data, base_config)

    def test_bounds_built_once_per_data_set(self):
        # the censoring windows and totals are the fields of the data set,
        # built once by its one builder and read by every likelihood
        # evaluation of a fit; the totals match the cycles exactly
        cfg = make_config(seed=22, horizon=5e5)
        cycles = simulate_horizon(np.random.default_rng(22), cfg)
        data = ObservedData.from_event_log_records(cycles, cfg.inspection)
        report = mle_estimate(data, cfg)
        # Newton from the asymptotic start: a few steps, each one pass
        # over the windows, no step halved, the score gone at the optimum
        d = report.diagnostics
        assert 1 <= d["iterations"] <= 8
        assert d["likelihood_evaluations"] == d["iterations"] + 1
        assert d["score_norm"] <= 1e-6 * d["n_cycles"]

        rows = list(cycles)
        n_fail = sum(1 for c in rows if c.failed)
        assert data.a.size == data.b.size == data.counts.repairs == len(rows)
        assert data.counts.failures == n_fail
        # planned visits that happened, plus the failure itself
        assert data.counts.inspections == sum(len(c.inspections) - c.failed for c in rows) + n_fail
        total = 0.0
        for c in rows:
            total += c.length
        assert data.counts.time == total

    def test_event_log_projection_uniform_rejected(self, tmp_path):
        # a uniform-gap log read back carries neither its ages nor a spacing
        batch = draw_cycles(np.random.default_rng(3), make_config(kind="uniform"), 10,
                            inspections=True)
        path = tmp_path / "events.csv"
        path.write_text(csv_text(batch)[0])
        parsed = read_event_log(path)
        assert (parsed.inspection_ages.size, parsed.spacing) == (0, 0.0)
        with pytest.raises(DegenerateDataError, match="^event logs do not carry the planned "):
            ObservedData.from_event_log_records(parsed, UNIF)

    def test_one_builder_batch_and_log_agree(self, tmp_path):
        # a deterministic-gap batch with its ages, and the same cycles read
        # back from an event log without them, give the same bits
        batch = draw_cycles(np.random.default_rng(3), make_config(), 3000, inspections=True)
        path = tmp_path / "events.csv"
        path.write_text(csv_text(batch)[0])
        direct = ObservedData.from_event_log_records(batch, DET)
        via_log = ObservedData.from_event_log_records(read_event_log(path), DET)
        assert 0 < direct.counts.failures < 3000
        for name in ("a", "b"):
            one, other = getattr(direct, name), getattr(via_log, name)
            assert one.dtype == other.dtype == np.float64
            assert one.tobytes() == other.tobytes(), name
        assert direct.counts == via_log.counts
        assert (type(direct.counts.inspections), type(direct.counts.time)) == (int, float)

    def test_observed_projection_drops_latents(self):
        # only the censoring windows and the counts remain; each window runs
        # from the second-to-last planned age (0 without one) to the
        # cycle's end
        assert [f.name for f in dataclasses.fields(ObservedData)] == ["a", "b", "counts"]
        for cfg in (make_config(), make_config(shape=2, kind="uniform")):
            batch = draw_cycles(np.random.default_rng(13), cfg, 500, inspections=True)
            data = ObservedData.from_event_log_records(batch, cfg.inspection)
            assert data.a.tolist() == [
                r.inspections[-2] if r.inspection_count >= 2 else 0.0 for r in batch]
            assert data.b.tolist() == [r.length for r in batch]
            assert data.counts == batch.counts()

    @pytest.mark.parametrize("failed", [False, True])
    def test_cycle_ending_at_its_last_clean_inspection_rejected(self, failed):
        # the second cycle was clean at 2000 and ends there: an empty window
        batch = batch_of([
            CycleRecord(0.0, 0.0, (1000.0,), 1, 1000.0, math.inf, 1000.0, False),
            CycleRecord(0.0, 0.0, (1000.0, 2000.0, 3000.0), 3, 3000.0, 2000.0, 2000.0, failed),
        ])
        message = r"^cycle 2 ends at age 2000\.0, not after its last clean inspection at age 2000\.0$"
        with pytest.raises(DegenerateDataError, match=message):
            ObservedData.from_event_log_records(batch, DET)


class TestNewtonSafeguards:
    """The fit's guards, driven through a likelihood that misbehaves on
    purpose: no simulated log reaches them."""

    @staticmethod
    def _patch_values(monkeypatch, value_at):
        """Let evaluation k (from 0) of the likelihood read value_at(k,
        terms) instead of its true value; returns the evaluated rates."""
        real = estimators._likelihood_terms
        points = []

        def terms(data, sane, damage):
            true = real(data, sane, damage)
            value = value_at(len(points), true)
            points.append((sane.rate, damage.rate))
            return dataclasses.replace(true, value=value)

        monkeypatch.setattr(estimators, "_likelihood_terms", terms)
        return points

    def test_rejected_step_is_halved(self, monkeypatch):
        cfg, data = _base_run()
        expected = mle_estimate(data, cfg)
        # the first trial point reads as a likelihood drop
        points = self._patch_values(monkeypatch, lambda k, t: -math.inf if k == 1 else t.value)
        report = mle_estimate(data, cfg)
        logs = np.log(points)
        assert_allclose(logs[2] - logs[0], (logs[1] - logs[0]) / 2.0, rtol=1e-9, atol=1e-13)
        d = report.diagnostics
        assert d["likelihood_evaluations"] == d["iterations"] + 2
        assert_allclose([report.mu_hat, report.lambda_hat],
                        [expected.mu_hat, expected.lambda_hat], rtol=1e-9)

    def test_no_likelihood_increase(self, monkeypatch):
        cfg, data = _base_run()
        points = self._patch_values(monkeypatch, lambda k, t: t.value if k == 0 else -math.inf)
        with pytest.raises(NonConvergenceError,
                           match="^Newton step found no likelihood increase$"):
            mle_estimate(data, cfg)
        # the start and 60 ever shorter trials of the first step
        assert len(points) == 61

    def test_likelihood_not_finite_at_the_start(self, monkeypatch):
        cfg, data = _base_run()
        self._patch_values(monkeypatch, lambda k, t: math.nan)
        with pytest.raises(NonConvergenceError,
                           match="^censored likelihood is not finite at the start$"):
            mle_estimate(data, cfg)

    def test_step_limit(self, monkeypatch):
        # a likelihood that rises by 1 per evaluation with a constant slope
        # in the log rates and no curvature: every capped step of 1 is
        # taken, none is short
        cfg, data = _base_run()
        calls = []

        def rising(data, sane, damage):
            calls.append(None)
            return estimators._LikelihoodTerms(float(len(calls)), np.ones(2), np.zeros((2, 2)),
                                               np.ones(2))

        monkeypatch.setattr(estimators, "_likelihood_terms", rising)
        with pytest.raises(NonConvergenceError,
                           match=f"^Newton iteration did not converge in {estimators._MAX_STEPS} "
                                 "steps$"):
            mle_estimate(data, cfg)
        assert len(calls) == estimators._MAX_STEPS + 1

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2])
    def test_start_is_the_asymptotic_estimate(self, shape, kind):
        # the fit starts from the delta estimate of the data's counts: the
        # same two searches, so the same bits
        cfg = make_config(shape=shape, kind=kind, seed=22, horizon=2e6)
        cycles = simulate_horizon(np.random.default_rng(22), cfg)
        data = ObservedData.from_event_log_records(cycles, cfg.inspection)
        d = mle_estimate(data, cfg).diagnostics
        am = asymptotic_estimate(data.counts, cfg)
        assert (d["start_mu"], d["start_lambda"]) == (am.mu_hat, am.lambda_hat)

    def test_uninformative_counts_take_the_crude_start(self, base_config):
        # every cycle ends by its first inspection: one inspection per
        # cycle, where the mean-inspections map has no root
        data = _observed(*[((1000.0,), False, 1000.0)] * 30,
                         *[((1000.0,), True, 37.0 * i + 100.0) for i in range(12)])
        assert data.counts.inspections == 42
        report = mle_estimate(data, base_config)
        d = report.diagnostics
        t = data.counts.time
        assert (d["start_mu"], d["start_lambda"]) == (42 / t, 12 / t)
        assert d["score_norm"] <= 1e-9
        assert report.ci_mu[0] < report.mu_hat < report.ci_mu[1]


class TestRoundTripProperty:
    @given(
        shape=st.integers(1, 2),
        mu=st.floats(4e-4, 3e-3),
        lam=st.floats(2e-4, 1.5e-3),
        uniform=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_counts_recover_rates(self, shape, mu, lam, uniform):
        cfg = make_config(shape=shape, kind="uniform" if uniform else "deterministic",
                          mu=mu, lam=lam)
        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        t = 1e9
        snap = CountSnapshot(
            t, t / m.mean_cycle, t * m.mean_inspections / m.mean_cycle,
            t * m.failure_prob / m.mean_cycle,
        )
        report = asymptotic_estimate(snap, cfg)
        assert abs(report.mu_hat - mu) <= 1e-8 * mu
        assert abs(report.lambda_hat - lam) <= 1e-8 * lam

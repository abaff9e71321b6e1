import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cbmkit import estimators
from cbmkit import formulas as F
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
    invert_monotone,
    mle_estimate,
)
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw, density_sane
from cbmkit.simulator import (
    CountSnapshot,
    CycleRecord,
    event_log_lines,
    read_event_log,
    simulate_cycle,
    simulate_cycles,
    simulate_horizon,
)
from conftest import batch_of, make_config
from linear_scan import linear_scan_invert
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


class TestInvertMonotone:
    def test_finds_root(self):
        x = invert_monotone(lambda v: v * v, 2.0)
        assert_allclose(x, math.sqrt(2.0), rtol=1e-10)

    def test_expands_bracket(self):
        x = invert_monotone(lambda v: v, 3e2)
        assert_allclose(x, 3e2, rtol=1e-10)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            invert_monotone(lambda v: 1.0 / (1.0 + v), 2.0)


class TestBracketSearch:
    """invert_monotone bisects over the grid indices where the reference
    scans them one by one, and both polish the bracket with the same
    Chandrupatla helper; bracket, iterations and root must agree."""

    XS = np.geomspace(1e-8, 1e2, 64)

    @staticmethod
    def _outcome(solver, func, target, **kwargs):
        trace = {}
        try:
            x = solver(func, target, trace=trace, **kwargs)
        except (OutOfRangeError, estimators.NonConvergenceError) as exc:
            return type(exc), str(exc)
        return float(x).hex(), trace.get("bracket"), trace.get("iterations")

    def _assert_same(self, func, targets, **kwargs):
        for target in targets:
            expected = self._outcome(linear_scan_invert, func, target, **kwargs)
            assert self._outcome(invert_monotone, func, target, **kwargs) == expected, target

    @pytest.mark.parametrize("law", [DET, UNIF], ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_mean_inspections_map(self, shape, law):
        def func(mu):
            return F.mean_inspections(SaneLaw(shape, mu), law)

        exact = [func(float(mu)) for mu in np.geomspace(3e-8, 30.0, 8)]
        # count ratios seen early in a series, and ratios needing expansion
        early = [2 / 1, 3 / 2, 4 / 3, 7 / 5, 12 / 7, 25 / 11, 101 / 100, 1.0000001, 3e5, 1e7]
        self._assert_same(func, exact + early)

    @pytest.mark.parametrize("law", [DET, UNIF], ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_failure_probability_map(self, shape, law):
        for mu in (1e-3, 3.7e-4):
            sane = SaneLaw(shape, mu)

            def func(lam):
                return F.failure_probability(sane, DamageLaw(lam), law)

            exact = [func(float(lam)) for lam in np.geomspace(1e-6, 1.0, 7)] + [func(mu)]
            early = [1 / 2, 1 / 3, 1 / 7, 2 / 9, 1e-2, 1e-3, 1e-7, 0.9, 0.999]
            self._assert_same(func, exact + early, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("k", [0, 1, 31, 62, 63])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_root_on_a_grid_point(self, k, sign):
        self._assert_same(lambda v: sign * v, [sign * float(self.XS[k])])
        assert invert_monotone(lambda v: sign * v, sign * float(self.XS[k])) == self.XS[k]

    @pytest.mark.parametrize("interval", [0, 62], ids=["first", "last"])
    @pytest.mark.parametrize("func", [lambda v: v, lambda v: -(v**3), lambda v: 1.0 / v],
                             ids=["linear", "cubic", "reciprocal"])
    def test_root_in_an_end_interval(self, interval, func):
        root = math.sqrt(self.XS[interval] * self.XS[interval + 1])
        self._assert_same(func, [func(root)])
        trace = {}
        invert_monotone(func, func(root), trace=trace)
        assert trace["bracket"] == (self.XS[interval], self.XS[interval + 1])

    def test_expansion(self):
        for func in (lambda v: v, lambda v: 1.0 / v):
            self._assert_same(func, [3e2, 1e-11, 1e7, 4e-13])

    def test_out_of_range_text(self):
        self._assert_same(lambda v: 1.0 / (1.0 + v), [2.0, -1.0])
        expected = self._outcome(linear_scan_invert, lambda v: v, -1.0)
        assert expected[0] is OutOfRangeError
        assert self._outcome(invert_monotone, lambda v: v, -1.0) == expected

    @pytest.mark.parametrize(
        "func, target, raises",
        [
            (lambda mu: F.mean_inspections(SaneLaw(2, mu), UNIF),
             F.mean_inspections(SaneLaw(2, 1e-3), UNIF), False),
            (lambda v: v, 1e-8, False),
            (lambda v: 1.0 / (1.0 + v), 2.0, True),
        ],
        ids=["polished", "first-grid-point", "out-of-range"],
    )
    def test_evaluations_traced(self, func, target, raises):
        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        trace = {}
        try:
            invert_monotone(counted, target, trace=trace)
        except OutOfRangeError:
            assert raises
        else:
            assert not raises
        assert trace["evaluations"] == len(calls) > 0


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
    reach."""

    @staticmethod
    def _check(func, target, **kwargs):
        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        trace = {}
        x = invert_monotone(counted, target, trace=trace, **kwargs)
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
            self._check(func, target)

    @pytest.mark.parametrize("law", [DET, UNIF], ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_failure_probability_map(self, shape, law):
        sane = SaneLaw(shape, 1e-3)

        def func(lam):
            return F.failure_probability(sane, DamageLaw(lam), law)

        targets = [func(lam) for lam in (1e-5, 5e-4, 0.1)] + [8255 / 33501, 4452 / 20470]
        for target in targets:
            self._check(func, target, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize(
        "func",
        [lambda v: 0.0 if v < 0.37 else 1.0, lambda v: max(v - 0.37, 0.0) * 1e18],
        ids=["step", "flat-then-steep"],
    )
    def test_ends_at_float_resolution(self, func):
        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        trace = {}
        target = 0.5 if func(1.0) == 1.0 else 1.0
        x = invert_monotone(counted, target, trace=trace)
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
        calls = []
        for name in ("mean_inspections", "failure_probability"):
            original = getattr(estimators, name)
            monkeypatch.setattr(estimators, name,
                                lambda *a, _f=original: calls.append(1) or _f(*a))
        report = asymptotic_estimate(snap, cfg)
        d = report.diagnostics
        assert d["mu_evaluations"] <= 14 and d["lambda_evaluations"] <= 14
        assert d["mu_evaluations"] + d["lambda_evaluations"] == len(calls) <= 28

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


def _single(snap, cfg, interval):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return asymptotic_estimate(snap, cfg, interval=interval)
        except (ValueError, NonConvergenceError) as exc:
            return exc


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
            assert row.sigma2.tobytes() == single.sigma2.tobytes()

    def test_equal_rates_rows_take_the_diagonal(self):
        # the band strategy above must reach the contour branch
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
            assert batch[k].sigma2.tobytes() == single.sigma2.tobytes()

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


def _simulated_data(shape):
    """60 deterministic-gap cycles at the base rates."""
    batch = simulate_cycles(np.random.default_rng(5), make_config(shape=shape), 60,
                            inspections=True)
    return ObservedData.from_event_log_records(batch, DET)


def _base_run():
    """The base config (seed 22) and the observables of its 2e6 horizon."""
    cfg = make_config(seed=22, horizon=2e6)
    cycles = simulate_horizon(np.random.default_rng(22), cfg)
    return cfg, ObservedData.from_event_log_records(cycles, cfg.inspection)


class TestLikelihoodDerivatives:
    """The analytic score and Hessian against central differences of the
    likelihood value."""

    # theta*c for c = 1000: on the diagonal, both sides of the 1e-4 switch
    # of the old moments series, and well away from it
    @pytest.mark.parametrize("x", [0.0, 5e-5, -5e-5, 1.01e-4, -1.01e-4, 3e-4, -0.25, 0.5])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4, 5])
    def test_matches_central_differences(self, shape, x):
        data = _simulated_data(shape)
        assert 0 < data.fail_z.size < 60
        mu = 1e-3
        lam = mu - x / 1000.0

        def ll(m, l):
            return censored_log_likelihood(data, SaneLaw(shape, m), DamageLaw(l))

        sane, damage = SaneLaw(shape, mu), DamageLaw(lam)
        terms = estimators._likelihood_terms(data, sane, damage)
        # the value in logs against the window integrals themselves
        direct = (np.log(F.detection_window_integral(data.det_a, data.det_b, sane, damage)).sum()
                  + np.log(lam * F.detection_window_integral(data.fail_a, data.fail_z, sane,
                                                             damage)).sum())
        assert terms.value == pytest.approx(direct, rel=1e-13)
        # relative steps 1e-6 for the slopes and 1e-4 for the curvatures;
        # the value sums terms of a few thousand, so rounding alone moves a
        # curvature in the log rates by up to about 1e-16 * 3e3 / 1e-8
        hm, hl = 1e-6 * mu, 1e-6 * lam
        grad = [(ll(mu + hm, lam) - ll(mu - hm, lam)) / (2 * hm),
                (ll(mu, lam + hl) - ll(mu, lam - hl)) / (2 * hl)]
        hm, hl = 1e-4 * mu, 1e-4 * lam
        f0 = ll(mu, lam)
        d_mm = (ll(mu + hm, lam) - 2.0 * f0 + ll(mu - hm, lam)) / hm**2
        d_ll = (ll(mu, lam + hl) - 2.0 * f0 + ll(mu, lam - hl)) / hl**2
        d_ml = (ll(mu + hm, lam + hl) - ll(mu + hm, lam - hl)
                - ll(mu - hm, lam + hl) + ll(mu - hm, lam - hl)) / (4.0 * hm * hl)
        # scale each entry by the parameters, so all read per unit log change
        scale = np.array([mu, lam])
        assert_allclose(terms.score * scale, np.array(grad) * scale, rtol=1e-6, atol=1e-6)
        assert_allclose(terms.hessian * np.outer(scale, scale),
                        np.array([[d_mm, d_ml], [d_ml, d_ll]]) * np.outer(scale, scale),
                        rtol=1e-6, atol=2e-4)

    def test_newton_steps_shrink_quadratically(self):
        # pure Newton in the log rates from a start 5% off: each step's
        # size is at most about the square of the last one
        _, data = _base_run()
        logs = np.log([1.05e-3, 4.75e-4])
        sizes = []
        for _ in range(5):
            rates = np.exp(logs)
            terms = estimators._likelihood_terms(data, SaneLaw(1, rates[0]), DamageLaw(rates[1]))
            grad = rates * terms.score
            hess = terms.hessian * np.outer(rates, rates) + np.diag(grad)
            step = -np.linalg.solve(hess, grad)
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
        rates = np.array(start)
        terms = estimators._likelihood_terms(data, SaneLaw(1, start[0]), DamageLaw(start[1]))
        hess = terms.hessian * np.outer(rates, rates) + np.diag(rates * terms.score)
        definite = hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0
        assert definite == (start[0] < 2e-2 and start[1] < 1e-2)
        logs, terms, iterations, _ = estimators._newton_fit(data, 1, np.log(start))
        assert iterations <= 15
        assert_allclose(np.exp(logs), [report.mu_hat, report.lambda_hat], rtol=1e-9)
        assert terms.value == pytest.approx(report.diagnostics["log_likelihood"], rel=1e-14)


class TestNewtonAgainstSimplex:
    """The Newton fit against the derivative-free simplex walk, which reads
    only likelihood values, from the same start."""

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_same_optimum(self, shape):
        cfg = make_config(shape=shape, seed=31, horizon=2e6)
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
        assert data.fail_a.size == n_fail == data.fail_z.size
        assert data.det_a.size == len(rows) - n_fail == data.det_b.size
        # planned visits that happened, plus the failure itself
        assert data.n_inspections == sum(len(c.inspections) - c.failed for c in rows) + n_fail
        total = 0.0
        for c in rows:
            total += c.length
        assert data.total_time == total

    def test_event_log_projection_uniform_rejected(self):
        batch = simulate_cycles(np.random.default_rng(3), make_config(kind="uniform"), 10)
        assert batch.inspection_ages.size == 0
        with pytest.raises(DegenerateDataError):
            ObservedData.from_event_log_records(batch, UNIF)

    def test_one_builder_batch_and_log_agree(self, tmp_path):
        # a deterministic-gap batch with its ages, and the same cycles read
        # back from an event log without them, give the same bits
        batch = simulate_cycles(np.random.default_rng(3), make_config(), 3000, inspections=True)
        path = tmp_path / "events.csv"
        path.write_text("".join(event_log_lines(batch)))
        direct = ObservedData.from_event_log_records(batch, DET)
        via_log = ObservedData.from_event_log_records(read_event_log(path), DET)
        assert 0 < direct.fail_z.size < 3000
        for name in ("det_a", "det_b", "fail_a", "fail_z"):
            one, other = getattr(direct, name), getattr(via_log, name)
            assert one.dtype == other.dtype == np.float64
            assert one.tobytes() == other.tobytes(), name
        assert direct.n_inspections == via_log.n_inspections
        assert direct.total_time == via_log.total_time
        assert (type(direct.n_inspections), type(direct.total_time)) == (int, float)

    def test_observed_projection_drops_latents(self):
        # only the censoring windows, the exact failure ages and the totals
        # remain; each window is read off the cycle's schedule
        assert [f.name for f in dataclasses.fields(ObservedData)] == [
            "det_a", "det_b", "fail_a", "fail_z", "n_inspections", "total_time",
        ]
        for cfg in (make_config(), make_config(shape=2, kind="uniform")):
            batch = simulate_cycles(np.random.default_rng(13), cfg, 500, inspections=True)
            data = ObservedData.from_event_log_records(batch, cfg.inspection)
            detected = [r for r in batch if not r.failed]
            failed = [r for r in batch if r.failed]

            def last_clean(r):
                return r.inspections[-2] if r.inspection_count >= 2 else 0.0

            assert data.det_a.tolist() == [last_clean(r) for r in detected]
            assert data.det_b.tolist() == [r.inspections[-1] for r in detected]
            assert data.fail_a.tolist() == [last_clean(r) for r in failed]
            assert data.fail_z.tolist() == [r.length for r in failed]


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
        # and no curvature: every capped step of 1 is taken, none is short
        cfg, data = _base_run()
        calls = []

        def rising(data, sane, damage):
            calls.append(None)
            return estimators._LikelihoodTerms(
                float(len(calls)), np.array([1.0 / sane.rate, 1.0 / damage.rate]),
                np.zeros((2, 2)), np.ones(2))

        monkeypatch.setattr(estimators, "_likelihood_terms", rising)
        with pytest.raises(NonConvergenceError,
                           match=f"^Newton iteration did not converge in {estimators._MAX_STEPS} "
                                 "steps$"):
            mle_estimate(data, cfg)
        assert len(calls) == estimators._MAX_STEPS + 1

    def test_uninformative_counts_take_the_crude_start(self, base_config):
        # every cycle ends by its first inspection: one inspection per
        # cycle, where the mean-inspections map has no root
        data = _observed(*[((1000.0,), False, 1000.0)] * 30,
                         *[((1000.0,), True, 37.0 * i + 100.0) for i in range(12)])
        assert data.n_inspections == 42
        report = mle_estimate(data, base_config)
        d = report.diagnostics
        assert (d["start_mu"], d["start_lambda"]) == (42 / data.total_time, 12 / data.total_time)
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

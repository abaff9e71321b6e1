import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cbmkit import formulas as F
from cbmkit import oracle
from cbmkit.laws import InspectionLaw
from cbmkit.oracle import verification_rows
import age_law
from age_law import (
    cycle_length_survival,
    ks_critical,
    ks_statistic,
    limiting_age_cdf,
    mc_age_distribution,
)
from conftest import halved_cycle_square, make_config, time_scaled
from two_pass import two_pass_columns


def _by_quantity(rows):
    return {r.quantity: r for r in rows}


class TestMcMomentSet:
    """The Monte Carlo columns of the verification rows of the cycle
    moments."""

    def test_reproducible_bit_for_bit(self, base_config):
        a = verification_rows(base_config, 20_000, seed=3)
        b = verification_rows(base_config, 20_000, seed=3)
        assert a == b
        # one row per cycle moment first, under its closed-form name
        assert [r.quantity for r in a[:10]] == [f.name for f in dataclasses.fields(F.CycleMoments)]

    def test_rejects_small_sample(self, base_config):
        with pytest.raises(ValueError):
            verification_rows(base_config, 5_000, seed=1)

    def test_matches_closed_forms(self, base_config):
        rows = _by_quantity(verification_rows(base_config, 100_000, seed=11))
        closed = F.cycle_moments(
            base_config.sane, base_config.damage, base_config.inspection
        )
        for name in (
            "mean_inspections",
            "failure_prob",
            "mean_cycle",
            "mean_cycle_on_failure",
            "mean_inspections_detected",
        ):
            assert rows[name].closed_form == getattr(closed, name)
            assert abs(rows[name].z_score) <= 4.0

    def test_fast_failures_degenerate(self):
        # failures almost always precede the first inspection
        cfg = make_config(lam=1.0, horizon=1e5)
        row = _by_quantity(verification_rows(cfg, 20_000, seed=5))["failure_prob"]
        closed = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        assert closed.failure_prob > 0.999
        assert row.closed_form == closed.failure_prob
        assert abs(row.z_score) <= 4.0

    def test_se_halves_when_samples_quadruple(self, base_config):
        ratios = []
        for seed in range(10):
            small = _by_quantity(verification_rows(base_config, 10_000, seed=seed))
            large = _by_quantity(verification_rows(base_config, 40_000, seed=100 + seed))
            ratios.append(large["mean_cycle"].mc_se / small["mean_cycle"].mc_se)
        assert 0.4 <= float(np.mean(ratios)) <= 0.6


class TestVerificationRows:
    def test_all_pass_on_correct_forms(self, any_config):
        rows = verification_rows(any_config, 60_000, seed=9)
        assert len(rows) == 16
        assert all(r.passed for r in rows)

    @pytest.mark.parametrize("lam", [1e-3, 1.2e-3], ids=["lam=mu", "lam=1.2mu"])
    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_all_pass_in_equal_rates_band(self, shape, kind, lam):
        # the band's closed forms against Monte Carlo, one seed for every cell
        config = make_config(shape, kind, lam=lam)
        assert F._near_diagonal(config.sane.rate, lam)
        rows = verification_rows(config, 100_000, seed=3)
        assert all(r.passed for r in rows)

    def test_corrupted_closed_form_flagged(self, base_config):
        rows = verification_rows(
            base_config, 20_000, seed=9, closed_overrides={"mean_cycle": 2000.0}
        )
        failed = [r for r in rows if not r.passed]
        assert [r.quantity for r in failed] == ["mean_cycle"]

    def test_inconsistent_closed_forms_fail_rows(self, base_config, monkeypatch):
        # a negative cycle-length variance is a failing comparison, not an
        # error: the oracle compares, it does not check
        monkeypatch.setattr(oracle, "cycle_moments", halved_cycle_square(oracle.cycle_moments))
        rows = verification_rows(base_config, 20_000, seed=9)
        assert len(rows) == 16
        assert not _by_quantity(rows)["mean_cycle_sq"].passed

    def test_rows_hold_python_scalars(self, base_config):
        # no numpy scalar in any field, so a row serialises as JSON
        for r in verification_rows(base_config, 10_000, seed=1):
            assert [type(v) for v in dataclasses.astuple(r)] == [str, float, float, float,
                                                                 float, bool]


# The time dimension of each row that has one; the others are counts and
# probabilities, of dimension 0.
_TIME_DIMENSION = {
    "mean_cycle": 1, "cov_cycle_failure": 1, "cov_inspections_cycle": 1,
    "mean_cycle_on_failure": 1, "mean_cycle_sq": 2,
    **{f"rate_cov[{a},{b}]": 2 for a, b in [
        ("repair", "repair"), ("repair", "failure"), ("repair", "inspection"),
        ("failure", "failure"), ("failure", "inspection"), ("inspection", "inspection")]},
}


class TestTimeUnit:
    """The model has no time unit: every time (c, h, the horizon) times
    s = 2^j and every rate over s is exact in floats, and scales each row
    of time dimension d by s^d, bit for bit."""

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_rows_scale_exactly(self, shape, kind):
        base = make_config(shape, kind)
        base_rows = verification_rows(base, 20_000, seed=4)
        for j in (-40, -20, 20, 40):
            s = 2.0**j
            rows = verification_rows(time_scaled(base, s), 20_000, seed=4)
            for got, want in zip(rows, base_rows):
                unit = s ** _TIME_DIMENSION.get(want.quantity, 0)
                assert (got.quantity, got.closed_form, got.mc_value, got.mc_se) == (
                    want.quantity, want.closed_form * unit, want.mc_value * unit,
                    want.mc_se * unit), (j, want.quantity)
                assert got.z_score == want.z_score, (j, want.quantity)


# The four base configs and one where nearly every cycle fails.
_TWO_PASS_CONFIGS = {
    "n1-det": make_config(),
    "n2-det": make_config(shape=2),
    "n1-unif": make_config(kind="uniform"),
    "n2-unif": make_config(shape=2, kind="uniform"),
    "lam-1": make_config(lam=1.0),
}


def _assert_matches_two_pass(rows, columns):
    assert [r.quantity for r in rows] == list(columns)
    for r in rows:
        value, se = columns[r.quantity]
        assert_allclose(r.mc_value, value, rtol=1e-12, atol=0, err_msg=r.quantity)
        assert_allclose(r.mc_se, se, rtol=1e-9, atol=0, err_msg=r.quantity)


class TestStreamedMomentPass:
    """The one streamed moment pass against two passes over whole
    columns."""

    # within one chunk, one past a chunk boundary, and many chunks
    @pytest.mark.parametrize("n", [10_000, 12_289, 100_000])
    @pytest.mark.parametrize("label", sorted(_TWO_PASS_CONFIGS))
    def test_matches_two_pass(self, label, n):
        cfg = _TWO_PASS_CONFIGS[label]
        _assert_matches_two_pass(verification_rows(cfg, n, seed=5),
                                 two_pass_columns(cfg, n, seed=5))

    def test_no_failed_cycle(self):
        # no cycle fails: the four rows built on the failure indicator have
        # no spread, and read exactly +0.0 with a standard error of 0.0
        cfg = make_config(lam=1e-7)
        rows = verification_rows(cfg, 20_000, seed=2)
        columns = two_pass_columns(cfg, 20_000, seed=2)
        flat = [r for r in rows if r.mc_se == 0.0]
        assert [r.quantity for r in flat] == [
            "failure_prob", "cov_cycle_failure", "cov_inspections_failure",
            "mean_cycle_on_failure",
        ]
        for r in flat:
            assert columns[r.quantity] == (0.0, 0.0)
            assert math.copysign(1.0, r.mc_value) == 1.0 and r.mc_value == 0.0
        # the pass column of the two-pass columns against the same closed forms
        expected = [
            abs(oracle._z_score(r.closed_form, *columns[r.quantity])) <= oracle.Z_THRESHOLD
            for r in rows
        ]
        assert [r.passed for r in rows] == expected

    def test_every_cycle_failed(self):
        # a failure delay of about 1e-3 against gaps of 1000: the failure
        # indicator is 1 throughout and its rows have no spread
        cfg = make_config(lam=1e3)
        rows = _by_quantity(verification_rows(cfg, 10_000, seed=3))
        assert (rows["failure_prob"].mc_value, rows["failure_prob"].mc_se) == (1.0, 0.0)
        for name in ("cov_cycle_failure", "cov_inspections_failure"):
            assert (rows[name].mc_value, rows[name].mc_se) == (0.0, 0.0)
        _assert_matches_two_pass(list(rows.values()), two_pass_columns(cfg, 10_000, seed=3))

    def test_negative_variance_reads_zero(self):
        assert oracle._std_err(4.0, 5) == 1.0
        assert oracle._std_err(-1e-300, 5) == 0.0
        negative_zero = oracle._std_err(-0.0, 5)
        assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) == 1.0
        # raw moments E[k'^a r'^b f^c] whose variance of k' rounds below
        # zero: k = 2 + k' reads a standard error of 0
        raw = {(a, b, c): 0.0 for a in range(5) for b in range(5) for c in range(5)}
        raw[0, 0, 0], raw[2, 0, 0] = 1.0, -1e-300
        assert oracle._estimate(oracle._linear(2.0, 1.0, 0.0, 0.0), raw, 10) == (2.0, 0.0)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_memory_flat_in_samples(self, kind):
        cfg = make_config(kind=kind)
        # the first call in a process also pays for one-time set-up
        verification_rows(cfg, 40_000, seed=3)
        peaks = []
        for n in (40_000, 400_000):
            tracemalloc.start()
            try:
                verification_rows(cfg, n, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1 << 20


class TestAgeDistribution:
    def test_single_probe(self):
        ages = mc_age_distribution(make_config(horizon=1e5), n_probes=1, seed=2)
        assert ages.shape == (1,)
        assert ages[0] >= 0.0

    def test_reproducible(self):
        cfg = make_config(horizon=1e5)
        a = mc_age_distribution(cfg, n_probes=50, seed=2)
        b = mc_age_distribution(cfg, n_probes=50, seed=2)
        assert np.array_equal(a, b)

    def test_deterministic_cycles_give_uniform_age(self):
        # huge damage rate and negligible failure rate: every cycle is one
        # full inspection interval, so the stationary age is uniform
        cfg = make_config(mu=10.0, lam=1e-12, horizon=1e6)
        ages = mc_age_distribution(cfg, n_probes=2000, seed=8)
        assert ages.max() < 1000.0
        cdf_vals = np.minimum(np.sort(ages) / 1000.0, 1.0)
        stat = ks_statistic(np.sort(ages), cdf_vals)
        assert stat < ks_critical(2000, 0.01)


class TestCycleLengthSurvival:
    def test_at_zero(self, base_config):
        assert_allclose(cycle_length_survival(0.0, base_config), 1.0, rtol=1e-14)

    def test_monotone_within_segment(self, base_config):
        us = np.linspace(1000.0 + 1e-9, 2000.0, 50)
        vals = cycle_length_survival(us, base_config)
        assert (np.diff(vals) <= 1e-15).all()

    def test_jump_at_inspection_multiples(self, base_config):
        # detection puts an atom exactly at each spacing multiple
        below = cycle_length_survival(1000.0 - 1e-9, base_config)
        at = cycle_length_survival(1000.0, base_config)
        assert below > at

    @pytest.mark.parametrize("shape", [2, 3, 4])
    def test_at_most_one(self, shape):
        # near u = 0 the damage-time survival is one minus its tiny tail
        us = np.logspace(-12, 2, 200_001)
        assert cycle_length_survival(us, make_config(shape=shape)).max() <= 1.0

    @pytest.mark.parametrize("c", [0.1, 0.3, 1.1, 7.3, 9.9, 123.456, 1000.0])
    def test_segment_of_every_inspection_age(self, c):
        # at each of the first 200 ages i * c the survival is the
        # right-continuous value, on the segment that starts there; one
        # float below it, the segment before: the last age at or before u
        cfg = dataclasses.replace(make_config(mu=0.1 / c, lam=0.05 / c),
                                  inspection=InspectionLaw("deterministic", c))
        i = np.arange(1, 201)
        ages = i * c
        u = np.concatenate((ages, np.nextafter(ages, 0.0)))
        starts = np.concatenate((ages, (i - 1) * c))
        expected = age_law._survival_given_segment(u, starts, cfg)
        assert np.array_equal(cycle_length_survival(u, cfg), expected)
        assert (expected[:200] < expected[200:]).all()

    def test_monte_carlo_cross_check(self, base_config):
        self._cross_check(base_config, (500.0, 1500.0, 2500.0, 4000.0))

    def test_monte_carlo_cross_check_shape_two(self):
        # the second term of the gamma tail, (1 + mu u) exp(-mu u), on both
        # sides of the first inspection
        self._cross_check(make_config(shape=2), (300.0, 999.0, 1000.0, 1500.0, 2500.0))

    @staticmethod
    def _cross_check(config, us):
        from cbmkit.simulator import simulate_cycle

        rng = np.random.default_rng(31)
        lengths = np.array(
            [simulate_cycle(rng, config).length for _ in range(100_000)]
        )
        for u in us:
            p = (lengths > u).mean()
            se = math.sqrt(max(p * (1 - p), 1e-12) / len(lengths))
            assert abs(cycle_length_survival(u, config) - p) <= 4.0 * se + 1e-9


class TestLimitingAgeCdf:
    def test_boundaries(self, base_config):
        xs = np.array([0.0, 500.0, 2000.0, 20000.0])
        vals = limiting_age_cdf(base_config, xs)
        assert vals[0] == 0.0
        assert (np.diff(vals) > 0).all()
        assert vals[-1] < 1.0 + 1e-9
        assert vals[-1] > 0.99

    def test_empty_input(self, base_config):
        assert limiting_age_cdf(base_config, np.array([])).size == 0

    def test_only_zero_ages(self, base_config):
        vals = limiting_age_cdf(base_config, [0.0, 0.0])
        assert vals.tolist() == [0.0, 0.0]

    def test_density_normalization(self, base_config):
        # integral of the survival over everything equals the mean cycle
        big = limiting_age_cdf(base_config, np.array([50_000.0]))
        assert_allclose(big[0], 1.0, atol=1e-9)

    def test_density_normalization_shape_two(self):
        big = limiting_age_cdf(make_config(shape=2), np.array([50_000.0]))
        assert_allclose(big[0], 1.0, atol=1e-9)


class TestZScore:
    def test_zero_standard_error(self):
        # a Monte Carlo column without spread: a closed form that equals it
        # scores 0, any other scores +inf, whichever side it lies on
        assert oracle._z_score(0.25, 0.25, 0.0) == 0.0
        assert oracle._z_score(0.5, 0.25, 0.0) == math.inf
        assert oracle._z_score(0.0, 0.25, 0.0) == math.inf


class TestKsHelpers:
    def test_statistic_small_for_matching_cdf(self):
        rng = np.random.default_rng(6)
        samples = np.sort(rng.uniform(0.0, 1.0, size=5000))
        stat = ks_statistic(samples, samples)
        assert stat < ks_critical(5000, 0.05)

    def test_statistic_reads_unsorted_aligned_samples(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(0.0, 1.0, size=5000)
        assert ks_statistic(samples, samples) == ks_statistic(np.sort(samples), np.sort(samples))

    def test_statistic_large_for_wrong_cdf(self):
        # samples from U[0.5, 1.5] tested against the U[0, 1] cdf
        rng = np.random.default_rng(6)
        samples = np.sort(rng.uniform(0.5, 1.5, size=5000))
        stat = ks_statistic(samples, np.clip(samples, 0.0, 1.0))
        assert stat > ks_critical(5000, 0.001)

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cbmkit import formulas as F
from cbmkit.oracle import (
    cycle_length_survival,
    ks_critical,
    ks_statistic,
    limiting_age_cdf,
    mc_age_distribution,
    mc_moment_set,
    verification_rows,
)
from conftest import make_config


class TestMcMomentSet:
    def test_reproducible_bit_for_bit(self, base_config):
        a = mc_moment_set(base_config, 20_000, seed=3)
        b = mc_moment_set(base_config, 20_000, seed=3)
        assert a == b
        # one estimate per cycle moment, under its closed-form name
        assert list(a) == [f.name for f in dataclasses.fields(F.CycleMoments)]

    def test_rejects_small_sample(self, base_config):
        with pytest.raises(ValueError):
            mc_moment_set(base_config, 5_000, seed=1)

    def test_matches_closed_forms(self, base_config):
        est = mc_moment_set(base_config, 100_000, seed=11)
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
            assert abs(est[name].z_score(getattr(closed, name))) <= 4.0

    def test_fast_failures_degenerate(self):
        # failures almost always precede the first inspection
        cfg = make_config(lam=1.0, horizon=1e5)
        est = mc_moment_set(cfg, 20_000, seed=5)
        closed = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
        assert closed.failure_prob > 0.999
        assert abs(est["failure_prob"].z_score(closed.failure_prob)) <= 4.0

    def test_se_halves_when_samples_quadruple(self, base_config):
        ratios = []
        for seed in range(10):
            small = mc_moment_set(base_config, 10_000, seed=seed)
            large = mc_moment_set(base_config, 40_000, seed=100 + seed)
            ratios.append(large["mean_cycle"].std_err / small["mean_cycle"].std_err)
        assert 0.4 <= float(np.mean(ratios)) <= 0.6


class TestVerificationRows:
    def test_all_pass_on_correct_forms(self, any_config):
        rows = verification_rows(any_config, 60_000, seed=9)
        assert len(rows) == 16
        assert all(r.passed for r in rows)

    def test_corrupted_closed_form_flagged(self, base_config):
        rows = verification_rows(
            base_config, 20_000, seed=9, closed_overrides={"mean_cycle": 2000.0}
        )
        failed = [r for r in rows if not r.passed]
        assert [r.quantity for r in failed] == ["mean_cycle"]


class TestAgeDistribution:
    def test_single_probe(self, base_config):
        ages = mc_age_distribution(base_config, horizon=1e5, n_probes=1, seed=2)
        assert ages.shape == (1,)
        assert ages[0] >= 0.0

    def test_reproducible(self, base_config):
        a = mc_age_distribution(base_config, horizon=1e5, n_probes=50, seed=2)
        b = mc_age_distribution(base_config, horizon=1e5, n_probes=50, seed=2)
        assert np.array_equal(a, b)

    def test_deterministic_cycles_give_uniform_age(self):
        # huge damage rate and negligible failure rate: every cycle is one
        # full inspection interval, so the stationary age is uniform
        cfg = make_config(mu=10.0, lam=1e-12, horizon=1e6)
        ages = mc_age_distribution(cfg, horizon=1e6, n_probes=2000, seed=8)
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

    def test_uniform_law_rejected(self):
        cfg = make_config(kind="uniform")
        with pytest.raises(ValueError):
            cycle_length_survival(500.0, cfg)

    def test_monte_carlo_cross_check(self, base_config):
        from cbmkit.simulator import simulate_cycle

        rng = np.random.default_rng(31)
        lengths = np.array(
            [simulate_cycle(rng, base_config).length for _ in range(100_000)]
        )
        for u in (500.0, 1500.0, 2500.0, 4000.0):
            p = (lengths > u).mean()
            se = math.sqrt(max(p * (1 - p), 1e-12) / len(lengths))
            assert abs(cycle_length_survival(u, base_config) - p) <= 4.0 * se + 1e-9


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

    def test_density_normalization(self, base_config):
        # integral of the survival over everything equals the mean cycle
        big = limiting_age_cdf(base_config, np.array([50_000.0]))
        assert_allclose(big[0], 1.0, atol=1e-9)


class TestKsHelpers:
    def test_statistic_small_for_matching_cdf(self):
        rng = np.random.default_rng(6)
        samples = np.sort(rng.uniform(0.0, 1.0, size=5000))
        stat = ks_statistic(samples, samples)
        assert stat < ks_critical(5000, 0.05)

    def test_statistic_large_for_wrong_cdf(self):
        # samples from U[0.5, 1.5] tested against the U[0, 1] cdf
        rng = np.random.default_rng(6)
        samples = np.sort(rng.uniform(0.5, 1.5, size=5000))
        stat = ks_statistic(samples, np.clip(samples, 0.0, 1.0))
        assert stat > ks_critical(5000, 0.001)

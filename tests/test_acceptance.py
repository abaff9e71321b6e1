"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single ``[criterion] PASS/FAIL`` line (run with ``-s``
or ``-rA`` to see them).  One clause is expected to fail and is marked
xfail(strict): the fourth reference table's point estimates cannot be
reproduced from its own published counts under any coherent convention
(the bundled rows appear internally inconsistent there); the assertion is
kept at the stated tolerance rather than loosened.
"""

import time
import warnings

import numpy as np
import pytest

from cbmkit import formulas as F
from cbmkit.estimators import (
    ObservedData,
    asymptotic_estimate,
    full_information_estimate,
    mle_estimate,
)
from cbmkit.laws import DamageLaw, SaneLaw
from cbmkit.oracle import (
    ks_critical,
    ks_statistic,
    limiting_age_cdf,
    mc_age_distribution,
    verification_rows,
)
from cbmkit.simulator import CountSnapshot, simulate_horizon
from closed_forms import closed_sensitivities
from conftest import make_config

# Published reference rows: counts, elapsed time, point estimates, intervals.
TABLES = {
    "table1": dict(
        shape=1, kind="deterministic",
        counts=(33501, 53116, 8255), t=50001908.0,
        mu=0.000996184, lam=0.000504197,
        ci_mu=(0.0009532, 0.0010392), ci_lam=(0.0004870, 0.0005214),
        rtol=1e-4,
    ),
    "table2": dict(
        shape=2, kind="deterministic",
        counts=(20668, 51503, 4369), t=50002058.0,
        mu=0.0010054, lam=0.0004918,
        ci_mu=(0.0009742, 0.0010366), ci_lam=(0.0004789, 0.0005047),
        rtol=1e-3,
    ),
    "table3": dict(
        shape=1, kind="uniform",
        counts=(33613, 53133, 8278), t=50001271.0,
        mu=0.0010030, lam=0.0005021,
        ci_mu=(0.0009602, 0.0010458), ci_lam=(0.0004849, 0.0005193),
        rtol=1e-3,
    ),
    "table4": dict(
        shape=2, kind="uniform",
        counts=(20470, 51522, 4452), t=50000355.0,
        mu=0.0009964, lam=0.0005064,
        ci_mu=(0.0009661, 0.0010267), ci_lam=(0.0004934, 0.0005194),
        rtol=1e-3,
    ),
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _table_estimate(name):
    spec = TABLES[name]
    cfg = make_config(shape=spec["shape"], kind=spec["kind"], horizon=spec["t"])
    n_r, n_i, n_f = spec["counts"]
    snapshot = CountSnapshot(spec["t"], n_r, n_i, n_f)
    start = time.perf_counter()
    report = asymptotic_estimate(snapshot, cfg, interval="tabulated")
    elapsed = time.perf_counter() - start
    return spec, report, elapsed


def _halfwidth_errors(spec, report):
    hw_mu = (report.ci_mu[1] - report.ci_mu[0]) / 2.0
    hw_lam = (report.ci_lambda[1] - report.ci_lambda[0]) / 2.0
    pub_mu = (spec["ci_mu"][1] - spec["ci_mu"][0]) / 2.0
    pub_lam = (spec["ci_lam"][1] - spec["ci_lam"][0]) / 2.0
    return abs(hw_mu / pub_mu - 1.0), abs(hw_lam / pub_lam - 1.0)


class TestTableReproduction:
    def test_table1(self):
        spec, report, elapsed = _table_estimate("table1")
        err_mu = abs(report.mu_hat - spec["mu"]) / spec["mu"]
        err_lam = abs(report.lambda_hat - spec["lam"]) / spec["lam"]
        hw_err_mu, hw_err_lam = _halfwidth_errors(spec, report)
        ok = (
            err_mu <= spec["rtol"] and err_lam <= spec["rtol"]
            and hw_err_mu <= 0.03 and hw_err_lam <= 0.03 and elapsed < 1.0
        )
        _report(
            "table1-reproduction", ok,
            f"mu rel {err_mu:.1e}, lam rel {err_lam:.1e}, "
            f"halfwidths rel {hw_err_mu:.3f}/{hw_err_lam:.3f}, {elapsed*1e3:.0f} ms",
        )
        assert err_mu <= spec["rtol"] and err_lam <= spec["rtol"]
        assert hw_err_mu <= 0.03 and hw_err_lam <= 0.03
        assert elapsed < 1.0

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_tables_2_3(self, name):
        spec, report, elapsed = _table_estimate(name)
        err_mu = abs(report.mu_hat - spec["mu"]) / spec["mu"]
        err_lam = abs(report.lambda_hat - spec["lam"]) / spec["lam"]
        hw_err_mu, hw_err_lam = _halfwidth_errors(spec, report)
        ok = (
            err_mu <= spec["rtol"] and err_lam <= spec["rtol"]
            and hw_err_mu <= 0.03 and hw_err_lam <= 0.03 and elapsed < 1.0
        )
        _report(
            f"{name}-reproduction", ok,
            f"mu rel {err_mu:.1e}, lam rel {err_lam:.1e}, "
            f"halfwidths rel {hw_err_mu:.3f}/{hw_err_lam:.3f}, {elapsed*1e3:.0f} ms",
        )
        assert ok

    def test_table4_intervals_and_runtime(self):
        spec, report, elapsed = _table_estimate("table4")
        hw_err_mu, hw_err_lam = _halfwidth_errors(spec, report)
        ok = hw_err_mu <= 0.03 and hw_err_lam <= 0.03 and elapsed < 1.0
        _report(
            "table4-intervals", ok,
            f"halfwidths rel {hw_err_mu:.3f}/{hw_err_lam:.3f}, {elapsed*1e3:.0f} ms",
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="the published table-4 row is inconsistent with its own "
        "printed counts: no coherent estimator convention (probability or "
        "identity inversion, any gap-law half-width) reproduces "
        "mu=0.0009964 / lam=0.0005064 from (20470, 51522, 4452) closer "
        "than 2.6e-3 / 1.3e-3 relative; notably its mu matches a "
        "half-width-200 gap law to 2e-5, contradicting table 3's "
        "half-width 100",
    )
    def test_table4_point_estimates(self):
        spec, report, _ = _table_estimate("table4")
        err_mu = abs(report.mu_hat - spec["mu"]) / spec["mu"]
        err_lam = abs(report.lambda_hat - spec["lam"]) / spec["lam"]
        ok = err_mu <= spec["rtol"] and err_lam <= spec["rtol"]
        _report(
            "table4-point-estimates", ok,
            f"mu rel {err_mu:.1e}, lam rel {err_lam:.1e} vs stated 1e-3 "
            "(published row inconsistent with its printed counts)",
        )
        assert ok


class TestClosedFormVsMonteCarlo:
    def test_all_moments_and_rate_covariance(self):
        start = time.perf_counter()
        worst = 0.0
        failures = []
        for shape in (1, 2):
            for kind in ("deterministic", "uniform"):
                cfg = make_config(shape=shape, kind=kind)
                rows = verification_rows(cfg, 1_000_000, seed=2024 + shape)
                for row in rows:
                    worst = max(worst, abs(row.z_score))
                    if not row.passed:
                        failures.append(f"{shape}-{kind}:{row.quantity}")
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60.0
        _report(
            "closed-form-vs-monte-carlo", ok,
            f"64 comparisons, worst |z| {worst:.2f}, {elapsed:.1f} s",
        )
        assert not failures, failures
        assert elapsed < 60.0


class TestDerivativeCorrectness:
    def test_grid(self):
        worst_jet = worst_fd = 0.0
        for shape in (1, 2):
            for mu in np.geomspace(5e-4, 2e-3, 5):
                for lam in np.geomspace(2.5e-4, 1e-3, 5):
                    cfg = make_config(shape=shape, mu=float(mu), lam=float(lam))
                    sane, dmg, insp = cfg.sane, cfg.damage, cfg.inspection
                    closed = closed_sensitivities(sane, dmg, insp)
                    jet = F.parameter_sensitivities(sane, dmg, insp)
                    for a, b in (
                        (closed.dmk_dmu, jet.dmk_dmu),
                        (closed.dpd_dmu, jet.dpd_dmu),
                        (closed.dpd_dlambda, jet.dpd_dlambda),
                    ):
                        worst_jet = max(worst_jet, abs(a - b) / abs(b))
                    h = 1e-6 * float(mu)
                    fd_f = (
                        F.mean_inspections(SaneLaw(shape, float(mu) + h), insp)
                        - F.mean_inspections(SaneLaw(shape, float(mu) - h), insp)
                    ) / (2 * h)
                    h = 1e-5 * float(mu)
                    fd_gm = (
                        F.failure_probability(SaneLaw(shape, float(mu) + h), dmg, insp)
                        - F.failure_probability(SaneLaw(shape, float(mu) - h), dmg, insp)
                    ) / (2 * h)
                    h = 1e-5 * float(lam)
                    fd_gl = (
                        F.failure_probability(sane, DamageLaw(float(lam) + h), insp)
                        - F.failure_probability(sane, DamageLaw(float(lam) - h), insp)
                    ) / (2 * h)
                    for a, b in (
                        (closed.dmk_dmu, fd_f),
                        (closed.dpd_dmu, fd_gm),
                        (closed.dpd_dlambda, fd_gl),
                    ):
                        worst_fd = max(worst_fd, abs(a - b) / abs(b))
        ok = worst_jet <= 1e-8 and worst_fd <= 1e-5
        _report(
            "derivative-correctness", ok,
            f"closed vs jet worst rel {worst_jet:.1e} (tol 1e-8), "
            f"vs finite differences worst rel {worst_fd:.1e} (tol 1e-5)",
        )
        assert worst_jet <= 1e-8
        assert worst_fd <= 1e-5


class TestCltCoverage:
    def test_two_hundred_replicates(self):
        start = time.perf_counter()
        cfg = make_config()
        rng = np.random.default_rng(20_240_601)
        hits_mu = hits_lam = 0
        reps = 200
        for _ in range(reps):
            cycles = simulate_horizon(rng, cfg, horizon=1e7)
            report = asymptotic_estimate(cycles.counts(), cfg)
            hits_mu += report.ci_mu[0] <= cfg.sane.rate <= report.ci_mu[1]
            hits_lam += report.ci_lambda[0] <= cfg.damage.rate <= report.ci_lambda[1]
        elapsed = time.perf_counter() - start
        cov_mu, cov_lam = hits_mu / reps, hits_lam / reps
        ok = 0.89 <= cov_mu <= 0.99 and 0.89 <= cov_lam <= 0.99 and elapsed < 300.0
        _report(
            "clt-coverage", ok,
            f"mu {cov_mu:.3f}, lam {cov_lam:.3f} (band [0.89, 0.99]), {elapsed:.0f} s",
        )
        assert 0.89 <= cov_mu <= 0.99
        assert 0.89 <= cov_lam <= 0.99
        assert elapsed < 300.0


class TestRoundTripIdentifiability:
    def test_exact_pseudo_counts_recover_rates(self):
        worst = 0.0
        t = 1e9
        for shape in (1, 2):
            for kind in ("deterministic", "uniform"):
                for mu in np.geomspace(5e-4, 2e-3, 5):
                    for lam in np.geomspace(2.5e-4, 1e-3, 5):
                        cfg = make_config(shape=shape, kind=kind, mu=float(mu), lam=float(lam))
                        m = F.cycle_moments(cfg.sane, cfg.damage, cfg.inspection)
                        snapshot = CountSnapshot(
                            t,
                            t / m.mean_cycle,
                            t * m.mean_inspections / m.mean_cycle,
                            t * m.failure_prob / m.mean_cycle,
                        )
                        report = asymptotic_estimate(snapshot, cfg)
                        worst = max(
                            worst,
                            abs(report.mu_hat - mu) / mu,
                            abs(report.lambda_hat - lam) / lam,
                        )
        ok = worst <= 1e-8
        _report(
            "round-trip-identifiability", ok,
            f"100 grid points, worst rel {worst:.1e} (tol 1e-8)",
        )
        assert worst <= 1e-8


class TestMleSanity:
    def test_coverage_and_oracle(self):
        cfg = make_config()
        rng = np.random.default_rng(77_001)
        reps = 100
        hits_mu = hits_lam = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(reps):
                cycles = simulate_horizon(rng, cfg, horizon=1e6)
                data = ObservedData.from_event_log_records(cycles, cfg.inspection)
                report = mle_estimate(data, cfg)
                hits_mu += report.ci_mu[0] <= cfg.sane.rate <= report.ci_mu[1]
                hits_lam += report.ci_lambda[0] <= cfg.damage.rate <= report.ci_lambda[1]
        cov_mu, cov_lam = hits_mu / reps, hits_lam / reps

        records = simulate_horizon(np.random.default_rng(5), cfg, horizon=2e6)
        oracle = full_information_estimate(records, cfg)
        n = len(records)
        mu_closed = cfg.sane.shape * n / sum(r.time_to_damage for r in records)
        lam_closed = n / sum(r.damage_to_failure for r in records)
        oracle_ok = (
            abs(oracle.mu_hat - mu_closed) <= 1e-12 * mu_closed
            and abs(oracle.lambda_hat - lam_closed) <= 1e-12 * lam_closed
        )
        ok = cov_mu >= 0.89 and cov_lam >= 0.89 and oracle_ok
        _report(
            "mle-sanity", ok,
            f"censored coverage mu {cov_mu:.2f}, lam {cov_lam:.2f} (>= 0.89); "
            f"full-information oracle matches closed form: {oracle_ok}",
        )
        assert cov_mu >= 0.89 and cov_lam >= 0.89
        assert oracle_ok

    def test_interval_width_scale_against_reference_run(self):
        # single long run: censored-likelihood half-widths within 50% of
        # the reference run's likelihood half-widths (order-of-magnitude
        # check; that likelihood is not fully specified)
        cfg = make_config(seed=8)
        rng = np.random.default_rng(8)
        cycles = simulate_horizon(rng, cfg, horizon=5e7)
        data = ObservedData.from_event_log_records(cycles, cfg.inspection)
        report = mle_estimate(data, cfg)
        hw_mu = (report.ci_mu[1] - report.ci_mu[0]) / 2.0
        hw_lam = (report.ci_lambda[1] - report.ci_lambda[0]) / 2.0
        ok = abs(hw_mu / 1.12e-5 - 1.0) <= 0.5 and abs(hw_lam / 1.135e-5 - 1.0) <= 0.5
        _report(
            "mle-interval-scale", ok,
            f"halfwidths {hw_mu:.3g}/{hw_lam:.3g} vs reference 1.12e-5/1.14e-5",
        )
        assert ok


class TestLimitingAgeLaw:
    def test_ks_against_limiting_cdf(self):
        cfg = make_config()
        n_probes = 1500
        ages = mc_age_distribution(cfg, horizon=1e7, n_probes=n_probes, seed=31_415)
        ages = np.sort(ages)
        cdf_vals = limiting_age_cdf(cfg, ages)
        stat = ks_statistic(ages, cdf_vals)
        crit = ks_critical(n_probes, 0.01)
        ok = stat < crit
        _report(
            "limiting-age-law", ok,
            f"KS {stat:.4f} vs 1% critical {crit:.4f} ({n_probes} probes, horizon 1e7)",
        )
        assert stat < crit

import math
from decimal import Decimal, localcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cbmkit import formulas as F
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw, laplace_jet, one_minus_laplace
from closed_forms import closed_sensitivities

DET = InspectionLaw("deterministic", 1000.0)
UNIF = InspectionLaw("uniform", 1000.0, 100.0)
LAWS = [DET, UNIF]

E1 = math.exp(-1.0)  # L(mu) for the deterministic law at mu = 1e-3


def grid_rates():
    return [(float(m), float(l))
            for m in np.geomspace(5e-4, 2e-3, 5)
            for l in np.geomspace(2.5e-4, 1e-3, 5)]


class TestMeanInspections:
    def test_shape_one_closed_form(self):
        # 1 / (1 - L(mu)), evaluated by hand
        got = F.mean_inspections(SaneLaw(1, 1e-3), DET)
        assert_allclose(got, 1.0 / (1.0 - E1), rtol=1e-14)

    def test_damage_before_first_inspection(self):
        # huge damage rate: the first inspection almost surely detects
        assert_allclose(F.mean_inspections(SaneLaw(1, 1.0), DET), 1.0, rtol=1e-12)

    def test_always_at_least_one(self):
        for law in LAWS:
            for mu, _ in grid_rates():
                for n in (1, 2):
                    assert F.mean_inspections(SaneLaw(n, mu), law) >= 1.0

    def test_strictly_decreasing_in_rate(self):
        # 20-point log grid per the monotonicity property
        for law in LAWS:
            for n in (1, 2):
                vals = [F.mean_inspections(SaneLaw(n, float(m)), law)
                        for m in np.geomspace(1e-4, 1e-2, 20)]
                assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFailureProbability:
    def test_hand_value_base_point(self):
        # 1 - 2 (e^{-1/2} - e^{-1}) / (1 - e^{-1})
        expected = 1.0 - 2.0 * (math.exp(-0.5) - E1) / (1.0 - E1)
        got = F.failure_probability(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        assert_allclose(got, expected, rtol=1e-13)
        assert_allclose(got, 0.244918, atol=1e-6)

    def test_vanishes_for_slow_failures(self):
        got = F.failure_probability(SaneLaw(1, 1e-3), DamageLaw(1e-9), DET)
        assert got == pytest.approx(0.0, abs=1e-5)

    def test_equal_rates_hand_value(self):
        # 1 - e^{-1} / (1 - e^{-1}) at lam = mu = 1e-3
        got = F.failure_probability(SaneLaw(1, 1e-3), DamageLaw(1e-3), DET)
        assert_allclose(got, 1.0 - E1 / (1.0 - E1), rtol=1e-12)
        assert_allclose(got, 0.418023, atol=5e-7)

    def test_strictly_increasing_in_failure_rate(self):
        for law in LAWS:
            for n in (1, 2):
                sane = SaneLaw(n, 1e-3)
                vals = [F.failure_probability(sane, DamageLaw(float(l)), law)
                        for l in np.geomspace(5e-5, 5e-3, 20)]
                assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_branch_continuity(self, law, n):
        mu = 1e-3
        center = F.failure_probability(SaneLaw(n, mu), DamageLaw(mu), law)
        for eps in (1e-6, -1e-6):
            nearby = F.failure_probability(SaneLaw(n, mu), DamageLaw(mu * (1.0 + eps)), law)
            assert abs(nearby - center) <= 1e-6 * center


class TestInspectionSeries:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            F.inspection_series(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET, "other")

    def test_equal_rates_hand_value(self):
        # plain series at lam = mu, shape 1: -mu L'(mu) / (1 - L(mu))^2
        mu = 1e-3
        got = F.inspection_series(SaneLaw(1, mu), DamageLaw(mu), DET, "plain")
        lp = -1000.0 * E1
        assert_allclose(got, -mu * lp / (1.0 - E1) ** 2, rtol=1e-12)

    def test_weighted_dominates_plain(self):
        # termwise k >= 1
        for law in LAWS:
            for mu, lam in grid_rates():
                for n in (1, 2):
                    sane, dmg = SaneLaw(n, mu), DamageLaw(lam)
                    plain = F.inspection_series(sane, dmg, law, "plain")
                    weighted = F.inspection_series(sane, dmg, law, "weighted")
                    assert weighted >= plain

    @given(
        shape=st.integers(1, 3),
        mu=st.floats(2e-4, 5e-3),
        lam=st.floats(1e-4, 3e-3),
        uniform=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_detection_identity(self, shape, mu, lam, uniform):
        # 1 - failure probability equals (1 - L(lam)) * plain series for
        # these absolutely continuous damage laws, to 1e-12 relative
        law = UNIF if uniform else DET
        sane, dmg = SaneLaw(shape, mu), DamageLaw(lam)
        lhs = 1.0 - F.failure_probability(sane, dmg, law)
        rhs = one_minus_laplace(lam, law) * F.inspection_series(sane, dmg, law, "plain")
        assert_allclose(lhs, rhs, rtol=1e-12)


class TestMeanCycle:
    def test_composition(self):
        sane, dmg = SaneLaw(1, 1e-3), DamageLaw(5e-4)
        p_fail = F.failure_probability(sane, dmg, DET)
        got = F.mean_cycle_length(sane, dmg, DET)
        assert_allclose(got, 1000.0 + p_fail / 5e-4, rtol=1e-14)
        assert_allclose(got, 1489.84, atol=0.005)

    def test_slow_failure_limit(self):
        # as the failure rate vanishes the cycle ends at detection, so the
        # mean cycle tends to mean damage time plus mean overshoot, which
        # for deterministic gaps is bounded by one spacing
        m1 = F.mean_cycle_length(SaneLaw(2, 1e-3), DamageLaw(1e-10), DET)
        m2 = F.mean_cycle_length(SaneLaw(2, 1e-3), DamageLaw(1e-12), DET)
        assert_allclose(m1, m2, rtol=1e-6)
        assert 2000.0 < m2 < 3000.0

    def test_observed_mean_cycle_of_reference_run(self):
        # the published deterministic run: elapsed time over repairs
        got = F.mean_cycle_length(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        assert abs(got - 50001908.0 / 33501.0) / got < 0.01


class TestCycleMoments:
    def test_failure_indicator_variance(self):
        m = F.cycle_moments(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        assert_allclose(m.var_failure, m.failure_prob * (1 - m.failure_prob), rtol=1e-15)
        assert_allclose(m.var_failure, 0.184933, atol=5e-7)

    def test_invariant_bounds(self, any_config):
        m = F.cycle_moments(any_config.sane, any_config.damage, any_config.inspection)
        assert m.mean_inspections >= 1.0
        assert 0.0 <= m.failure_prob <= 1.0
        assert m.mean_cycle >= any_config.sane.mean
        assert m.mean_inspections_sq >= m.mean_inspections**2
        assert m.mean_cycle_sq >= m.mean_cycle**2

    def test_slow_failure_degenerate(self):
        # the failure indicator is almost surely zero, so the restricted
        # moment and the cycle/failure covariance collapse
        sane = SaneLaw(1, 1e-3)
        small = F.cycle_moments(sane, DamageLaw(1e-6), DET)
        tiny = F.cycle_moments(sane, DamageLaw(1e-8), DET)
        assert abs(tiny.mean_cycle_on_failure) < abs(small.mean_cycle_on_failure) < 1.0
        assert abs(tiny.cov_cycle_failure) < abs(small.cov_cycle_failure) < 1.0

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_moment_continuity_across_diagonal(self, law, n):
        mu = 1e-3
        at = F.cycle_moments(SaneLaw(n, mu), DamageLaw(mu), law)
        near = F.cycle_moments(SaneLaw(n, mu), DamageLaw(mu * (1 + 3e-4)), law)
        for fld in ("mean_cycle_on_failure", "mean_inspections_detected",
                    "cov_inspections_cycle", "mean_cycle_sq"):
            a, b = getattr(at, fld), getattr(near, fld)
            assert abs(a - b) <= 5e-3 * max(abs(a), abs(b))


class TestLawDerivativesCache:
    def test_cached_arrays_are_read_only(self):
        # a float anchor's cached bundle is shared, so its rows are tuples
        bundle = F.law_derivatives(1e-3, UNIF, 5)
        for rows in (bundle.laplace, bundle.inv_one_minus, bundle.gain, bundle.gain_sq):
            with pytest.raises(TypeError):
                rows[0] = 0.0

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_repeated_calls_agree(self, law):
        first = F.law_derivatives(7.3e-4, law, 6)
        again = F.law_derivatives(7.3e-4, law, 6)
        assert again is first
        fresh = F._derivatives(7.3e-4, law, 6)
        for name in ("laplace", "inv_one_minus", "gain", "gain_sq"):
            assert [v.hex() for v in getattr(again, name)] == [
                v.hex() for v in getattr(fresh, name)]

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_array_rows_are_the_single_anchor_floats(self, law):
        # a single anchor computes in floats, an array of anchors in rows;
        # each column is its anchor's bundle, bit for bit
        anchors = [7.3e-4, 1e-3, 2.5e-2]
        batch = F.law_derivatives(np.array(anchors), law, 6)
        for k, s in enumerate(anchors):
            one = F.law_derivatives(s, law, 6)
            assert type(one.one_minus) is float
            assert batch.one_minus[k] == one.one_minus
            for name in ("laplace", "inv_one_minus", "gain", "gain_sq"):
                assert all(type(v) is float for v in getattr(one, name))
                assert [row[k] for row in getattr(batch, name)] == list(getattr(one, name))


class TestCountRateCovariance:
    def test_first_entry_assembly(self):
        m = F.cycle_moments(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        rate_cov = F.count_rate_covariance(m)
        assert_allclose(rate_cov[0, 0], m.var_cycle / m.mean_cycle**3, rtol=1e-14)

    def test_symmetry(self, any_config):
        m = F.cycle_moments(any_config.sane, any_config.damage, any_config.inspection)
        rate_cov = F.count_rate_covariance(m)
        assert np.array_equal(rate_cov, rate_cov.T)

    def test_degenerate_failure_row_vanishes(self):
        m = F.cycle_moments(SaneLaw(1, 1e-3), DamageLaw(1e-9), DET)
        rate_cov = F.count_rate_covariance(m)
        scale = rate_cov[0, 0]
        assert abs(rate_cov[0, 1]) < 1e-4 * scale
        assert abs(rate_cov[1, 1]) < 1e-4 * scale
        assert abs(rate_cov[1, 2]) < 1e-4 * scale

    def test_positive_semidefinite_on_grid(self):
        for law in LAWS:
            for n in (1, 2):
                for mu, lam in grid_rates():
                    m = F.cycle_moments(SaneLaw(n, mu), DamageLaw(lam), law)
                    rate_cov = F.count_rate_covariance(m)
                    eigs = np.linalg.eigvalsh(rate_cov)
                    assert eigs.min() >= -1e-10 * np.trace(rate_cov)

    def test_rejects_inconsistent_moments(self):
        m = F.cycle_moments(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        broken = replace(m, mean_cycle_sq=0.5 * m.mean_cycle**2)
        with pytest.raises(ValueError, match="negative variance"):
            F.count_rate_covariance(broken)


class TestSensitivities:
    def test_signs_at_base_point(self):
        s = F.parameter_sensitivities(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)
        assert s.dmk_dmu < 0.0
        assert s.dpd_dlambda > 0.0
        # checked numerically, not assumed: faster damage raises the
        # per-cycle failure probability for these laws
        assert s.dpd_dmu > 0.0

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_matches_jet_on_grid(self, law, n):
        for mu, lam in grid_rates():
            sane, dmg = SaneLaw(n, mu), DamageLaw(lam)
            closed = closed_sensitivities(sane, dmg, law)
            jet = F.parameter_sensitivities(sane, dmg, law)
            assert_allclose(closed.dmk_dmu, jet.dmk_dmu, rtol=1e-8)
            assert_allclose(closed.dpd_dmu, jet.dpd_dmu, rtol=1e-8)
            assert_allclose(closed.dpd_dlambda, jet.dpd_dlambda, rtol=1e-8)

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_matches_jet_on_diagonal(self, law, n):
        for mu in np.geomspace(5e-4, 2e-3, 5):
            sane, dmg = SaneLaw(n, float(mu)), DamageLaw(float(mu))
            closed = closed_sensitivities(sane, dmg, law)
            jet = F.parameter_sensitivities(sane, dmg, law)
            assert_allclose(closed.dpd_dmu, jet.dpd_dmu, rtol=1e-8)
            assert_allclose(closed.dpd_dlambda, jet.dpd_dlambda, rtol=1e-8)

    def test_equal_rates_lambda_slope_display(self):
        # at lam = mu the slope is mu L''(mu) / (2 (1 - L(mu)))
        mu = 1e-3
        for law in LAWS:
            jet = laplace_jet(mu, law, 2)
            expected = mu * jet[2] / (2.0 * (1.0 - jet[0]))
            got = F.parameter_sensitivities(SaneLaw(1, mu), DamageLaw(mu), law)
            assert_allclose(got.dpd_dlambda, expected, rtol=1e-10)

    def test_finite_difference_oracle(self):
        # relative steps: 1e-6 for the single-rate map, 1e-5 for the
        # failure-probability partials (documented; keeps both truncation
        # and cancellation below the 1e-5 comparison tolerance)
        for law in LAWS:
            for n in (1, 2):
                for mu, lam in [(1e-3, 5e-4), (2e-3, 2.5e-4), (5e-4, 1e-3)]:
                    sane, dmg = SaneLaw(n, mu), DamageLaw(lam)
                    s = F.parameter_sensitivities(sane, dmg, law)
                    h = 1e-6 * mu
                    fd_f = (
                        F.mean_inspections(SaneLaw(n, mu + h), law)
                        - F.mean_inspections(SaneLaw(n, mu - h), law)
                    ) / (2 * h)
                    assert_allclose(s.dmk_dmu, fd_f, rtol=1e-5)
                    h = 1e-5 * mu
                    fd_gm = (
                        F.failure_probability(SaneLaw(n, mu + h), dmg, law)
                        - F.failure_probability(SaneLaw(n, mu - h), dmg, law)
                    ) / (2 * h)
                    assert_allclose(s.dpd_dmu, fd_gm, rtol=1e-5)
                    h = 1e-5 * lam
                    fd_gl = (
                        F.failure_probability(sane, DamageLaw(lam + h), law)
                        - F.failure_probability(sane, DamageLaw(lam - h), law)
                    ) / (2 * h)
                    assert_allclose(s.dpd_dlambda, fd_gl, rtol=1e-5)

    def test_closed_rejects_large_shape(self):
        with pytest.raises(ValueError):
            closed_sensitivities(SaneLaw(3, 1e-3), DamageLaw(5e-4), DET)

    @pytest.mark.parametrize(
        "shape, mu, lam, expected",
        [
            (1, 1e-3, 0.998e-3, 47.659181087152049812),
            (2, 1e-3, 0.998e-3, 6.2332618009256260767),
            (3, 1e-3, 0.998e-3, -1.7935842080061958608),
            (2, 1e-3, 1.0005e-3, 6.24534164381600476),
            (2, 2e-4, 2.02e-4, 0.081105450581727553722),
            (3, 2e-4, 2.02e-4, -0.030048987953462082692),
        ],
    )
    def test_dpd_dmu_near_diagonal_matches_quadrature(self, shape, mu, lam, expected):
        # references: 50-digit quadrature of
        # -sum_k int exp(-lam (k c - u)) f(u) (shape/mu - u) du over
        # ((k-1) c, k c], f the gamma damage density; all but the shape-1
        # point lie inside the equal-rates band
        got = F.parameter_sensitivities(SaneLaw(shape, mu), DamageLaw(lam), DET)
        assert_allclose(got.dpd_dmu, expected, rtol=1e-9)

    def test_dpd_dmu_series_orders_share_one_branch(self):
        # lam lies outside the shape-2 band but inside the shape-3 one: the
        # order-3 series must follow the shape-2 (generic) branch, or the
        # difference of the two orders is off by 1e-2.  The generic branch
        # itself carries 2e-6 here (mu*c = 0.2); same quadrature reference.
        got = F.parameter_sensitivities(SaneLaw(2, 2e-4), DamageLaw(2.035e-4), DET)
        assert_allclose(got.dpd_dmu, 0.081799764504704204208, rtol=1e-4)


def decimal_moments(g: float, theta: float, top: int) -> list:
    """m_i = int_0^g w^i exp(theta w) dw for i = 0..top, in 60-digit
    decimal arithmetic from the float inputs: with x = theta*g, the Taylor
    series sum_j x^j g^(i+j+1) / (j! (i+j+1)) for |x| <= 30 (its
    cancellation costs at most 26 digits), the upward recursion
    m_i = (g^i e^x - i m_(i-1)) / theta above (losing at most one)."""
    with localcontext() as ctx:
        ctx.prec = 60
        g, theta = Decimal(g), Decimal(theta)
        x = theta * g
        if abs(x) <= 30:
            out = []
            for i in range(top + 1):
                total, term, j = Decimal(0), Decimal(1), 0
                while True:
                    add = term / (i + j + 1)
                    total += add
                    if j > abs(x) and abs(add) <= abs(total) * Decimal("1e-45"):
                        break
                    j += 1
                    term = term * x / j
                out.append(float(total * g ** (i + 1)))
            return out
        ex = x.exp()
        moments = [(ex - 1) / theta]
        for i in range(1, top + 1):
            moments.append((g**i * ex - i * moments[-1]) / theta)
        return [float(m) for m in moments]


class TestExpPolyMoments:
    """The window moments against a 60-digit reference, to 1e-12 relative
    at every order and every theta*g (the old six-term series below
    |theta*g| = 1e-4 and the recursion above it were off by up to 1.7e2 at
    order 4 just above that switch)."""

    @staticmethod
    def assert_accurate(g, theta, top):
        got = F._exp_poly_moments(g, theta, top)
        g = np.asarray(g, dtype=float)
        assert len(got) == top + 1
        assert all(isinstance(m, np.ndarray) and m.shape == g.shape for m in got)
        for k, value in enumerate(g.reshape(-1)):
            want = decimal_moments(float(value), theta, top)
            have = [float(m.reshape(-1)[k]) for m in got]
            assert_allclose(have, want, rtol=1e-12, atol=0.0, err_msg=f"g={value!r}")

    # top = shape - 1 for shapes 1-4
    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("theta", [1e-7, -1e-7, 5e-9, 3e-5, -4e-4, 2e-3])
    def test_mixed_switch_sides(self, theta, top):
        edge = 1e-4 / abs(theta)
        g = np.concatenate([
            np.geomspace(1e-2, 3e5, 61),
            edge * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]),
            [0.0, 1000.0],
        ])
        # both sides of the old series switch
        small = np.abs(theta * g) < 1e-4
        assert small.any() and not small.all()
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_accurate(g, theta, top)

    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    def test_theta_zero_takes_the_series_everywhere(self, top):
        g = np.geomspace(1e-2, 1e5, 40)
        self.assert_accurate(g, 0.0, top)
        for i, m in enumerate(F._exp_poly_moments(g, 0.0, top)):
            assert_allclose(m, g ** (i + 1) / (i + 1), rtol=4e-16)

    @pytest.mark.parametrize("top", [0, 3])
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 2e-3])
    @pytest.mark.parametrize("g", [0.0, 7.5, 1234.5])
    def test_scalar_input(self, g, theta, top):
        self.assert_accurate(g, theta, top)
        got = F._exp_poly_moments(g, theta, top)
        assert all(m.ndim == 0 for m in got)

    def test_two_dimensional_input(self):
        g = np.geomspace(1.0, 1e4, 12).reshape(3, 4)
        self.assert_accurate(g, 1e-7, 3)

    # the series/recursion switch sits at ((top+1)!)^(1/top): 4.14 at top 6
    X = [0.0, 1e-12, 1e-8, 1e-4, 1.01e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 2.449, 2.45,
         2.884, 2.885, 3.309, 3.31, 3.727, 3.728, 4.140, 4.141, 5.0, 7.0, 10.0, 20.0, 35.0, 50.0]

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("top", [4, 5, 6])
    def test_high_orders_against_decimal(self, top, sign):
        for g in (1000.0, 7.5):
            for x in self.X:
                theta = sign * x / g
                got = [float(m) for m in F._exp_poly_moments(g, theta, top)]
                assert_allclose(got, decimal_moments(g, theta, top), rtol=1e-12, atol=0.0,
                                err_msg=f"theta*g={sign * x!r}, g={g!r}")


class TestEstimatorCovariance:
    def test_product_is_exact(self, any_config):
        # param_cov is jacobian @ counts_cov @ jacobian.T with every sum
        # taken in index order, whatever BLAS numpy was built with
        b = F.estimator_covariance(any_config.sane, any_config.damage, any_config.inspection)
        jac, cov = b.jacobian.tolist(), b.counts_cov.tolist()
        left = [[jac[a][0] * cov[0][c] + jac[a][1] * cov[1][c] + jac[a][2] * cov[2][c]
                 for c in range(3)] for a in range(2)]
        expected = [[left[a][0] * jac[c][0] + left[a][1] * jac[c][1] + left[a][2] * jac[c][2]
                     for c in range(2)] for a in range(2)]
        assert b.param_cov.tolist() == expected
        assert_allclose(b.param_cov, b.jacobian @ b.counts_cov @ b.jacobian.T,
                        rtol=0, atol=1e-14 * np.abs(b.param_cov).max())

    def test_identity_wiring(self, any_config):
        # replacing the count covariance by the identity must give J J^T
        b = F.estimator_covariance(any_config.sane, any_config.damage, any_config.inspection)
        assert_allclose(b.jacobian @ np.eye(3) @ b.jacobian.T, b.jacobian @ b.jacobian.T, rtol=0)

    def test_positive_semidefinite(self, any_config):
        # the delta construction is consistent, so both matrices are PSD;
        # the tabulated emulation inherits its printed moment defects and
        # only promises positive variances on the diagonal
        b = F.estimator_covariance(
            any_config.sane, any_config.damage, any_config.inspection, "delta"
        )
        eigs = np.linalg.eigvalsh(b.param_cov)
        assert eigs.min() >= -1e-10 * np.trace(b.param_cov)
        eigs = np.linalg.eigvalsh(b.counts_cov)
        assert eigs.min() >= -1e-10 * np.trace(b.counts_cov)
        tab = F.estimator_covariance(
            any_config.sane, any_config.damage, any_config.inspection, "tabulated"
        )
        assert tab.param_cov[0, 0] > 0.0 and tab.param_cov[1, 1] > 0.0

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            F.estimator_covariance(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET, "other")

    def test_non_identifiability_guard(self, monkeypatch):
        flat = F.Sensitivities(dmk_dmu=-900.0, dpd_dmu=0.0, dpd_dlambda=0.0)
        monkeypatch.setattr(F, "parameter_sensitivities", lambda *a, **k: flat)
        with pytest.raises(ValueError, match="identifiable"):
            F.estimator_covariance(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)

    def test_published_jacobian_forms_agree_and_differ_from_delta(self):
        # The two printed jacobian displays (theorem statement and proof
        # end) are algebraically the same matrix; both scale the
        # failure-rate column by 1/mean_cycle relative to the exact
        # linearization.  Flagged here, not silently reconciled.
        sane, dmg = SaneLaw(1, 1e-3), DamageLaw(5e-4)
        m = F.cycle_moments(sane, dmg, DET)
        s = F.parameter_sensitivities(sane, dmg, DET)
        mx, mk, pd = m.mean_cycle, m.mean_inspections, m.failure_prob
        fp, gm, gl = s.dmk_dmu, s.dpd_dmu, s.dpd_dlambda
        statement = (mx / fp) * np.array(
            [
                [-mk, 1.0, 0.0],
                [mk * gm / gl - pd * fp / gl, -gm / gl, fp / (mx * gl)],
            ]
        )
        # proof-end parameterization via the inverse-map partials
        dx_inv = -gm / gl
        dy_inv = 1.0 / gl
        proof_end = (mx / fp) * np.array(
            [
                [-mk, 1.0, 0.0],
                [-(mk * dx_inv + pd * fp * dy_inv), dx_inv, (fp / mx) * dy_inv],
            ]
        )
        assert_allclose(statement, proof_end, rtol=1e-12)
        delta = F.estimator_covariance(sane, dmg, DET, "delta").jacobian
        # delta columns are ordered (repair, failure, inspection); the
        # printed forms order them (repair, inspection, failure)
        reordered = statement[:, [0, 2, 1]]
        assert_allclose(delta[0], reordered[0], rtol=1e-12)
        assert_allclose(delta[1, 0], reordered[1, 0], rtol=1e-12)
        assert_allclose(delta[1, 2], reordered[1, 2], rtol=1e-12)
        assert_allclose(delta[1, 1] / reordered[1, 1], mx, rtol=1e-12)

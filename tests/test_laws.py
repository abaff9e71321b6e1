import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cbmkit.laws import (
    MAX_SHAPE,
    DamageLaw,
    InspectionLaw,
    SaneLaw,
    laplace_jet,
    one_minus_laplace,
    sample_damage,
    sample_inspection_gap,
    sample_sane,
    sample_sane_many,
)
from age_law import cdf_inspection_gap, ks_critical, ks_statistic, survival_sane
import precise_forms

DET = InspectionLaw("deterministic", 1000.0)
UNIF = InspectionLaw("uniform", 1000.0, 100.0)


class TestValidation:
    def test_rejects_bad_laws(self):
        with pytest.raises(ValueError):
            SaneLaw(0, 1e-3)
        with pytest.raises(ValueError):
            SaneLaw(1, 0.0)
        with pytest.raises(ValueError):
            DamageLaw(-1.0)
        with pytest.raises(ValueError):
            InspectionLaw("weird", 1000.0)
        with pytest.raises(ValueError):
            InspectionLaw("uniform", 1000.0, 1000.0)
        with pytest.raises(ValueError):
            InspectionLaw("deterministic", 1000.0, 5.0)
        # non-finite values, also as one element of the closed forms' array rates
        for bad in (math.inf, math.nan):
            for build in (lambda: SaneLaw(1, bad), lambda: DamageLaw(bad),
                          lambda: SaneLaw(1, np.array([1e-3, bad])),
                          lambda: DamageLaw(np.array([bad, 1e-3])),
                          lambda: InspectionLaw("deterministic", bad)):
                with pytest.raises(ValueError, match="finite"):
                    build()

    def test_means(self):
        assert SaneLaw(2, 1e-3).mean == 2000.0
        assert DamageLaw(5e-4).mean == 2000.0
        assert UNIF.mean == 1000.0


class TestSurvival:
    def test_at_zero(self):
        assert survival_sane(0.0, SaneLaw(1, 1e-3)) == 1.0

    def test_exponential_value(self):
        # shape 1 at t = 1/rate is exactly 1/e
        assert_allclose(survival_sane(1000.0, SaneLaw(1, 1e-3)), math.exp(-1.0), rtol=1e-15)

    def test_shape_two_value(self):
        # (1 + rate*t) e^{-rate*t} evaluated by hand at rate*t = 1
        assert_allclose(survival_sane(1000.0, SaneLaw(2, 1e-3)), 2.0 * math.exp(-1.0), rtol=1e-15)

    @given(
        shape=st.integers(1, 4),
        rate=st.floats(1e-5, 1e-1),
        t1=st.floats(0.0, 5e4),
        t2=st.floats(0.0, 5e4),
    )
    @settings(max_examples=60, deadline=None)
    @example(shape=4, rate=1e-5, t1=0.0, t2=1.0)
    def test_nonincreasing(self, shape, rate, t1, t2):
        lo, hi = sorted((t1, t2))
        law = SaneLaw(shape, rate)
        assert survival_sane(lo, law) >= survival_sane(hi, law)

    @pytest.mark.parametrize("shape", [2, 3, 4])
    def test_at_most_one_and_nonincreasing_across_unit_rate_time(self, shape):
        # the small-t tail sum hands over to the head sum at rate*t = 1
        law = SaneLaw(shape, 1e-3)
        ts = np.concatenate((np.linspace(0.0, 2.0, 201), np.linspace(990.0, 1010.0, 2001)))
        values = [survival_sane(t, law) for t in ts]
        assert max(values) <= 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("shape", [1, 2, 3, 4, 7])
    def test_array_equals_its_float_calls(self, shape):
        # each element on its own branch, with the bits of its float call
        law = SaneLaw(shape, 1e-3)
        ts = np.concatenate(([0.0, 1e-300, 999.999, 1000.0, 1000.0001, 1e9],
                             np.random.default_rng(shape).uniform(0.0, 3000.0, 500)))
        values = survival_sane(ts, law)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        assert values.tolist() == [survival_sane(t, law) for t in ts.tolist()]
        assert isinstance(survival_sane(np.float64(500.0), law), float)


class TestLaplaceJet:
    def test_at_zero_order_zero(self):
        for law in (DET, UNIF):
            assert laplace_jet(0.0, law, 0)[0] == 1.0

    def test_at_zero_higher_order_rejected(self):
        with pytest.raises(ValueError):
            laplace_jet(0.0, DET, 1)

    @pytest.mark.parametrize(
        "s, order, message",
        [(1e-3, -1, "order must be nonnegative"), (-1e-3, 0, "s must be nonnegative")],
        ids=["negative-order", "negative-anchor"],
    )
    def test_rejects_negative_arguments(self, s, order, message):
        for law in (DET, UNIF):
            with pytest.raises(ValueError, match=message):
                laplace_jet(s, law, order)

    def test_order_cap(self):
        # jets are read to order shape, so the shape cap is the order cap
        with pytest.raises(ValueError, match="largest shape"):
            laplace_jet(1e-3, DET, MAX_SHAPE + 1)

    def test_deterministic_closed_form(self):
        # coefficient i is exactly (-c)^i e^{-sc}
        jet = laplace_jet(1e-3, DET, 2)
        e = math.exp(-1.0)
        assert jet == (e, -1000.0 * e, 1e6 * e)

    def test_uniform_value(self):
        # e^{-sc} sinh(sh)/(sh) at s=1e-3, c=1000, h=100, evaluated by hand
        expected = math.exp(-1.0) * math.sinh(0.1) / 0.1
        assert_allclose(laplace_jet(1e-3, UNIF, 0)[0], expected, rtol=1e-14)
        assert_allclose(expected, 0.3684929, atol=2e-7)

    def test_value_in_unit_interval(self):
        for s in (1e-6, 1e-3, 1e-1):
            for law in (DET, UNIF):
                assert 0.0 < laplace_jet(s, law, 0)[0] <= 1.0

    @pytest.mark.parametrize("s", [3e-4, 1e-3, 5e-3])
    @pytest.mark.parametrize("law", [UNIF, InspectionLaw("uniform", 800.0, 700.0)])
    def test_uniform_derivatives_match_finite_differences(self, s, law):
        # central differences of the order-(i-1) coefficient with relative
        # step 1e-6 (documented choice: truncation and cancellation both
        # land well below the 1e-6 comparison tolerance at these anchors)
        order = 4
        jet = laplace_jet(s, law, order)
        step = 1e-6 * s
        lo = laplace_jet(s - step, law, order - 1)
        hi = laplace_jet(s + step, law, order - 1)
        for i in range(1, order + 1):
            fd = (hi[i - 1] - lo[i - 1]) / (2.0 * step)
            assert_allclose(jet[i], fd, rtol=1e-6)

    @pytest.mark.parametrize("law", [UNIF, InspectionLaw("uniform", 800.0, 700.0)])
    def test_uniform_matches_decimal_reference(self, law):
        # every order to 1e-14 relative from s*c = 1e-7 to 50: the sums
        # over the gap's exponential moments have terms of one sign
        for sc in np.geomspace(1e-7, 50.0, 49).tolist():
            s = sc / law.spacing
            ref = precise_forms.laplace_jet(s, law, MAX_SHAPE)
            for i, (got, want) in enumerate(zip(laplace_jet(s, law, MAX_SHAPE), ref)):
                assert abs(Decimal(got) - want) <= Decimal("1e-14") * abs(want), (sc, i)

    def test_deterministic_bit_reproducible(self):
        a = laplace_jet(7e-4, DET, 4)
        b = laplace_jet(7e-4, DET, 4)
        assert a == b


class TestOneMinusLaplace:
    @pytest.mark.parametrize("s", [-1e-3, -1.0, -math.inf])
    def test_rejects_a_negative_anchor(self, s):
        # laplace_jet's check: no negative "1 - L", no bare OverflowError
        for law in (DET, UNIF):
            with pytest.raises(ValueError, match="s must be nonnegative"):
                one_minus_laplace(s, law)
            with pytest.raises(ValueError, match="s must be nonnegative"):
                laplace_jet(s, law, 0)

    def test_zero_anchor(self):
        for law in (DET, UNIF):
            assert one_minus_laplace(0.0, law) == 0.0

    def test_matches_direct_at_moderate_s(self):
        for law in (DET, UNIF):
            s = 2e-3
            assert_allclose(one_minus_laplace(s, law), 1.0 - laplace_jet(s, law, 0)[0], rtol=1e-12)

    def test_small_s_expansion(self):
        # 1 - L(s) = s E[C] - s^2 E[C^2]/2 + O(s^3)
        s = 1e-9
        assert_allclose(one_minus_laplace(s, DET), s * 1000.0 - s**2 * 1e6 / 2.0, rtol=1e-9)
        second_moment = 1000.0**2 + 100.0**2 / 3.0
        assert_allclose(
            one_minus_laplace(s, UNIF), s * 1000.0 - s**2 * second_moment / 2.0, rtol=1e-6
        )

    @pytest.mark.parametrize("sc", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    def test_uniform_matches_decimal_reference(self, sc):
        # 1 - L and L both sum terms of one sign over the gap's exponential
        # moments, neither a difference: a few ulps even at s*c = 1e-6
        s = sc / 1000.0
        ref = precise_forms.one_minus_laplace(s, UNIF)
        assert abs(Decimal(one_minus_laplace(s, UNIF)) - ref) <= Decimal("1e-15") * ref
        ref = precise_forms.laplace(s, UNIF)
        assert abs(Decimal(laplace_jet(s, UNIF, 0)[0]) - ref) <= Decimal("4e-15") * ref


class TestSampling:
    def test_gamma_mean(self):
        # a million draws through the batch sampler (same sum-of-
        # exponentials law as the scalar path)
        rng = np.random.default_rng(42)
        draws = sample_sane_many(rng, SaneLaw(2, 1e-3), 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 2000.0) <= 3.0 * se

    def test_batch_sampler_matches_scalar_law(self):
        law = SaneLaw(3, 2e-3)
        scalar = np.array([sample_sane(np.random.default_rng(1000 + i), law)
                           for i in range(4000)])
        batch = sample_sane_many(np.random.default_rng(9), law, 4000)
        # same law: two-sample comparison of means within joint error
        se = math.hypot(scalar.std(ddof=1), batch.std(ddof=1)) / math.sqrt(4000)
        assert abs(scalar.mean() - batch.mean()) <= 4.0 * se

    @pytest.mark.parametrize("shape", [1, 2, 4, 11])
    def test_batch_sampler_adds_left_to_right(self, shape):
        # each row's exponentials added in order, as the scalar sampler adds
        # its draws: the same bits as both, at every shape (numpy's row sum
        # takes another order from 8 columns on)
        law = SaneLaw(shape, 1e-3)
        batch = sample_sane_many(np.random.default_rng(47), law, 5000)
        draws = np.random.default_rng(47).exponential(1e3, size=(5000, shape))
        total = draws[:, 0].copy()
        for column in draws.T[1:]:
            total = total + column
        assert batch.tobytes() == total.tobytes()
        rng = np.random.default_rng(47)
        assert batch.tolist() == [sample_sane(rng, law) for _ in range(5000)]

    def test_exponential_mean(self):
        rng = np.random.default_rng(43)
        law = DamageLaw(5e-4)
        draws = np.array([sample_damage(rng, law) for _ in range(100_000)])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 2000.0) <= 3.0 * se

    def test_uniform_support(self):
        rng = np.random.default_rng(44)
        draws = [sample_inspection_gap(rng, UNIF) for _ in range(10_000)]
        assert min(draws) >= 900.0 and max(draws) <= 1100.0

    @pytest.mark.parametrize(
        "x, law, expected",
        [(999.0, DET, 0.0), (1000.0, DET, 1.0), (850.0, UNIF, 0.0), (900.0, UNIF, 0.0),
         (950.0, UNIF, 0.25), (1100.0, UNIF, 1.0), (1200.0, UNIF, 1.0)],
    )
    def test_gap_cdf(self, x, law, expected):
        # a step at the spacing; a ramp over [c - h, c + h], flat outside it
        assert cdf_inspection_gap(x, law) == expected

    def test_deterministic_gap_constant(self):
        rng = np.random.default_rng(45)
        assert sample_inspection_gap(rng, DET) == 1000.0

    @pytest.mark.parametrize(
        "draw,cdf",
        [
            (
                lambda r: sample_sane(r, SaneLaw(2, 1e-3)),
                lambda x: 1.0 - survival_sane(x, SaneLaw(2, 1e-3)),
            ),
            (lambda r: sample_damage(r, DamageLaw(5e-4)), lambda x: 1.0 - math.exp(-5e-4 * x)),
            (lambda r: sample_inspection_gap(r, UNIF), lambda x: cdf_inspection_gap(x, UNIF)),
        ],
        ids=["gamma", "exponential", "uniform-gap"],
    )
    def test_empirical_cdf(self, draw, cdf):
        rng = np.random.default_rng(46)
        n = 100_000
        samples = np.array([draw(rng) for _ in range(n)])
        cdf_vals = np.array([cdf(x) for x in np.sort(samples)])
        stat = ks_statistic(np.sort(samples), cdf_vals)
        assert stat < ks_critical(n, 0.001)


class TestLaplaceJetContract:
    @given(order=st.integers(0, MAX_SHAPE), s=st.floats(1e-6, 1e-1))
    @settings(max_examples=40, deadline=None)
    def test_float_gives_tuple_of_floats(self, order, s):
        # one float anchor, a tuple of order + 1 floats; a 0-d array or a
        # numpy float is that float
        for law in (DET, UNIF):
            jet = laplace_jet(s, law, order)
            assert type(jet) is tuple and len(jet) == order + 1
            assert all(type(v) is float for v in jet)
            assert laplace_jet(np.array(s), law, order) == jet
            assert laplace_jet(np.float64(s), law, order) == jet
            assert type(one_minus_laplace(np.array(s), law)) is float

    @pytest.mark.parametrize("anchors", [np.array([1e-3, 2e-3]), np.array([1e-3]), [1e-3]],
                             ids=["two", "one-element", "list"])
    def test_array_anchor_raises(self, anchors):
        for law in (DET, UNIF):
            with pytest.raises(ValueError, match="s must be one anchor"):
                laplace_jet(anchors, law, 2)
            with pytest.raises(ValueError, match="s must be one anchor"):
                one_minus_laplace(anchors, law)

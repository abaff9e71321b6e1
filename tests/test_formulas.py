import math
import warnings
from decimal import Decimal, localcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cbmkit import formulas as F
from cbmkit import laws
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw, laplace_jet
from closed_forms import closed_sensitivities
import precise_forms

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

    @pytest.mark.parametrize("law", [
        InspectionLaw("deterministic", 1e12), InspectionLaw("uniform", 1e12, 1e11),
        InspectionLaw("uniform", 1e12, 1e12 * (1.0 - 1e-9))], ids=["det", "unif", "unif-h-near-c"])
    def test_equal_rates_at_huge_mu_c(self, law):
        # mu*c = 1e9: the rows of L at mu underflow to 0 where their powers
        # of mu*c would overflow, except L(mu) = 5e-10 with h within 1e-9
        # of c, where the gap's moments run to 2 mu h = 2e9
        sane, damage = SaneLaw(4, 1e-3), DamageLaw(1e-3)
        assert 0.0 <= 1.0 - F.failure_probability(sane, damage, law) < 1e-9
        sens = F.parameter_sensitivities(sane, damage, law)
        assert all(map(math.isfinite, vars(sens).values()))

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


def _misses(got: float, ref: Decimal) -> bool:
    """Whether ``got`` misses the 50-digit ``ref`` by more than 1e-9
    relative plus 4 ulps of 1."""
    return abs(Decimal(got) - ref) > Decimal("1e-9") * abs(ref) + 4 * Decimal(2.0**-52)


def _reference_misses(shape: int, mu: float, lam: float, insp) -> bool:
    """Whether failure_probability misses the 50-digit reference."""
    got = F.failure_probability(SaneLaw(shape, mu), DamageLaw(lam), insp)
    return _misses(got, precise_forms.failure_probability(shape, mu, lam, insp))


# The sensitivity sweep's grid: mu*c and lam/mu on both sides of the
# equal-rates band.
SWEEP_MUCS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
SWEEP_RATIOS = (1e-3, 1e-2, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 1e2, 1e3)

def _slope_cells():
    for law, name in zip(LAWS, ("det", "unif")):
        for shape in (1, 2, 3, 4):
            for muc in SWEEP_MUCS:
                for ratio in SWEEP_RATIOS:
                    yield pytest.param(law, shape, muc, ratio, id=f"{name}-{shape}-{muc:g}-{ratio:g}")


@st.composite
def _rate_ratios(draw):
    """lam/mu log-uniform in [1e-3, 1e3], half the draws within 0.3 of 1,
    so the equal-rates band and its surroundings get as many as the rest."""
    if draw(st.booleans()):
        return draw(st.floats(0.7, 1.3))
    return 10.0 ** draw(st.floats(-3.0, 3.0))


class TestDecimalReference:
    """failure_probability, mean_inspections and their derivatives in the
    rates they estimate against the independent 50-digit reference of
    ``precise_forms``, on both sides of the equal-rates band, for both gap
    laws over mu*c in [1e-4, 10]."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shape=st.integers(1, 4),
        ratio=_rate_ratios(),
        uniform=st.booleans(),
        log_muc=st.floats(-4.0, 1.0),
    )
    def test_sweep(self, shape, ratio, uniform, log_muc):
        mu = 10.0**log_muc / 1000.0
        assert not _reference_misses(shape, mu, mu * ratio, UNIF if uniform else DET)

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_mean_inspections(self, law, shape):
        for muc in np.geomspace(1e-4, 10.0, 26).tolist():
            mu = muc / 1000.0
            got = F.mean_inspections(SaneLaw(shape, mu), law)
            ref = precise_forms.mean_inspections(shape, mu, law)
            assert abs(Decimal(got) - ref) <= Decimal("1e-12") * ref, muc

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_dmk_dmu(self, law, shape):
        # from the pass that serves every rate pair; lam does not enter
        for muc in SWEEP_MUCS:
            mu = muc / 1000.0
            ref = precise_forms.dmk_dmu(shape, mu, law)
            for ratio in SWEEP_RATIOS:
                sens = F.parameter_sensitivities(SaneLaw(shape, mu), DamageLaw(mu * ratio), law)
                assert not _misses(sens.dmk_dmu, ref), (muc, ratio)

    @pytest.mark.parametrize("law, shape, muc, ratio", _slope_cells())
    def test_dpd_dlambda(self, law, shape, muc, ratio):
        mu = muc / 1000.0
        sens = F.parameter_sensitivities(SaneLaw(shape, mu), DamageLaw(mu * ratio), law)
        assert not _misses(sens.dpd_dlambda,
                           precise_forms.dpd_dlambda(shape, mu, mu * ratio, law))

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_equal_rates_band(self, law, shape):
        # the band's Taylor sums over the whole band at mu*c = 1e-4, 2e-4
        # and 1, edges included, for the failure probability and its slope
        # in lam
        for mu in (1e-7, 2e-7, 1e-3):
            for ratio in (0.75, 0.8, 0.9, 0.99, 1.0, 1.01, 1.1, 1.2, 1.25):
                lam = mu * ratio
                assert not _reference_misses(shape, mu, lam, law), (mu, ratio)
                sens = F.parameter_sensitivities(SaneLaw(shape, mu), DamageLaw(lam), law)
                assert not _misses(sens.dpd_dlambda,
                                   precise_forms.dpd_dlambda(shape, mu, lam, law)), (mu, ratio)

    @pytest.mark.parametrize("law, shape, muc", [
        pytest.param(law, shape, muc, id=f"{name}-{shape}-{muc:g}", marks=pytest.mark.xfail(
            strict=True, reason=f"{miss}x the tolerance: the generic branch divides by "
                                "eps^shape"))
        for law, name, shape, muc, miss in [
            (DET, "det", 4, 1e-4, 3.40), (DET, "det", 4, 2e-4, 5.71),
            (UNIF, "unif", 3, 1e-4, 1.65), (UNIF, "unif", 4, 1e-4, 22.2),
            (UNIF, "unif", 4, 2e-4, 6.23)]])
    def test_slope_past_band_edge(self, law, shape, muc):
        # mu = muc/1000 rounds up, so lam = 1.25 mu lies one ulp of eps past
        # the band's edge, on the generic branch
        mu = muc / 1000.0
        lam = mu * 1.25
        assert not F._near_diagonal(mu, lam)
        sens = F.parameter_sensitivities(SaneLaw(shape, mu), DamageLaw(lam), law)
        assert not _misses(sens.dpd_dlambda, precise_forms.dpd_dlambda(shape, mu, lam, law))


class TestMixedRateInputs:
    """A float rate of one law with an array of the other's that straddles
    the equal-rates band (a float failure rate is a lockstep round whose
    searches all ask for one point): every element gets the bits of its
    own call."""

    MUS = np.array([5e-4, 8.5e-4, 1e-3, 1.2e-3, 2e-3])  # 8.5e-4..1.2e-3 hold 1e-3 in the band

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_elements_are_single_calls(self, law, n):
        lams = np.array([5e-4, 8e-4, 1e-3, 1.2e-3, 2e-3])  # 8e-4..1.2e-3 in the band
        sane = SaneLaw(n, 1e-3)
        for func in (F.failure_probability, F.cycle_moments, F.parameter_sensitivities):
            batch = func(sane, DamageLaw(lams), law)
            for i, lam in enumerate(lams.tolist()):
                single = func(sane, DamageLaw(lam), law)
                if func is F.failure_probability:
                    assert batch[i] == single
                    continue
                for name in type(single).__dataclass_fields__:
                    assert np.broadcast_to(getattr(batch, name), lams.shape)[i] == \
                        getattr(single, name), (func.__name__, name, lam)

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_float_failure_rate(self, law, n):
        lam = 1e-3
        band = F._near_diagonal(self.MUS, lam)
        assert band.any() and not band.all()
        singles = [F.failure_probability(SaneLaw(n, mu), DamageLaw(lam), law)
                   for mu in self.MUS.tolist()]
        assert F.failure_probability(SaneLaw(n, self.MUS), DamageLaw(lam), law).tolist() == singles

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_map_rows_are_single_calls(self, law, n):
        # one map serves calls on any rows, in floats for one row, each
        # with the bits of the elements' own calls
        _, failure = F._estimating_maps(SaneLaw(n, self.MUS), law)
        mus = self.MUS.tolist()
        for lam, rows in ((1e-3, [0, 2, 4]), (1.1e-3, [3]), (1e-3, [3, 1, 2]),
                          (np.array([9e-4, 4e-3]), [1, 4]), (8e-4, None)):
            got = failure(lam, rows)
            rows = range(len(mus)) if rows is None else rows
            lams = np.broadcast_to(lam, (len(rows),)).tolist()
            want = [F.failure_probability(SaneLaw(n, mus[k]), DamageLaw(v), law)
                    for k, v in zip(rows, lams)]
            if len(want) == 1:
                assert type(got) is float and got == want[0]
            else:
                assert got.tolist() == want


class TestInspectionSeries:
    """The series over inspection indices, seen through the public
    functions that sum it: failure_probability (the plain series) and
    cycle_moments (the plain and the k-weighted series)."""

    def test_equal_rates_hand_value(self):
        # 1 - (1 - L(mu)) * (-mu L'(mu) / (1 - L(mu))^2) at lam = mu = 1e-3,
        # shape 1: 1 - e^{-1} / (1 - e^{-1}) = 0.41802329313067358...; the
        # band's Taylor sum rounds it 0.67 ulps below that, within 4
        got = F.failure_probability(SaneLaw(1, 1e-3), DamageLaw(1e-3), DET)
        ref = precise_forms.failure_probability(1, 1e-3, 1e-3, DET)
        assert abs(Decimal(got) - ref) <= 4 * Decimal(math.ulp(got))

    def test_weighted_dominates_plain(self):
        # termwise k >= 1: E[inspections; detected] >= P(detected)
        for law in LAWS:
            for mu, lam in grid_rates():
                for n in (1, 2, 3, 4):
                    m = F.cycle_moments(SaneLaw(n, mu), DamageLaw(lam), law)
                    assert m.mean_inspections_detected >= 1.0 - m.failure_prob

    @given(
        shape=st.integers(1, 3),
        mu=st.floats(2e-4, 5e-3),
        lam=st.floats(1e-4, 3e-3),
        uniform=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_detection_identity(self, shape, mu, lam, uniform):
        # the moment bundle sums the plain series from a longer jet than
        # failure_probability does; the jet's shared orders are the same
        # floats, so the two agree bit for bit
        law = UNIF if uniform else DET
        sane, dmg = SaneLaw(shape, mu), DamageLaw(lam)
        assert F.cycle_moments(sane, dmg, law).failure_prob == F.failure_probability(sane, dmg, law)


class TestMeanCycle:
    def test_composition(self):
        sane, dmg = SaneLaw(1, 1e-3), DamageLaw(5e-4)
        p_fail = F.failure_probability(sane, dmg, DET)
        got = F.cycle_moments(sane, dmg, DET).mean_cycle
        assert_allclose(got, 1000.0 + p_fail / 5e-4, rtol=1e-14)
        assert_allclose(got, 1489.84, atol=0.005)

    @given(
        shape=st.integers(1, 3),
        mu=st.floats(2e-4, 5e-3),
        lam=st.floats(1e-4, 3e-3),
        uniform=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_damage_time_plus_failure_term(self, shape, mu, lam, uniform):
        # E[cycle length] = mean damage time + failure probability / failure
        # rate, bit for bit
        law = UNIF if uniform else DET
        sane, dmg = SaneLaw(shape, mu), DamageLaw(lam)
        expected = sane.mean + F.failure_probability(sane, dmg, law) / dmg.rate
        assert F.cycle_moments(sane, dmg, law).mean_cycle == expected

    def test_slow_failure_limit(self):
        # as the failure rate vanishes the cycle ends at detection, so the
        # mean cycle tends to mean damage time plus mean overshoot, which
        # for deterministic gaps is bounded by one spacing
        m1 = F.cycle_moments(SaneLaw(2, 1e-3), DamageLaw(1e-10), DET).mean_cycle
        m2 = F.cycle_moments(SaneLaw(2, 1e-3), DamageLaw(1e-12), DET).mean_cycle
        assert_allclose(m1, m2, rtol=1e-6)
        assert 2000.0 < m2 < 3000.0

    def test_observed_mean_cycle_of_reference_run(self):
        # the published deterministic run: elapsed time over repairs
        got = F.cycle_moments(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET).mean_cycle
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


# The time dimension of each closed-form field that has one: the others are
# counts and probabilities, of dimension 0, and a derivative in a rate has
# the dimension of a time.
_TIME_DIMENSION = {
    "mean_cycle": 1, "mean_cycle_sq": 2, "cov_cycle_failure": 1, "cov_inspections_cycle": 1,
    "mean_cycle_on_failure": 1, "dmk_dmu": 1, "dpd_dmu": 1, "dpd_dlambda": 1,
}


class TestTimeUnit:
    """The model has no time unit: every time (c, h) times s = 2^j and every
    rate over s scales each CycleMoments and Sensitivities field of time
    dimension d by s^d, bit for bit, for every j at which no such field
    overflows and each stays 2^53 above the least normal float, so that the
    terms that reach its last bit are normal too."""

    RATIOS = (1e-3, 0.5, 1.0, 1.1, 2.0, 100.0)

    @staticmethod
    def _fields(shape, kind, ratio, s):
        mu = 1e-3 / s
        sane, damage = SaneLaw(shape, mu), DamageLaw(mu * ratio)
        law = InspectionLaw(kind, 1000.0 * s, 100.0 * s if kind == "uniform" else 0.0)
        return {**vars(F.cycle_moments(sane, damage, law)),
                **vars(F.parameter_sensitivities(sane, damage, law))}

    @staticmethod
    def _normal_range(base: dict) -> tuple:
        """The j from which to which every nonzero field of dimension d > 0,
        times 2^(d j), lies in [2^-969, 2^1024): from each field's binary
        exponent e, 2^(e-1) <= |v| < 2^e."""
        lo, hi = -math.inf, math.inf
        for name, value in base.items():
            d = _TIME_DIMENSION.get(name, 0)
            if d and value:
                e = math.frexp(value)[1]
                lo, hi = max(lo, -((968 + e) // d)), min(hi, (1024 - e) // d)
        return lo, hi

    def _assert_scales(self, shape, kind, js=None):
        for ratio in self.RATIOS:
            base = self._fields(shape, kind, ratio, 1.0)
            lo, hi = self._normal_range(base)
            for j in js or [*range(lo, hi, 20), hi]:
                s = 2.0**j
                want = {k: v * s ** _TIME_DIMENSION.get(k, 0) for k, v in base.items()}
                assert self._fields(shape, kind, ratio, s) == want, (ratio, j)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_fields_scale_exactly(self, shape, kind):
        # mean_cycle_sq, of dimension 2 and near 1e7 at lam/mu = 1e-3,
        # bounds the range at about j = -495 and j = 500
        self._assert_scales(shape, kind)

    @pytest.mark.parametrize("shape, j", [(1, 200), (4, -220)], ids=["overflow-j200", "subnormal-j-220"])
    def test_uniform_edges(self, shape, j):
        # where a jet in the time unit of c broke: g ** (top + 1) overflowed
        # at j = 200, and g ** 5 was subnormal at j = -220
        self._assert_scales(shape, "uniform", [j])


class TestLawDerivativesCache:
    """The scaled jets of ``_jet``, computed afresh on every call: the name
    is kept from the float-anchor memo these tests once covered, so that
    the test ids stay stable."""

    ROWS = ("laplace", "one_minus", "w", "psi")

    @classmethod
    def _rows(cls, jet) -> dict:
        """The jet's rows by name, 1 - L as a row of one."""
        return {name: list(rows) if isinstance(rows, tuple) else [rows]
                for name, rows in zip(cls.ROWS, jet)}

    def test_cached_arrays_are_read_only(self):
        # a jet is immutable, so its rows are tuples
        laplace, _, w, psi = F._jet(1e-3, UNIF, 4)
        for rows in (laplace, w, psi):
            with pytest.raises(TypeError):
                rows[0] = 0.0

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_repeated_calls_agree(self, law, monkeypatch):
        # each call computes its jet afresh, to the same bits
        calls = []

        def transform(*args):
            calls.append(args)
            return laws._transform(*args)

        monkeypatch.setattr(F, "_transform", transform)
        first = self._rows(F._jet(7.3e-4, law, 4))
        again = self._rows(F._jet(7.3e-4, law, 4))
        assert len(calls) == 2
        for name in self.ROWS:
            assert [v.hex() for v in again[name]] == [v.hex() for v in first[name]]

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_array_rows_are_the_single_anchor_floats(self, law):
        # a single rate computes in floats, an array of rates in rows; each
        # column is its rate's jet, bit for bit
        rates = [7.3e-4, 1e-3, 2.5e-2]
        batch = self._rows(F._jet(np.array(rates), law, 4))
        for k, s in enumerate(rates):
            one = self._rows(F._jet(s, law, 4))
            for name in self.ROWS:
                assert all(type(v) is float for v in one[name])
                assert [row[k] for row in batch[name]] == one[name]

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_order_cap(self, law):
        # the band of the largest shape reads the highest order there is
        top = laws.MAX_SHAPE + F._BAND_TERMS
        assert len(F._jet(1e-3, law, top)[3]) == top + 1
        with pytest.raises(ValueError, match="highest jet order"):
            F._jet(1e-3, law, top + 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        log_sc=st.lists(st.floats(-9.0, 1.0), min_size=2, max_size=12),
        order=st.integers(0, 4),
        law=st.sampled_from(LAWS),
    )
    def test_batches_across_the_series_switch(self, log_sc, order, law):
        # s*c from 1e-9 to 10 in one array, both ends included: the uniform
        # moments' series and recursion sides both run, and each element
        # gets the bits of its own float jet, without a numpy warning
        rates = [10.0**v / 1000.0 for v in [-9.0, *log_sc, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = self._rows(F._jet(np.array(rates), law, order))
        for k, s in enumerate(rates):
            one = self._rows(F._jet(s, law, order))
            for name in self.ROWS:
                assert [row[k] for row in batch[name]] == one[name], name


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
            for n in (1, 2, 3, 4):
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
        got = laws._exp_poly_moments(g, theta, top)
        g = np.asarray(g, dtype=float)
        assert len(got) == top + 1
        assert all(np.shape(m) == g.shape for m in got)
        for k, value in enumerate(g.reshape(-1)):
            want = decimal_moments(float(value), theta, top)
            have = [float(np.reshape(m, -1)[k]) for m in got]
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
        for i, m in enumerate(laws._exp_poly_moments(g, 0.0, top)):
            assert_allclose(m, g ** (i + 1) / (i + 1), rtol=4e-16)

    @pytest.mark.parametrize("top", [0, 3])
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 2e-3])
    @pytest.mark.parametrize("g", [0.0, 7.5, 1234.5])
    def test_scalar_input(self, g, theta, top):
        self.assert_accurate(g, theta, top)
        got = laws._exp_poly_moments(g, theta, top)
        assert all(isinstance(m, float) for m in got)

    @pytest.mark.parametrize("top", [0, 4])
    @pytest.mark.parametrize("elementwise", [False, True])
    @pytest.mark.parametrize("theta", [1.0, -1.0], ids=["positive", "negative"])
    def test_array_of_g_across_the_switch(self, theta, elementwise, top):
        # one theta, an array of g whose theta*g straddles the switch: each
        # side of one call on its own elements, each as accurate as alone
        g = 200.0 * np.geomspace(1e-11, 0.5, 40)
        small = np.abs(theta * g) < math.factorial(top + 1) ** (1.0 / max(top, 1))
        assert small.any() and not small.all()
        got = laws._exp_poly_moments(g, theta, top, elementwise=elementwise)
        for k, value in enumerate(g.tolist()):
            assert_allclose([float(m[k]) for m in got], decimal_moments(value, theta, top),
                            rtol=1e-12, atol=0.0, err_msg=f"g={value!r}")

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
                got = [float(m) for m in laws._exp_poly_moments(g, theta, top)]
                assert_allclose(got, decimal_moments(g, theta, top), rtol=1e-12, atol=0.0,
                                err_msg=f"theta*g={sign * x!r}, g={g!r}")


class TestWindowOneRate:
    """The window integrals at one rate per law, pinned on either side of
    lam = mu; an array of rates is refused, since one series sign cannot
    serve rates on both sides."""

    SANE = SaneLaw(2, 1e-3)
    # detection_window_integral and window_moments at a = 100, b = 900
    PINS = {
        5e-4: (0.18932474429758553, -1.66429151458353, 0.31483221321198906, 0.0439779527346921),
        2e-3: (0.12375820567340126, -2.0894255712597176, 0.25375454607334635,
               0.037060420971541164),
    }

    @pytest.mark.parametrize("lam", sorted(PINS))
    def test_pinned_values(self, lam):
        damage = DamageLaw(lam)
        value = F.detection_window_integral(100.0, 900.0, self.SANE, damage)
        moments = [float(v) for v in F.window_moments(100.0, 900.0, self.SANE, damage)]
        # the same bits with and without numpy's AVX-512 loops
        assert (value, *moments) == self.PINS[lam]

    def test_array_of_rates_raises_one_line(self):
        damage = DamageLaw(np.array(sorted(self.PINS)))
        for window in (F.detection_window_integral, F.window_moments):
            with pytest.raises(ValueError, match="one rate per law") as info:
                window(100.0, 900.0, self.SANE, damage)
            assert "\n" not in str(info.value)
        with pytest.raises(ValueError, match="one rate per law"):
            F.window_moments(100.0, 900.0, SaneLaw(2, np.array([1e-3, 2e-3])), DamageLaw(5e-4))


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
        # the real moments with a flat failure probability, through the one
        # pass the covariance makes
        flat = F.Sensitivities(dmk_dmu=-900.0, dpd_dmu=0.0, dpd_dlambda=0.0)
        closed_forms = F._closed_forms
        monkeypatch.setattr(F, "_closed_forms",
                            lambda *a: (closed_forms(*a)[0], flat, closed_forms(*a)[2]))
        with pytest.raises(ValueError, match="identifiable"):
            F.estimator_covariance(SaneLaw(1, 1e-3), DamageLaw(5e-4), DET)

    @pytest.mark.parametrize("law", LAWS, ids=["det", "unif"])
    def test_one_pass_per_batch(self, law, monkeypatch):
        # a 100-element batch, a third of it in the equal-rates band: one
        # jet at each rate, to orders shape and 1, one band split and one
        # band jet, to order shape + N on the band's 34 damage rates only,
        # whichever convention reads them
        mu = np.geomspace(5e-4, 2e-3, 100)
        lam = mu * np.where(np.arange(100) % 3 == 0, 1.1, 0.5)
        calls = []
        jet, by_band = F._jet, F._by_band

        def counted_jet(rate, insp, order):
            where = ("mu" if rate is mu else "lam" if rate is lam
                     else "band" if rate.tolist() == mu[::3].tolist() else rate)
            calls.append((where, order))
            return jet(rate, insp, order)

        monkeypatch.setattr(F, "_jet", counted_jet)
        monkeypatch.setattr(F, "_by_band", lambda *a: calls.append("_by_band") or by_band(*a))
        for convention in F.CONVENTIONS:
            calls.clear()
            bundle = F.estimator_covariance(SaneLaw(2, mu), DamageLaw(lam), law, convention)
            assert bundle.param_cov.shape == (100, 2, 2)
            assert calls == [("mu", 2), ("lam", 1), "_by_band", ("band", 2 + F._BAND_TERMS)], \
                convention

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

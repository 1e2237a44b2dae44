"""Accuracy contracts against exact references (``tests/util.py``): 50-digit mpmath,
or exact rationals where the result is a rounded sum of floats.

Each class is one public function: a sampler that reaches the hard regimes, the
reference, and the bound its docstring states.  The batch exposure's reference is the
scalar closed form, whose bits it keeps except above the series switch.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import (
    HorizonRegime, ModelParams, RecoveryConfig, derive, excess_exposure, exposure_batch,
    exposure_closed_form, horizon_capacity, horizon_feasibility, k_safe, min_peak_plan,
    overhead_optimal_count, peak_capacity, simulate_recurrence, state_peak_plan, state_value,
)
from leakystage.model import guarded_ceil
from strategies import rate_sets
from util import (exact_budget_residual, mpmath_deficit_excess, mpmath_excess, mpmath_exposure,
                  mpmath_horizon_capacity, mpmath_horizon_count, mpmath_overhead_optimum,
                  mpmath_peak_capacity, mpmath_state_value)

mpmath = pytest.importorskip("mpmath")

EPS = 2.0**-52


def _deficit_near_gap(r: float, h: float, n: int) -> bool:
    """Whether ``1 + h - r`` lies within 4 eps of the deficit ``1 + h - B_n(h)``: where the
    count's docstring lets rounding decide."""
    return abs(mpmath_deficit_excess(r, h, n)) <= 4 * EPS


class TestHorizonCount:
    """``horizon_feasibility``'s count is the first ``n`` whose deficit ``1 + h - B_n(h)`` is
    at most ``1 + h - r``: exact, except where ``1 + h - r`` lies within a few ulps of a
    deficit."""

    @pytest.mark.parametrize("h, gap, count", [
        (10.0, 1e-8, 4999999584),
        (1e3, 1e-6, 500000000931),
        (1e6, 1.0, 499999666668),
        (1e6, 1e-2, 49999999620102),
    ])
    def test_near_frontier_rows(self, h, gap, count):
        # one more count adds about h**2 / (2 n**2) of capacity, below the rounding of B_n:
        # a float test B_n(h) >= r missed each of these
        r = 1.0 + h - gap
        assert mpmath_horizon_count(r, h) == count
        assert horizon_feasibility(r, h).n == count

    def test_rounding_decides_within_an_ulp_of_a_capacity(self):
        # the docstring's example: B_3(100) = 3 - 2e-50 rounds to 3
        assert mpmath_horizon_count(3.0, 100.0) == 4
        assert horizon_feasibility(3.0, 100.0).n == 3
        assert _deficit_near_gap(3.0, 100.0, 3)

    def test_seeded_counts_up_to_1e14_are_exact(self):
        # loads near the frontier: a count n log-uniform in [2, 1e14] sets 1 + h - r to about
        # h**2 / (2 n), over horizons from 1e-2 to 1e7
        rng = np.random.default_rng(23)
        exact = near = 0
        for _ in range(320):
            h = float(10.0 ** rng.uniform(-2.0, 7.0))
            n = 10.0 ** rng.uniform(math.log10(2.0), 14.0)
            r = 1.0 + h - min(h, h * h / (2.0 * n)) * float(rng.uniform(0.5, 1.0))
            verdict = horizon_feasibility(r, h)
            if verdict.regime is not HorizonRegime.SAFE_WITH_N:
                continue
            count = mpmath_horizon_count(r, h)
            if count > 1e14:
                continue
            if verdict.n == count:
                exact += 1
            else:
                assert abs(verdict.n - count) == 1, (r, h, verdict.n, count)
                assert _deficit_near_gap(r, h, min(verdict.n, count)), (r, h, verdict.n, count)
                near += 1
        assert exact >= 200
        assert near <= exact // 100

    @settings(max_examples=150, deadline=None)
    @given(exponent=st.floats(1.0, 13.0), ulps=st.integers(1, 4096))
    def test_large_counts_within_4_eps(self, exponent, ulps):
        # loads a few ulps below 1 + h need counts up to about 1e29.  A relative error of
        # a few eps in the deficit moves the count by a few eps of itself, and by one where
        # that is less than one count
        h = 10.0**exponent
        r = 1.0 + h
        for _ in range(ulps):
            r = math.nextafter(r, 0.0)
        verdict = horizon_feasibility(r, h)
        if verdict.regime is not HorizonRegime.SAFE_WITH_N:  # within eps_thr of 1 + h
            return
        count = mpmath_horizon_count(r, h)
        assert abs(verdict.n - count) <= 1 + 4 * EPS * count, (r, h, verdict.n, count)


def _log_uniform(rng, low: float, high: float) -> float:
    return float(10.0 ** rng.uniform(low, high))


def _carry_over(rng) -> float:
    """Carry-overs of every kind: zero, subnormal to tiny, below and above 1/2, and within
    1e-16 of 1."""
    return float(rng.choice([0.0, _log_uniform(rng, -323.0, 0.0), rng.uniform(0.0, 0.5),
                             rng.uniform(0.0, 1.0), 1.0 - _log_uniform(rng, -16.0, 0.0)]))


def _eps_off(value: float, reference) -> float:
    """The relative error of ``value`` from a nonzero 50-digit ``reference``, in eps."""
    return float(abs(mpmath.mpf(value) - reference) / reference) / EPS


class TestHorizonCapacity:
    """``horizon_capacity``: within 2 eps relative of ``B_n(h)`` at 50 digits."""

    def test_seeded_capacities_within_2_eps(self):
        # counts up to 1e18, past 2**53, and horizons from subnormal to 1e300, or a spacing
        # h/(n-1) from 1e-20, where B_n sits at 1 + h, to 1e3, where it sits at n
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(3000):
            n = 1 + int(10.0 ** rng.uniform(0.0, 18.0))
            if rng.random() < 0.5:
                h = _log_uniform(rng, -323.0, 300.0)
            else:
                h = _log_uniform(rng, -20.0, 3.0) * max(1, n - 1)
            off = _eps_off(horizon_capacity(n, h), mpmath_horizon_capacity(n, h))
            assert off <= 2.0, (n, h, off)
            worst = max(worst, off)
        assert worst > 0.5  # the sampler reaches the rounding


class TestPeakCapacity:
    """``peak_capacity``: within 2 eps relative of ``c_n(lam)`` at 50 digits."""

    def test_seeded_multipliers_within_2_eps(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(3000):
            n, lam = 1 + int(10.0 ** rng.uniform(0.0, 18.0)), _carry_over(rng)
            off = _eps_off(peak_capacity(n, lam), mpmath_peak_capacity(n, lam))
            assert off <= 2.0, (n, lam, off)
            worst = max(worst, off)
        assert worst > 0.5


class TestStateValue:
    """``state_value``: within 4 eps relative of ``max(a, (a + Q) / c_m(lam))`` at 50 digits,
    plus 2**-1074 absolute where the peak is subnormal."""

    @pytest.mark.parametrize("m, a, Q, lam", [
        (316_000_000_000_000, 0.0, 1.4e-300, 0.335),  # a subnormal peak, 4e5 eps off relative
        (3, 1e308, 1e308, 0.5),                       # a + Q overflows, the peak does not
        (2, 0.0, 5e-324, 0.0),                        # a peak of half a subnormal rounds to 0
    ])
    def test_float_range_rows(self, m, a, Q, lam):
        reference = mpmath_state_value(m, a, Q, lam)
        assert abs(mpmath.mpf(state_value(m, a, Q, lam)) - reference) <= (
            4 * EPS * reference + 2.0**-1074)

    def test_seeded_values_within_4_eps(self):
        # counts up to 1e18 and levels and loads from zero and the subnormals up to 1e300, on
        # both sides of the fill peak, and pairs whose sum a + Q overflows
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(3000):
            m, lam = 1 + int(10.0 ** rng.uniform(0.0, 18.0)), _carry_over(rng)
            a = 0.0 if rng.random() < 0.2 else _log_uniform(rng, -323.0, 300.0)
            Q = _log_uniform(rng, -323.0, 300.0)
            if rng.random() < 0.3:
                Q = a * _log_uniform(rng, -3.0, 3.0)
            elif rng.random() < 0.1:
                a, Q = _log_uniform(rng, 307.0, 308.2), _log_uniform(rng, 307.0, 308.2)
            value, reference = state_value(m, a, Q, lam), mpmath_state_value(m, a, Q, lam)
            assert abs(mpmath.mpf(value) - reference) <= 4 * EPS * reference + 2.0**-1074, (
                m, a, Q, lam)
            if value >= 2.0**-1022:
                worst = max(worst, _eps_off(value, reference))
        assert worst > 0.5


class TestPeakPlan:
    """``state_peak_plan`` and ``min_peak_plan``: ``peak == state_value == max(post_levels)``,
    exactly.  For them and ``simulate_recurrence`` alike, ``capacity_residual`` is the budget
    defect ``sum(q) - A_n + a0 - (1 - lam) * sum(A_k, k < n)`` over the plan's floats, exact
    and rounded once; the reference sums it in ``fractions.Fraction``."""

    @staticmethod
    def _check(plan, m, a, Q, lam):
        assert plan.peak == state_value(m, a, Q, lam) == max(plan.post_levels)
        reference = exact_budget_residual(plan.releases, plan.post_levels, a, lam)
        assert repr(plan.capacity_residual) == repr(reference)

    @pytest.mark.parametrize("m, a, Q, lam", [
        (5, 1e308, 0.0, 0.9),                # levels whose sum passes the float range
        (3, 1e308, 1e308, 0.5),              # a + Q overflows, the peak does not
        (5, 0.0, 1.7e308, 0.5),
        (3000, 5e-324, 0.0, 1 - 1e-9),       # a decay that stops at the smallest subnormal
        (100_000, 0.7, 13650.0, 0.35),       # a decay to 69,289 zeros
        (100_000, 0.7, 0.9 * 100_000 * 0.65, 0.35),
        (1493, 34618.031773854185, 1.3582287989763895, 0.999999999),
    ])
    def test_float_range_rows(self, m, a, Q, lam):
        self._check(state_peak_plan(m, a, Q, lam), m, a, Q, lam)

    def test_seeded_plans_are_exact(self):
        # counts up to 1e4, start levels on both sides of the fill peak, and the carry-overs
        # whose decay tails end in zeros (lam <= 1/2), in a subnormal (lam > 1/2), or not at all
        rng = np.random.default_rng(31)
        for _ in range(150):
            m = int(10.0 ** rng.uniform(0.0, 4.0))
            lam = float(rng.choice([0.0, 1e-9, 1.0 - 1e-9, rng.uniform(0.0, 1.0)]))
            a = float(rng.choice([0.0, 5e-324, rng.uniform(0.0, 2.0),
                                  10.0 ** rng.uniform(-300.0, 300.0)]))
            Q = float(rng.uniform(0.0, 2.0)) * m * (1.0 - lam) * max(a, 1.0)
            self._check(state_peak_plan(m, a, Q, lam), m, a, Q, lam)
            self._check(min_peak_plan(RecoveryConfig(lam=lam, n=m, Q=Q)), m, 0.0, Q, lam)

    @staticmethod
    def _check_recurrence(a0, lam, releases):
        plan = simulate_recurrence(RecoveryConfig(lam=lam, n=len(releases), Q=1.0, a0=a0),
                                   releases)
        reference = exact_budget_residual(plan.releases, plan.post_levels, a0, lam)
        assert repr(plan.capacity_residual) == repr(reference), (a0, lam, releases)

    @pytest.mark.parametrize("a0, lam, releases", [
        (0.0, 0.5, (1e308,) * 3),                 # the release sum passes the float range
        (0.0, 0.0, (1.7e308,) * 4),               # so do both sums, at every level
        (0.0, 1e-300, (1.7e308, 1.7e308)),        # lam * A_1 is lost in the rounding of A_2
        (1.7e308, 0.9, (0.0,) * 5),               # levels whose sum passes the float range
        (1e308, 0.5, (0.0, 1e308, 0.0)),
        (0.0, 1.0 - 1e-16, (1e-3,) * 7),          # 1 - lam is not a float's rounding of it
        (5e-324, 0.5, (5e-324, 0.0, 5e-324)),     # subnormal levels, and a level of zero
        (0.3, 0.0, (0.0,) * 3),                   # the carry-over is lost at once
    ])
    def test_recurrence_float_range_rows(self, a0, lam, releases):
        self._check_recurrence(a0, lam, releases)

    def test_seeded_recurrences_are_exact(self):
        # counts up to 1e3, every kind of carry-over, and releases from the subnormals up to
        # about 1.7e308 times 1 - lam, so that the levels stay in the float range while the
        # sums of the releases and of the levels pass it
        rng = np.random.default_rng(59)
        for _ in range(150):
            n, lam = int(10.0 ** rng.uniform(0.0, 3.0)), _carry_over(rng)
            top = _log_uniform(rng, -323.0, math.log10(0.85e308))
            a0 = float(rng.choice([0.0, 5e-324, rng.uniform(0.0, 1.0) * top]))
            releases = tuple((rng.uniform(0.0, 1.0, n) * ((1.0 - lam) * top)).tolist())
            self._check_recurrence(a0, lam, releases)


class TestOverheadOptimum:
    """``overhead_optimal_count``: the 50-digit optimum over all counts is among the ties,
    which are the floor and the ceiling of ``r e^-k`` at most."""

    @pytest.mark.parametrize("r, k", [(1e9, 0.5), (1e7, 0.3), (123456.7, 1.1), (1e12, 0.2)])
    def test_large_load_ties_hold_the_mpmath_optimum(self, r, k):
        # at these costs the relative tie bound admits a run of many counts, yet
        # only the floor and the ceiling of r e^-k can hold the optimum
        ties = overhead_optimal_count(r, k).ties
        assert mpmath_overhead_optimum(r, k) in ties
        assert len(ties) <= 2


def _excess_bound(r: float, n: int) -> float:
    """The relative bound that ``excess_exposure``'s docstring states at ``(r, n)``."""
    x = r / n - 1.0
    if x < 1e-4:
        return 4 * EPS
    return 2 * EPS * (1.0 + (math.log(r) + x) / (x - math.log1p(x)))


def _excess_off(value: float, r: float, n: int) -> float:
    """The relative error of ``value`` from the excess of ``(r, n)`` at 50 digits, as a
    share of :func:`_excess_bound`."""
    reference = mpmath_excess(r, n)
    return abs(value - reference) / reference / _excess_bound(r, n)


class TestExcessExposure:
    """``excess_exposure``: within 4 eps relative of ``r - n - n log(r/n)`` at 50 digits below
    ``x = r/n - 1 = 1e-4``, where it takes the series, and from there on within
    ``2 eps (1 + (log r + x) / (x - log1p x))``, the rounding of the log difference
    magnified by its cancellation."""

    @pytest.mark.parametrize("r, n", [
        (34978872.83238933, 34975150),  # 5.7e-7 off, just above the series switch
        (2.002, 2), (3.0006, 3),        # 1.4e-10 and 2.8e-9 off
        (1e300, 7),                     # no cancellation
    ])
    def test_log_difference_rows(self, r, n):
        assert _excess_off(excess_exposure(r, n), r, n) <= 1.0

    @pytest.mark.parametrize("low, high", [(-15.0, -4.0), (-4.0, -1.0), (-1.0, 3.0)],
                             ids=["series", "log-below-0.1", "log-from-0.1"])
    def test_seeded_loads_within_the_bound(self, low, high):
        # 4000 counts log-uniform up to 1e12 and excess ratios x log-uniform in the band
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(4000):
            n = int(_log_uniform(rng, 0.0, 12.0))
            r = n * (1.0 + _log_uniform(rng, low, high))
            if r <= n:  # x below half an ulp of 1
                continue
            off = _excess_off(excess_exposure(r, n), r, n)
            assert off <= 1.0, (r, n, off)
            worst = max(worst, off)
        assert worst > 0.2  # the sampler reaches the rounding


class TestKSafe:
    """``k_safe``: the excess of ``(r, n_safe - 1)``, ``n_safe`` the guarded ceiling of
    ``r``, within ``excess_exposure``'s bound there, and from 2**53 on, where it takes the
    series at ``x = 1/(r - 1)``, within 4 eps relative."""

    def test_row_just_above_the_series_switch(self):
        # x = 0.4959 / 4712 = 1.05e-4: 2.1e-7 off
        r = 4712.495943273464
        assert _excess_off(k_safe(r), r, 4712) <= 1.0

    def test_seeded_loads_within_the_bound(self):
        # loads log-uniform up to 1e16, past 2**53, where a 50-digit reference still holds
        # some 18 digits, and loads just above an integer, within its guard too
        rng = np.random.default_rng(67)
        worst = 0.0
        for i in range(4000):
            if i % 2:
                r = _log_uniform(rng, 0.0, 16.0)
            else:
                r = math.floor(_log_uniform(rng, 0.0, 15.0)) + _log_uniform(rng, -16.0, 0.0)
            value = k_safe(r)
            if value == math.inf:
                continue
            # from 2**53 on, x = r/n - 1 rounds below the switch, to a bound of 4 eps
            n = guarded_ceil(r) - 1
            off = _excess_off(value, r, n)
            assert off <= 1.0, (r, n, off)
            worst = max(worst, off)
        assert worst > 0.2


class TestExposureClosedForm:
    """``exposure_closed_form``: from the float ``alpha`` and ``delta_c`` of ``derive``, the
    value within ``2.5e-14 (1 + |log delta_c|)`` relative of the 50-digit value and the
    active duration within 2 eps relative."""

    @pytest.mark.parametrize("params", [
        ModelParams(0.6, 1.0, 1.8, 0.5),      # delta_c = 1/3
        ModelParams(0.5, 0.56, 1.5, 2.0),     # delta_c = 0.06
        ModelParams(0.5, 0.501, 1.5, 0.01),   # delta_c = 1e-3
    ], ids=["1/3", "0.06", "1e-3"])
    def test_seeded_releases_within_the_bound(self, params):
        # 20,000 sizes log-uniform in turn in the overshoot q - delta_c from just past the
        # plateau's eps_thr up to the series switch, in q / delta_c over [1.1, 51], where the
        # log difference cancels most, and in q up to 1e300
        delta_c = derive(params).delta_c
        bound = 2.5e-14 * (1.0 + abs(math.log(delta_c)))
        rng = np.random.default_rng(53)
        worst_value = worst_duration = 0.0
        for i in range(20_000):
            if i % 3 == 0:
                q = delta_c + _log_uniform(rng, math.log10(2e-12), math.log10(0.1 * delta_c))
            elif i % 3 == 1:
                q = delta_c * (1.0 + _log_uniform(rng, -1.0, math.log10(50.0)))
            else:
                q = _log_uniform(rng, math.log10(delta_c) + 1e-9, 300.0)
            exposure = exposure_closed_form(q, params)
            value, duration = mpmath_exposure(q, params)
            value_off = float(abs(mpmath.mpf(exposure.value) - value) / value)
            duration_off = _eps_off(exposure.active_duration, duration)
            assert value_off <= bound and duration_off <= 2.0, (q, value_off, duration_off)
            worst_value, worst_duration = max(worst_value, value_off), max(worst_duration,
                                                                            duration_off)
        assert worst_value > 0.2 * bound and worst_duration > 0.5  # the sampler reaches both


class TestExposureBatch:
    """``exposure_batch`` against the scalar ``exposure_closed_form``: within
    ``5e-14 max(1, |log q|)`` relative above the series switch."""

    @settings(max_examples=300, deadline=None)
    @given(params=rate_sets, overshoots=st.lists(
        st.floats(0.1, 0.12) | st.floats(0.12, 10.0), min_size=1, max_size=8))
    def test_batch_matches_scalar_above_the_switch(self, params, overshoots):
        # a last-bit gap between np.log and math.log, magnified by the bracket's
        # cancellation, which is largest just above the series switch
        qs = derive(params).delta_c * (1.0 + np.array(overshoots))
        for q, value in zip(qs, exposure_batch(qs, params)):
            scalar = exposure_closed_form(float(q), params).value
            assert abs(value - scalar) <= 5e-14 * max(1.0, abs(math.log(q))) * scalar

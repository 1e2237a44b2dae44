"""Accuracy contracts against 50-digit mpmath references (``tests/util.py``).

Each class is one public scalar function: a sampler that reaches the hard regimes,
the mpmath reference, and the bound its docstring states.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import HorizonRegime, horizon_feasibility
from util import mpmath_deficit_excess, mpmath_horizon_count

pytest.importorskip("mpmath")

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import (
    LeakyStageError,
    SplitProblem,
    allocation,
    continuous_relaxed_count,
    derive,
    excess_exposure,
    exposure_closed_form,
    k_safe,
    min_exposure,
    minimal_safe_count,
    optimal_split,
    overhead_optimal_count,
)
from leakystage.cli import parse_config, run
from leakystage.model import guarded_ceil
from util import (
    enumerate_k_safe,
    enumerate_overhead,
    excess_per_count,
    grid_min_split_2,
    mpmath_excess,
    overhead_rows_loop,
    random_params,
)


class TestOptimalSplit:
    def test_exact_capacity_is_unique_threshold_split(self, figure_params):
        d = derive(figure_params)
        result = optimal_split(SplitProblem(Q=3 * d.delta_c, n=3, params=figure_params))
        assert result.releases == (d.delta_c,) * 3
        assert result.total_exposure == 0.0
        assert result.is_safe
        assert result.unique_minimizer

    def test_single_release(self, figure_params):
        d = derive(figure_params)
        result = optimal_split(SplitProblem(Q=2 * d.delta_c, n=1, params=figure_params))
        assert result.releases == (2 * d.delta_c,)
        expected = exposure_closed_form(2 * d.delta_c, figure_params).value
        assert result.total_exposure == pytest.approx(expected, rel=1e-14)
        assert not result.is_safe

    def test_grid_search_never_beats_equal_split(self, figure_params):
        d = derive(figure_params)
        Q = 2.1 * d.delta_c
        result = optimal_split(SplitProblem(Q=Q, n=2, params=figure_params))
        grid_min, arg, spacing = grid_min_split_2(figure_params, Q, 10**6)
        assert grid_min >= result.total_exposure - 1e-12
        assert result.total_exposure <= grid_min + 1e-6
        assert abs(arg - Q / 2) <= spacing

    def test_below_capacity_canonical_representative(self, figure_params):
        d = derive(figure_params)
        result = optimal_split(SplitProblem(Q=1.5 * d.delta_c, n=3, params=figure_params))
        assert not result.unique_minimizer
        assert result.is_safe
        assert result.total_exposure == 0.0
        assert result.releases[0] == d.delta_c
        assert result.releases[1] == pytest.approx(0.5 * d.delta_c, rel=1e-12)
        assert result.releases[2] == 0.0
        assert math.fsum(result.releases) == pytest.approx(1.5 * d.delta_c, rel=1e-12)

    def test_releases_sum_to_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_params(rng)
            d = derive(p)
            n = int(rng.integers(1, 8))
            Q = rng.uniform(0.1, 4.0) * d.delta_c * n
            result = optimal_split(SplitProblem(Q=Q, n=n, params=p))
            assert abs(math.fsum(result.releases) - Q) <= 1e-12 * Q
            assert all(q >= 0.0 for q in result.releases)

    def test_safety_flag_matches_capacity(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = random_params(rng)
            d = derive(p)
            n = int(rng.integers(1, 6))
            Q = rng.uniform(0.2, 2.0) * n * d.delta_c
            result = optimal_split(SplitProblem(Q=Q, n=n, params=p))
            assert result.is_safe == (Q <= n * d.delta_c + 1e-12)
            assert result.is_safe == (result.total_exposure == 0.0)

    def test_equal_split_strictly_better_than_perturbations(self, figure_params):
        d = derive(figure_params)
        Q, n = 2.6 * d.delta_c, 2
        base = optimal_split(SplitProblem(Q=Q, n=n, params=figure_params)).total_exposure
        rng = np.random.default_rng(31)
        for _ in range(200):
            shift = rng.uniform(1e-6, 1e-3) * Q
            perturbed = (Q / 2 + shift, Q / 2 - shift)
            total = sum(exposure_closed_form(q, figure_params).value for q in perturbed)
            assert total > base

    def test_invalid_problem_rejected(self, figure_params):
        with pytest.raises(LeakyStageError):
            SplitProblem(Q=0.0, n=3, params=figure_params)
        with pytest.raises(LeakyStageError):
            SplitProblem(Q=1.0, n=0, params=figure_params)


class TestExcessExposure:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10**6, 2**40])
    @pytest.mark.parametrize("x", [1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 9e-5])
    def test_near_kink_matches_mpmath(self, n, x):
        # just past r = n the excess is about n x**2 / 2 with x = r/n - 1, far below
        # the terms that x - log1p(x) subtracts; the switch to the log form is at 1e-4
        pytest.importorskip("mpmath")
        r = n * (1 + x)
        assert excess_exposure(r, n) == pytest.approx(mpmath_excess(r, n), rel=1e-15, abs=0.0)


class TestMinExposure:
    def test_zero_below_capacity(self, figure_params):
        d = derive(figure_params)
        assert min_exposure(2.9 * d.delta_c, 3, figure_params) == 0.0
        assert min_exposure(3.0 * d.delta_c, 3, figure_params) == 0.0

    def test_strictly_decreasing_while_unsafe(self, figure_params):
        d = derive(figure_params)
        Q = 3.7 * d.delta_c
        values = [min_exposure(Q, n, figure_params) for n in range(1, 7)]
        for n in range(1, 6):
            if Q > n * d.delta_c:
                assert values[n] < values[n - 1]
            else:
                assert values[n] == values[n - 1] == 0.0

    def test_matches_per_release_exposure(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            p = random_params(rng)
            d = derive(p)
            n = int(rng.integers(1, 9))
            Q = rng.uniform(0.3, 5.0) * n * d.delta_c
            direct = min_exposure(Q, n, p)
            per_release = n * exposure_closed_form(Q / n, p).value
            assert abs(direct - per_release) <= 1e-12 * max(1.0, per_release)

    @pytest.mark.parametrize("n, overshoot", [(3, 1e-9), (5, 1e-11)])
    def test_near_capacity_matches_mpmath(self, figure_params, n, overshoot):
        # just past the kink the bracket is about cap * x**2 / 2 while the terms
        # it subtracts are about cap, so a direct log difference loses digits
        mpmath = pytest.importorskip("mpmath")
        d = derive(figure_params)
        Q = n * d.delta_c * (1.0 + overshoot)
        cap = n * d.delta_c  # the same double capacity min_exposure uses
        with mpmath.workdps(50):
            q, c = mpmath.mpf(Q), mpmath.mpf(cap)
            scale = mpmath.mpf(d.alpha) / mpmath.mpf(figure_params.rho)
            exact = scale * (q - c - c * mpmath.log(q / c))
            error = abs(mpmath.mpf(min_exposure(Q, n, figure_params)) - exact) / exact
        assert error <= 1e-14


class TestMinimalSafeCount:
    def test_fractional_load(self, figure_params):
        d = derive(figure_params)
        assert minimal_safe_count(2.1 * d.delta_c, figure_params) == 3

    def test_exact_threshold_load(self, figure_params):
        d = derive(figure_params)
        assert minimal_safe_count(d.delta_c, figure_params) == 1
        assert minimal_safe_count(3.0 * d.delta_c, figure_params) == 3

    def test_guard_does_not_swallow_real_excess(self, figure_params):
        d = derive(figure_params)
        assert minimal_safe_count(3.0000000001 * d.delta_c, figure_params) == 4

    def test_covers_load(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = random_params(rng)
            d = derive(p)
            Q = rng.uniform(0.05, 12.0) * d.delta_c
            n = minimal_safe_count(Q, p)
            assert n * d.delta_c >= Q - 1e-9 * Q
            if n > 1:
                assert (n - 1) * d.delta_c < Q

class TestOverheadOptimalCount:
    def test_subcritical_load_needs_one_release(self):
        for k in (0.0, 0.3, 10.0):
            result = overhead_optimal_count(0.8, k)
            assert result.n_star == 1
            assert result.residual_exposure == 0.0
            assert result.is_fully_safe

    def test_zero_overhead_prefers_full_safety(self):
        result = overhead_optimal_count(2.5, 0.0)
        assert result.n_star == 3
        assert result.cost == 0.0
        assert result.is_fully_safe

    def test_large_overhead_prefers_single_release(self):
        result = overhead_optimal_count(2.5, 10.0)
        assert result.n_star == 1
        # 10 + (2.5 - 1 - log 2.5)
        assert result.cost == pytest.approx(10.583709268125844, rel=1e-13)
        assert not result.is_fully_safe

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(43)
        cases = [(rng.uniform(1e-3, 20.0), rng.uniform(0.0, 5.0)) for _ in range(2000)]
        # loads straddling integers, at overheads on and just off the frontier
        for m in range(1, 13):
            for eps in (2.3e-16, 1e-15, 1e-12, 1e-9, 1e-6):
                for r in (m * (1.0 - eps), m * (1.0 + eps)):
                    if math.isfinite(k_safe(r)):
                        cases += [(r, k_safe(r) * (1.0 + s)) for s in (-1e-12, 0.0, 1e-12)]
        for r, k in cases:
            result = overhead_optimal_count(r, k)
            best, argmin, ties = enumerate_overhead(r, k)
            assert result.n_star == argmin
            assert result.cost == pytest.approx(best, rel=1e-12, abs=1e-12)
            # the oracle also lists counts past ceil(r); they cost only n * k, so
            # they tie the safe count when k is below the tie tolerance
            assert result.ties == tuple(n for n in ties if n <= math.ceil(r)), (r, k)

    def test_evaluates_only_the_tie_run_and_its_neighbours(self, monkeypatch):
        counts, calls = set(), []
        excess = allocation._excess

        def counting_excess(r, ns):
            counts.update(ns)
            calls.append(ns)
            return excess(r, ns)

        monkeypatch.setattr(allocation, "_excess", counting_excess)
        rng = np.random.default_rng(41)
        for r, k in [(10.0 ** rng.uniform(0.0, 7.0), rng.uniform(0.0, 3.0)) for _ in range(200)]:
            counts.clear()
            calls.clear()
            result = overhead_optimal_count(r, k)
            assert len(calls) == 1  # the floor and the ceiling in one column
            assert set(result.ties) <= counts
            assert len(counts) <= len(result.ties) + 2
            assert len(counts) <= 2

    def test_large_load_ties_around_relaxed_point(self):
        # the cost is about 3.9e8 here, so the relative tie tolerance admits
        # about 4e-4: the relaxed point's floor and ceiling tie, and n_star is
        # the floor
        relaxed = 1e9 * math.exp(-0.5)
        result = overhead_optimal_count(1e9, 0.5)
        assert {math.floor(relaxed), math.ceil(relaxed)} & set(result.ties)
        assert result.ties == tuple(range(result.n_star, result.ties[-1] + 1))
        assert not result.is_fully_safe

    def test_load_at_the_domain_bound_returns(self):
        # near 1e100 neighbouring counts round to one double, so every cost ties
        result = overhead_optimal_count(1e100, 0.0)
        assert result.ties == (result.n_star,) == (int(1e100),)
        assert result.is_fully_safe

    def test_tie_at_frontier_contains_safe_count(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            r = rng.uniform(1.05, 9.0)
            frontier = k_safe(r)
            if not math.isfinite(frontier):
                continue
            result = overhead_optimal_count(r, frontier)
            assert math.ceil(r) in result.ties
            assert len(result.ties) >= 2


class TestKSafe:
    def test_infinite_for_single_safe_release(self):
        assert k_safe(0.8) == math.inf
        assert k_safe(1.0) == math.inf

    def test_single_candidate_branch(self):
        # only m = 1 competes for loads in (1, 2]
        for r in (1.3, 1.7, 2.0):
            assert k_safe(r) == pytest.approx(r - 1 - math.log(r), rel=1e-13)

    def test_drop_just_past_integer(self):
        assert k_safe(2.0 + 1e-9) < 1e-8

    def test_continuous_within_band_drops_at_integers(self):
        rs = np.linspace(2.05, 2.95, 50)
        vals = [k_safe(float(r)) for r in rs]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 0.05  # smooth within the band
        assert k_safe(2.999) > 100 * k_safe(3.001)  # sawtooth drop

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3.0, 4.0))
    def test_matches_enumeration_over_unsafe_counts(self, log_r):
        r = 10.0**log_r
        assert k_safe(r) == pytest.approx(enumerate_k_safe(r), rel=1e-12)

    def test_large_load_is_last_stage_exposure(self):
        assert k_safe(1e9 + 0.5) == excess_exposure(1e9 + 0.5, 10**9)

    @pytest.mark.parametrize("r", [2.0**53, 1e16, 1e30, 1e100])
    def test_integer_loads_match_mpmath(self, r):
        # from 2**53 on, r / (r - 1) rounds to 1; the excess r - m - m log(r/m) of
        # m = r - 1 is about 1/(2r) and must not collapse to 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(300):  # the log term cancels about 200 digits at 1e100
            m = mpmath.mpf(int(r) - 1)
            expected = float(1 - m * mpmath.log1p(1 / m))
        assert k_safe(r) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [1e12, 1e12 + 0.5, 1e15])
    def test_large_loads_below_2_53_match_mpmath(self, r):
        # at n = ceil(r) - 1 the ratio r / n - 1 is rounded, while r - n is exact
        pytest.importorskip("mpmath")
        n = math.ceil(r) - 1
        assert k_safe(r) == pytest.approx(mpmath_excess(r, n), rel=1e-15, abs=0.0)

    def test_frontier_splits_regimes(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            r = rng.uniform(1.02, 12.0)
            frontier = k_safe(r)
            if not math.isfinite(frontier) or frontier < 2e-9:
                continue
            safe = overhead_optimal_count(r, frontier - 1e-9)
            unsafe = overhead_optimal_count(r, frontier + 1e-9)
            assert safe.is_fully_safe
            assert not unsafe.is_fully_safe


def _kink_loads(rng, count):
    """Loads ``r = m (1 + x)``, ``m`` in [5000, 9800), whose ``k_safe`` count
    ``ceil(r) - 1`` is ``m``, with ``x`` a few ulps or up to 1% from the series switch
    1e-4 on either side, and overheads that put the relaxed count ``r e^-k`` at a count
    whose ``r / n - 1`` lies near it too."""
    loads = []
    for _ in range(count):
        m = int(rng.integers(5000, 9800))
        r = m * (1.0 + 1e-4 * (1.0 + float(rng.uniform(-0.01, 0.01))))
        if rng.random() < 0.5:
            r = m * (1.0 + 1e-4)
            for _ in range(int(rng.integers(0, 4))):
                r = math.nextafter(r, math.inf if rng.random() < 0.5 else 0.0)
        loads.append((r, math.log1p(1e-4 * float(rng.uniform(0.9, 1.1)))))
    return loads


class TestOverheadTable:
    """The overhead table, its optimum and ``k_safe`` against the per-count loop, bit for
    bit: for loads up to 1e5, and across the series switch at ``r/n - 1 = 1e-4``."""

    def test_rows_are_the_per_count_loop(self):
        rng = np.random.default_rng(35)
        draws = [(float(10 ** rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 3.0)))
                 for _ in range(12)]
        params = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}
        for r, k in [(0.5, 0.1), (1.0, 0.0), (2.5, k_safe(2.5)), *draws, *_kink_loads(rng, 4)]:
            config = parse_config({"params": params, "overhead": {"r": r, "k": k}})
            rows = run(config, meta_time=False).payload["rows"]
            assert repr(rows) == repr(overhead_rows_loop(r, k)), (r, k)

    def test_optimum_and_k_safe_are_the_per_count_excess(self):
        rng = np.random.default_rng(36)
        draws = [(float(10 ** rng.uniform(0.0, 5.0)), float(10 ** rng.uniform(-6.0, 1.0)))
                 for _ in range(2000)]
        for r, k in draws + _kink_loads(rng, 2000):
            result = overhead_optimal_count(r, k)
            excess = excess_per_count(r, result.n_star)
            assert repr(result.residual_exposure) == repr(excess), (r, k)
            assert repr(result.cost) == repr(result.n_star * k + excess), (r, k)
            n_safe = max(1, guarded_ceil(r))
            assert repr(k_safe(r)) == repr(excess_per_count(r, n_safe - 1) if n_safe > 1
                                           else math.inf), r
            for n in {result.n_star, *result.ties, n_safe - 1, n_safe} - {0}:
                assert repr(excess_exposure(r, n)) == repr(excess_per_count(r, n)), (r, n)


class TestContinuousRelaxedCount:
    def test_no_overhead_returns_load(self):
        assert continuous_relaxed_count(3.7, 0.0) == 3.7

    def test_log_two(self):
        assert continuous_relaxed_count(4.0, math.log(2.0)) == pytest.approx(2.0, rel=1e-14)

    def test_stationarity(self):
        # d/dn of the relaxed objective is k - log(r / n); zero at the result
        rng = np.random.default_rng(59)
        for _ in range(100):
            r = rng.uniform(1.5, 15.0)
            k = rng.uniform(0.0, math.log(r) * 0.9)
            n = continuous_relaxed_count(r, k)
            assert 0.0 < n < r + 1e-12
            step = 1e-6 * n

            def objective(x):
                return x * k + (r - x - x * math.log(r / x))

            fd = (objective(n + step) - objective(n - step)) / (2 * step)
            assert abs(fd) <= 1e-6

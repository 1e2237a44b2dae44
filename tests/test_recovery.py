import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakystage import (
    UNBOUNDED,
    HorizonRegime,
    LeakyStageError,
    RecoveryConfig,
    capacity_report,
    derive,
    horizon_capacity,
    horizon_feasibility,
    min_peak_plan,
    peak_capacity,
    safe_count_fixed_lambda,
    simulate_recurrence,
    state_peak_plan,
    state_value,
    unequal_spacing_capacity,
)
from util import (
    bellman_descent_3,
    bellman_state_value,
    bellman_tables,
    min_peak_plan_oracle,
    random_params,
    recurrence_peaks,
    simulate_recurrence_oracle,
    state_peak_plan_oracle,
)

LAM1 = math.exp(-1.0)


class TestRecurrence:
    def test_zero_releases_stay_at_zero(self):
        config = RecoveryConfig(lam=0.4, n=4, Q=0.0)
        plan = simulate_recurrence(config, (0.0,) * 4)
        assert plan.post_levels == (0.0,) * 4
        assert plan.peak == 0.0
        assert plan.degenerate

    def test_uniform_split_levels(self):
        # levels in threshold units for r = 2.1 over three stages, lam = 1/e
        config = RecoveryConfig(lam=LAM1, n=3, Q=2.1)
        plan = simulate_recurrence(config, (0.7,) * 3)
        assert plan.post_levels[0] == pytest.approx(0.700, abs=1e-3)
        assert plan.post_levels[1] == pytest.approx(0.958, abs=1e-3)
        assert plan.post_levels[2] == pytest.approx(1.052, abs=1e-3)
        # exact recurrence values
        assert plan.post_levels[1] == pytest.approx(0.7 * (1 + LAM1), rel=1e-14)
        assert plan.post_levels[2] == pytest.approx(0.7 * (1 + LAM1 + LAM1**2), rel=1e-14)
        assert plan.post_levels[2] > 1.0  # the third stage crosses the threshold

    def test_capacity_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            lam = rng.uniform(0.0, 0.999)
            releases = rng.uniform(0.0, 2.0, n)
            config = RecoveryConfig(lam=lam, n=n, Q=float(releases.sum()))
            plan = simulate_recurrence(config, tuple(releases))
            assert abs(plan.capacity_residual) < 1e-12

    def test_length_mismatch_rejected(self):
        config = RecoveryConfig(lam=0.5, n=3, Q=1.0)
        with pytest.raises(LeakyStageError):
            simulate_recurrence(config, (0.5, 0.5))

    def test_negative_release_rejected(self):
        config = RecoveryConfig(lam=0.5, n=2, Q=1.0)
        with pytest.raises(LeakyStageError):
            simulate_recurrence(config, (1.5, -0.5))

    def test_interval_factory_consistent(self):
        config = RecoveryConfig.from_interval(rho=0.5, tau=2.0, n=3, Q=1.0)
        assert abs(-math.log(config.lam) - 1.0) <= 1e-15


class TestPeakCapacity:
    def test_single_release(self):
        assert peak_capacity(1, 0.7) == 1.0

    def test_three_stage_value(self):
        assert peak_capacity(3, LAM1) == pytest.approx(2.264, abs=1e-3)
        assert peak_capacity(3, LAM1) == pytest.approx(1 + 2 * (1 - LAM1), rel=1e-15)

    def test_full_recovery_limit(self):
        assert peak_capacity(5, 0.0) == 5.0

    def test_bad_carry_over_rejected(self):
        with pytest.raises(LeakyStageError):
            peak_capacity(3, 1.0)
        with pytest.raises(LeakyStageError):
            peak_capacity(3, -0.1)


class TestMinPeakPlan:
    def test_worked_example_peak(self, figure_params):
        d = derive(figure_params)
        plan = min_peak_plan(RecoveryConfig(lam=LAM1, n=3, Q=2.1 * d.delta_c))
        assert plan.peak / d.delta_c == pytest.approx(0.928, abs=1e-3)

    def test_full_recovery_reduces_to_equal_split(self):
        plan = min_peak_plan(RecoveryConfig(lam=0.0, n=4, Q=2.0))
        assert plan.releases == (0.5,) * 4

    def test_front_load_ratio(self):
        lam = 0.37
        plan = min_peak_plan(RecoveryConfig(lam=lam, n=5, Q=3.0))
        for q in plan.releases[1:]:
            assert plan.releases[0] / q == pytest.approx(1.0 / (1.0 - lam), rel=1e-12)

    def test_all_levels_equal_peak(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            plan = min_peak_plan(
                RecoveryConfig(lam=rng.uniform(0.0, 0.99), n=n, Q=rng.uniform(0.1, 5.0))
            )
            for level in plan.post_levels:
                assert abs(level - plan.peak) <= 1e-12 * max(1.0, plan.peak)

    def test_random_allocations_never_beat_plan(self):
        rng = np.random.default_rng(71)
        for n, lam, Q in ((3, LAM1, 2.1), (4, 0.4, 2.0), (6, 0.85, 1.2)):
            plan = min_peak_plan(RecoveryConfig(lam=lam, n=n, Q=Q))
            releases = rng.dirichlet(np.ones(n), size=2000) * Q
            peaks = recurrence_peaks(lam, releases)
            assert peaks.min() >= plan.peak - 1e-12

    def test_zero_load_degenerate(self):
        plan = min_peak_plan(RecoveryConfig(lam=0.5, n=3, Q=0.0))
        assert plan.degenerate
        assert plan.peak == 0.0
        assert plan.releases == (0.0,) * 3

    def test_nonzero_start_redirected(self):
        with pytest.raises(LeakyStageError, match="state_peak_plan"):
            min_peak_plan(RecoveryConfig(lam=0.5, n=3, Q=1.0, a0=0.2))


class TestStateValue:
    def test_one_release_left(self):
        assert state_value(1, 0.3, 1.2, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_empty_start_matches_capacity(self):
        assert state_value(4, 0.0, 2.0, 0.25) == pytest.approx(
            2.0 / peak_capacity(4, 0.25), rel=1e-15
        )

    def test_worked_point(self):
        assert state_value(3, 0.5, 1.0, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_complete_relaxation_limit(self):
        # lam = 0 divides the load across the remaining stages
        assert state_value(4, 0.2, 1.0, 0.0) == pytest.approx(0.3, rel=1e-15)

    def test_bellman_grid_recursion_single_point(self):
        # direct grid recursion over the releases at 1e4 points per level
        dp = bellman_descent_3(0.5, 1.0, 0.5)
        assert abs(dp - state_value(3, 0.5, 1.0, 0.5)) <= 1e-4

    def test_bellman_grid_recursion_sweep(self):
        for lam in (0.2, 0.8):
            xs, tables = bellman_tables(lam, 5, nx=2001, n_sigma=513)
            for m in (2, 3, 4, 5):
                for a in (0.0, 0.5, 1.5):
                    for Q in (0.0, 1.0, 2.5):
                        dp = bellman_state_value(xs, tables[m], a, Q)
                        assert abs(dp - state_value(m, a, Q, lam)) <= 1e-3

    def test_state_plan_achieves_value(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            a = rng.uniform(0.0, 2.0)
            Q = rng.uniform(0.0, 3.0)
            lam = rng.uniform(0.0, 0.95)
            plan = state_peak_plan(m, a, Q, lam)
            target = state_value(m, a, Q, lam)
            assert plan.peak == pytest.approx(target, rel=1e-12)
            assert max(plan.post_levels) <= target + 1e-12 * max(1.0, target)
            assert math.fsum(plan.releases) == pytest.approx(Q, abs=1e-9 * max(1.0, Q))


class TestSafeCountFixedLambda:
    def test_subcritical(self, figure_params):
        d = derive(figure_params)
        assert safe_count_fixed_lambda(0.9 * d.delta_c, 0.7, figure_params) == 1

    def test_worked_example(self, figure_params):
        d = derive(figure_params)
        assert safe_count_fixed_lambda(2.1 * d.delta_c, LAM1, figure_params) == 3

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(79)
        for _ in range(2000):
            p = random_params(rng)
            d = derive(p)
            r = rng.uniform(0.05, 15.0)
            lam = rng.uniform(0.0, 0.97)
            got = safe_count_fixed_lambda(r * d.delta_c, lam, p)
            scan = 1
            while peak_capacity(scan, lam) < r * (1 - 1e-12):
                scan += 1
            assert got == scan

    @pytest.mark.parametrize("Q, lam", [(1e308, 0.5), (1e300, 1.0 - 1e-15)])
    def test_overflowing_count_names_Q(self, figure_params, Q, lam):
        # (r - 1) / (1 - lam) is inf: guarded_ceil(inf) used to raise ValueError
        with pytest.raises(LeakyStageError, match=r"total load Q=.* overflows"):
            safe_count_fixed_lambda(Q, lam, figure_params)


class TestHorizonCapacity:
    def test_worked_value(self):
        assert horizon_capacity(3, 2.0) == pytest.approx(2.264, abs=1e-3)

    def test_single_release_flat(self):
        assert horizon_capacity(1, 5.0) == 1.0

    def test_zero_horizon(self):
        for n in (1, 2, 5, 100):
            assert horizon_capacity(n, 0.0) == 1.0

    def test_limit_approach(self):
        assert abs(horizon_capacity(10**6, 2.0) - 3.0) <= 1e-5

    def test_increasing_in_n_below_frontier(self):
        for h in (0.5, 2.0, 4.0):
            values = [horizon_capacity(n, h) for n in range(1, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < 1.0 + h for v in values)


class TestHorizonFeasibility:
    def test_one_release(self):
        verdict = horizon_feasibility(0.9, 2.0)
        assert verdict.regime is HorizonRegime.SAFE_WITH_ONE_RELEASE
        assert verdict.label == "SafeWithOneRelease"

    def test_worked_example(self):
        verdict = horizon_feasibility(2.1, 2.0)
        assert verdict.regime is HorizonRegime.SAFE_WITH_N
        assert verdict.n == 3
        assert verdict.label == "SafeWithN(3)"

    def test_infeasible(self):
        verdict = horizon_feasibility(3.5, 2.0)
        assert verdict.regime is HorizonRegime.INFEASIBLE
        assert verdict.label == "Infeasible"

    def test_supremal_boundary(self):
        verdict = horizon_feasibility(3.0, 2.0)
        assert verdict.regime is HorizonRegime.SUPREMAL_BOUNDARY
        assert verdict.label == "SupremalBoundary"

    def test_returned_count_is_minimal(self):
        rng = np.random.default_rng(83)
        for _ in range(500):
            h = rng.uniform(0.1, 4.0)
            r = rng.uniform(1.0 + 1e-6, 1.0 + h - 1e-6)
            verdict = horizon_feasibility(r, h)
            assert verdict.regime is HorizonRegime.SAFE_WITH_N
            assert horizon_capacity(verdict.n, h) >= r
            assert horizon_capacity(verdict.n - 1, h) < r


    def test_count_past_the_float_range_names_r_and_h(self):
        # the count is about h**2 / (2 (1 + h - r)), some 5e314, and B_n takes
        # n - 1 as a float
        with pytest.raises(LeakyStageError, match=r"r=9\.99999999999999e\+299 .* h=1e\+300"):
            horizon_feasibility(9.99999999999999e299, 1e300)


class TestUnequalSpacing:
    def test_no_gaps_is_one_threshold_unit(self):
        assert unequal_spacing_capacity([], 0.5) == 1.0

    def test_equal_spacing_matches_horizon_capacity(self):
        n, T, rho = 5, 3.0, 0.8
        taus = [T / (n - 1)] * (n - 1)
        assert unequal_spacing_capacity(taus, rho) == pytest.approx(
            horizon_capacity(n, rho * T), rel=1e-14
        )

    def test_two_release_single_gap(self):
        assert unequal_spacing_capacity([3.0], 0.5) == pytest.approx(
            horizon_capacity(2, 1.5), rel=1e-14
        )

    def test_equal_spacing_is_maximal(self):
        rng = np.random.default_rng(89)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            T = rng.uniform(0.5, 5.0)
            rho = rng.uniform(0.2, 2.0)
            gaps = rng.dirichlet(np.ones(n - 1)) * T
            assert (
                unequal_spacing_capacity(gaps, rho)
                <= horizon_capacity(n, rho * T) + 1e-12
            )


class TestCapacityReport:
    def test_worked_configuration(self, figure_params):
        d = derive(figure_params)
        report = capacity_report(figure_params, Q=2.1 * d.delta_c, n=3, lam=LAM1, h=2.0)
        assert report.c_n == pytest.approx(1 + 2 * (1 - LAM1), rel=1e-14)
        assert report.B_n == pytest.approx(horizon_capacity(3, 2.0), rel=1e-14)
        assert report.Q_max_safe == pytest.approx(d.delta_c * report.c_n, rel=1e-14)
        assert report.Q_sup_safe == pytest.approx(d.delta_c * 3.0, rel=1e-14)
        assert report.N_safe_lambda == 3
        assert report.N_safe_horizon == 3

    def test_unbounded_marker(self, figure_params):
        d = derive(figure_params)
        report = capacity_report(figure_params, Q=3.5 * d.delta_c, n=3, lam=LAM1, h=2.0)
        assert report.N_safe_horizon is UNBOUNDED
        assert isinstance(report.N_safe_lambda, int)


def _outcome(function, *args) -> str:
    """The exact text of a result (repr keeps every bit, int/float and -0.0), or of its error."""
    try:
        return repr(function(*args))
    except LeakyStageError as exc:
        return f"{type(exc).__name__}: {exc}"


_LOADS = st.one_of(st.floats(0.0, 60.0), st.integers(0, 60), st.just(-0.0))
_LAMS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(0))


class TestOnePassPlans:
    """The one-pass plans against the two-pass composition they replace (tests/util.py)."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 40), _LOADS, _LOADS, _LAMS)
    def test_state_peak_plan_matches_two_pass_oracle(self, m, a, Q, lam):
        assert _outcome(state_peak_plan, m, a, Q, lam) == \
            _outcome(state_peak_plan_oracle, m, a, Q, lam)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 40), _LOADS, _LAMS, st.sampled_from([0.0, 0, -0.0]))
    def test_min_peak_plan_matches_two_pass_oracle(self, n, Q, lam, a0):
        config = RecoveryConfig(lam=lam, n=n, Q=Q, a0=a0)
        assert _outcome(min_peak_plan, config) == _outcome(min_peak_plan_oracle, config)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_simulate_recurrence_matches_oracle(self, n, data):
        releases = data.draw(st.lists(_LOADS, min_size=n, max_size=n))
        config = RecoveryConfig(lam=data.draw(_LAMS), n=n, Q=1.0, a0=data.draw(_LOADS))
        assert _outcome(simulate_recurrence, config, releases) == \
            _outcome(simulate_recurrence_oracle, config, releases)

    def test_large_plan_matches_two_pass_oracle(self):
        # the benchmark's scale: m = 1e5 releases with a start level that decays away
        args = (100_000, 0.7, 0.9 * 100_000 * (1.0 - 0.35), 0.35)
        assert repr(state_peak_plan(*args)) == repr(state_peak_plan_oracle(*args))
        config = RecoveryConfig(lam=0.35, n=100_000, Q=1234.5)
        assert repr(min_peak_plan(config)) == repr(min_peak_plan_oracle(config))


@st.composite
def _run_plans(draw):
    """Plans long enough for fill runs and decay tails, with start levels on both sides
    of the target, the zero and subnormal carry-overs and the zero and subnormal loads."""
    m = draw(st.integers(1, 3000))
    lam = draw(st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-9, 0.5, 1 - 1e-9])
               | st.floats(0.0, 1.0, exclude_max=True))
    a = draw(st.sampled_from([0, -0.0, 5e-324]) | st.floats(0.0, 2.0))
    # a fill fraction f: the start level dominates for a > f * m / (m - 1)
    Q = draw(st.sampled_from([0, -0.0, 1e-320])
             | st.floats(0.0, 2.0).map(lambda f: f * m * (1.0 - lam)))
    return m, a, Q, lam


class TestPlanRuns:
    """``state_peak_plan`` by runs against the per-stage loop, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_run_plans())
    # two levels that alternate by an ulp through the fill
    @example((118, 0.87, 0.81 * 118 * (1.0 - 0.218), 0.218))
    @example((2660, 0.71, 0.89 * 2660 * (1.0 - 0.422), 0.422))
    # a decay tail that stops at a subnormal level, and the signed zeros
    @example((3000, 5e-324, 0.0, 1 - 1e-9))
    @example((2, -0.0, -0.0, 0))
    @example((50, 0.5, 1.0, -0.0))
    def test_matches_per_stage_oracle(self, args):
        assert _outcome(state_peak_plan, *args) == _outcome(state_peak_plan_oracle, *args)

    @pytest.mark.parametrize("typed", ["a", "Q", "lam", "float"])
    def test_plain_floats_for_any_number_type(self, typed):
        # numpy.float64 and int arguments give the plain floats of float arguments
        args = {"a": 0.2, "Q": 1.0, "lam": 0.5}
        if typed != "float":
            args[typed] = np.float64(args[typed])
        plan = state_peak_plan(40, **args)
        numbers = (*plan.releases, *plan.post_levels, plan.peak,
                   plan.capacity_multiplier, plan.capacity_residual)
        assert {type(x) for x in numbers} == {float}
        assert type(plan.degenerate) is bool
        assert type(state_value(40, **args)) is float
        assert repr(plan) == repr(state_peak_plan(40, 0.2, 1.0, 0.5))
        assert repr(state_peak_plan(40, 0, 1, 0)) == repr(state_peak_plan(40, 0.0, 1.0, 0.0))

    @pytest.mark.parametrize("m", [10**300, 2**62])
    def test_unallocatable_count_raises(self, m):
        with pytest.raises(LeakyStageError, match="remaining release count m"):
            state_peak_plan(m, 0.2, 1.0, 0.5)

import itertools
import math
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakystage import (
    UNBOUNDED,
    HorizonFeasibility,
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
    constant_peak_plan_oracle,
    exact_budget_residual,
    horizon_count_bisected_from_2,
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

    def test_interval_too_short_to_decay_names_rho_and_tau(self):
        # exp(-4e-17) rounds to 1, a carry-over the recurrence does not accept
        with pytest.raises(LeakyStageError, match="recovery rate rho=4.0 and inter-release time "
                           r"tau=1e-17 give a carry-over exp\(-rho\*tau\) that rounds to 1"):
            RecoveryConfig.from_interval(rho=4.0, tau=1e-17, n=3, Q=0.7)


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


    def test_lower_end_keeps_the_count_of_the_bisection_from_2(self):
        # loads near the frontier, counts log-uniform up to 1e15, where the float test stops
        # being monotone in n
        rng = np.random.default_rng(97)
        for _ in range(3000):
            h = float(10.0 ** rng.uniform(-3.0, 9.0))
            n = 10.0 ** rng.uniform(0.3, 15.0)
            r = 1.0 + h - min(h, h * h / (2.0 * n)) * float(rng.uniform(0.3, 1.0))
            verdict = horizon_feasibility(r, h)
            if verdict.regime is HorizonRegime.SAFE_WITH_N:
                assert verdict.n == horizon_count_bisected_from_2(r, h), (r, h)

    @pytest.mark.parametrize("regime, loads", [
        (HorizonRegime.SAFE_WITH_ONE_RELEASE, [(0.9, 2.0), (1.0, 0.0), (1e-300, 1e100)]),
        (HorizonRegime.SUPREMAL_BOUNDARY, [(3.0, 2.0), (1.5, 0.5 + 1e-13), (1e6 + 1.0, 1e6)]),
        (HorizonRegime.INFEASIBLE, [(3.5, 2.0), (1.5, 0.0), (1e100, 3.0)]),
    ], ids=["one-release", "supremal", "infeasible"])
    def test_count_free_verdicts_are_one_shared_record(self, regime, loads):
        verdicts = [horizon_feasibility(r, h) for r, h in loads * 2]
        shared = verdicts[0]
        assert all(verdict is shared for verdict in verdicts)
        fresh = HorizonFeasibility(regime)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert repr(shared) == repr(fresh) == f"HorizonFeasibility(regime={regime!r}, n=None)"
        assert shared.label == fresh.label == regime.value
        with pytest.raises(FrozenInstanceError):
            shared.n = 3
        with pytest.raises(FrozenInstanceError):
            shared.regime = HorizonRegime.SAFE_WITH_N
        with pytest.raises(FrozenInstanceError):
            del shared.n
        assert horizon_feasibility(*loads[0]) == fresh  # the shared record is as it was

    @pytest.mark.parametrize("r, h, n", [
        (2.1, 2.0, 3), (3.99, 3.0, 450), (1.5, 2.0, 2), (1000.999999, 1000.0, 500000000931)])
    def test_counted_verdicts_are_unchanged(self, r, h, n):
        verdict = horizon_feasibility(r, h)
        assert verdict == HorizonFeasibility(HorizonRegime.SAFE_WITH_N, n)
        assert verdict.label == f"SafeWithN({n})"
        assert repr(verdict) == f"HorizonFeasibility(regime={HorizonRegime.SAFE_WITH_N!r}, n={n})"


class TestUnequalSpacing:
    def test_no_gaps_is_one_threshold_unit(self):
        assert unequal_spacing_capacity([], 0.5) == 1.0

    def test_equal_spacing_matches_horizon_capacity(self):
        n, T, rho = 5, 3.0, 0.8
        taus = [T / (n - 1)] * (n - 1)
        assert unequal_spacing_capacity(taus, rho) == pytest.approx(
            horizon_capacity(n, rho * T), rel=1e-14
        )

    @pytest.mark.parametrize("taus, rho, capacity", [
        ([1.0, 2.0], 1e30, 3.0), ([1e100], 2.0, 2.0), ([1e100, 0.0, 1e100], 1e10, 3.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_of_complete_recovery_recovers_one_unit(self, taus, rho, capacity):
        # rho * tau at the domain's bounds: -expm1(-rho * tau) rounds to 1, with no warning
        assert unequal_spacing_capacity(taus, rho) == capacity

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

    def test_load_past_the_bound_names_Q(self, figure_params):
        # Q / delta_c was inf, which the horizon check reported as the load r
        with pytest.raises(LeakyStageError, match=r"^total load Q must be > 0 and <= 1e\+100 "
                           r"\(got 1e\+308\)$"):
            capacity_report(figure_params, 1e308, 3, 0.5, 2.0)

    def test_unbounded_marker(self, figure_params):
        d = derive(figure_params)
        report = capacity_report(figure_params, Q=3.5 * d.delta_c, n=3, lam=LAM1, h=2.0)
        assert report.N_safe_horizon is UNBOUNDED
        assert isinstance(report.N_safe_lambda, int)


def _exact_residual(plan, a0, lam) -> bool:
    """Whether ``plan``'s budget residual is the exact one rounded once, bit for bit."""
    reference = exact_budget_residual(plan.releases, plan.post_levels, a0, lam)
    return repr(plan.capacity_residual) == repr(reference)


class TestDomainBound:
    """Plans and values at the domain's bound, where the sums that passed the float range
    at 1e308 stay finite."""

    def test_min_peak_plan_at_the_bound(self):
        plan = min_peak_plan(RecoveryConfig(0.5, 5, 1e100))
        assert plan.peak == 1e100 / 3.0
        assert plan.releases == (plan.peak,) + (0.5 * plan.peak,) * 4
        assert _exact_residual(plan, 0.0, 0.5)

    def test_decaying_state_plan_at_the_bound(self):
        plan = state_peak_plan(5, 1e100, 0.0, 0.9)
        assert plan.releases == (0.0,) * 5
        assert plan.post_levels[0] == plan.peak == 1e100
        assert _exact_residual(plan, 1e100, 0.9)

    def test_recurrence_at_the_bound(self):
        top = 2.0**332  # a power of two below the bound, so that the levels are exact
        plan = simulate_recurrence(RecoveryConfig(0.5, 3, 1.0), [top] * 3)
        assert plan.post_levels == (top, 1.5 * top, 1.75 * top)
        assert plan.peak == 1.75 * top
        assert _exact_residual(plan, 0.0, 0.5)

    def test_state_value_at_the_bound(self):
        assert state_value(3, 1e100, 1e100, 0.5) == 1e100
        plan = state_peak_plan(3, 1e100, 1e100, 0.5)
        assert plan.peak == max(plan.post_levels) == 1e100
        assert math.fsum(plan.releases) == 1e100


def _outcome(function, *args) -> str:
    """The exact text of a result (repr keeps every bit, int/float and -0.0), or of its error."""
    try:
        return repr(function(*args))
    except LeakyStageError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_constant_peak_plan(m, a, Q, lam):
    """The exact properties of a closed-form plan, and its distance from the recurrence of
    its releases and from the greedy fill."""
    plan = state_peak_plan(m, a, Q, lam)
    assert plan.peak == state_value(m, a, Q, lam)
    assert max(plan.post_levels) == plan.peak
    assert all(q >= 0.0 for q in plan.releases)
    recurrence = simulate_recurrence(RecoveryConfig(lam=lam, n=m, Q=Q, a0=a), plan.releases)
    greedy = state_peak_plan_oracle(m, a, Q, lam)
    tol = 4 * m * sys.float_info.epsilon * max(1.0, Q, a)
    for ours, theirs in ((plan.post_levels, recurrence.post_levels),
                         (plan.releases, greedy.releases), (plan.post_levels, greedy.post_levels)):
        assert max(abs(x - y) for x, y in zip(ours, theirs)) <= tol


_LOADS = st.one_of(st.floats(0.0, 60.0), st.integers(0, 60), st.just(-0.0))
_LAMS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(0))


class TestOnePassPlans:
    """The one-pass plans against the two-pass composition they replace (tests/util.py)."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 40), _LOADS, _LOADS, _LAMS)
    def test_state_peak_plan_matches_two_pass_oracle(self, m, a, Q, lam):
        assert _outcome(state_peak_plan, m, a, Q, lam) == \
            _outcome(constant_peak_plan_oracle, m, a, Q, lam)
        _check_constant_peak_plan(m, a, Q, lam)

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

    @pytest.mark.parametrize("Q", [0.9 * 100_000 * (1.0 - 0.35), 13650.0])
    def test_large_plan_matches_two_pass_oracle(self, Q):
        # the benchmark's scale: m = 1e5 releases with a start level that decays away,
        # and one that dominates, whose levels decay to 69,289 zeros
        args = (100_000, 0.7, Q, 0.35)
        assert repr(state_peak_plan(*args)) == repr(constant_peak_plan_oracle(*args))
        config = RecoveryConfig(lam=0.35, n=100_000, Q=1234.5)
        assert repr(min_peak_plan(config)) == repr(min_peak_plan_oracle(config))

    @pytest.mark.parametrize("lam", [0.0, -0.0, 5e-324, 0.5])
    @pytest.mark.parametrize("a0", [0.0, -0.0, 5e-324])
    def test_zero_levels_keep_the_residual_bits(self, lam, a0):
        # zero levels, signed or not, add nothing to the exact residual
        for releases in itertools.product([0.0, -0.0, 5e-324], repeat=3):
            config = RecoveryConfig(lam=lam, n=3, Q=1.0, a0=a0)
            assert _outcome(simulate_recurrence, config, releases) == \
                _outcome(simulate_recurrence_oracle, config, releases)

    @pytest.mark.parametrize("typed", [int, np.float64])
    def test_min_peak_plan_holds_plain_floats(self, typed):
        plan = min_peak_plan(RecoveryConfig(lam=typed(0), n=40, Q=typed(3)))
        assert repr(plan) == repr(min_peak_plan(RecoveryConfig(lam=0.0, n=40, Q=3.0)))


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


@st.composite
def _edge_plans(draw):
    """Plans at the float edges: the signed zeros, the smallest subnormal, carry-overs at 0
    and within 1e-9 of 0 and 1, and loads a few ulps below k + 1 whole top-ups, whose
    partial top-up rounds to near the start level."""
    m = draw(st.integers(1, 400))
    lam = draw(st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-9, 1 - 1e-9])
               | st.floats(0.0, 1.0, exclude_max=True))
    a = draw(st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-300]) | st.floats(0.0, 2.0))
    step = (1.0 - float(lam)) * float(a)
    Q = (draw(st.integers(0, m)) + 1) * step
    for _ in range(draw(st.integers(0, 3))):
        Q = math.nextafter(Q, 0.0)
    Q = draw(st.sampled_from([Q, 0, -0.0, 5e-324]))
    return m, a, Q, lam


class TestLevelsAtThePeak:
    """No level of a plan lies above its peak, which the largest level equals."""

    @settings(max_examples=300, deadline=None)
    @given(_edge_plans())
    # levels an ulp or two above the peak, where the recurrence settled above it
    @example((1220, 0.1961909317171504, 660.2379826163583, 0.4344880796711648))
    @example((1397, 0.0, 1012.2854405333443, 0.03709543994381185))
    # a partial top-up that lam * a + rest rounds above a
    @example((2870, 0.47912792365904666, 116.20525476116951, 0.43987315372099933))
    def test_no_level_above_the_peak(self, args):
        assert _outcome(state_peak_plan, *args) == _outcome(constant_peak_plan_oracle, *args)
        _check_constant_peak_plan(*args)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400), st.floats(0.0, 1e6), _LAMS)
    def test_min_peak_plan_levels_are_the_peak(self, n, Q, lam):
        plan = min_peak_plan(RecoveryConfig(lam=lam, n=n, Q=Q))
        assert set(plan.post_levels) == {plan.peak}


class TestPlanRuns:
    """``state_peak_plan`` against the per-stage closed form, bit for bit."""

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
        assert _outcome(state_peak_plan, *args) == _outcome(constant_peak_plan_oracle, *args)
        _check_constant_peak_plan(*args)

    def test_start_level_past_the_greedy_tolerance(self):
        # the greedy fill left 5.4e-9 of the load unabsorbed here, an absolute slack
        # of 1e-9 * max(1, Q) against levels near 3.5e4, and raised
        m, a, Q, lam = 1493, 34618.031773854185, 1.3582287989763895, 0.999999999
        plan = state_peak_plan(m, a, Q, lam)
        assert plan.peak == state_value(m, a, Q, lam)
        assert abs(math.fsum(plan.releases) - Q) <= 4 * m * sys.float_info.epsilon * a

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

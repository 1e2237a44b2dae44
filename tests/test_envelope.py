import gc
import json
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import (
    ImpulseSchedule,
    LeakyStageError,
    ModelParams,
    RecoveryConfig,
    ScheduleError,
    balance_jump_residuals,
    derive,
    dominance_tolerance,
    growth_pressure,
    min_peak_plan,
    path_exposure,
    simulate_envelope,
    simulate_full,
    simulate_recurrence,
    verify_balance_identity,
    verify_envelope_dominance,
    verify_log_growth_bound,
)
from leakystage import envelope
from leakystage.cli import main, parse_config, run, to_csv
from util import (
    balance_identity_pieces, path_exposure_loop, random_params, random_schedule, rk4_segment_loop,
)

FIG_SCHEDULE = ImpulseSchedule(
    ((0.0, 0.46), (2.0, 0.24), (4.0, 0.24), (6.0, 0.24), (8.0, 0.24))
)


class TestSchedule:
    def test_total(self):
        assert FIG_SCHEDULE.total == pytest.approx(1.42, rel=1e-14)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ScheduleError):
            ImpulseSchedule(((0.0, 0.1), (0.0, 0.2)))

    def test_negative_size_rejected(self):
        with pytest.raises(ScheduleError):
            ImpulseSchedule(((0.0, -0.1),))

    def test_overflowing_total_rejected(self):
        with pytest.raises(ScheduleError, match="schedule's event sizes must sum below the float"):
            ImpulseSchedule(((0.0, 1e308), (1.0, 1e308)))


class TestSimulateEnvelope:
    def test_single_impulse_decays_exactly(self, figure_params):
        schedule = ImpulseSchedule(((0.0, 0.8),))
        trajectory = simulate_envelope(schedule, figure_params, 6.0, 0.01)
        expected = 0.8 * np.exp(-figure_params.rho * trajectory.t)
        # pre-jump sample at t=0 is the empty reservoir
        assert trajectory.A[0] == 0.0
        assert np.allclose(trajectory.A[1:], expected[1:], rtol=1e-14, atol=1e-15)

    def test_empty_schedule_identically_zero(self, figure_params):
        trajectory = simulate_envelope(ImpulseSchedule(()), figure_params, 5.0, 0.05)
        assert np.all(trajectory.A == 0.0)

    def test_figure_schedule_matches_recurrence(self, figure_params):
        trajectory = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.01)
        post = trajectory.A[trajectory.jump_indices + 1]
        lam = math.exp(-2.0 * figure_params.rho)
        config = RecoveryConfig(lam=lam, n=5, Q=FIG_SCHEDULE.total)
        plan = simulate_recurrence(config, FIG_SCHEDULE.sizes)
        assert np.allclose(post, plan.post_levels, rtol=1e-14, atol=1e-14)

    def test_jump_sizes_recorded_exactly(self, figure_params):
        trajectory = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.1)
        pre = trajectory.A[trajectory.jump_indices]
        post = trajectory.A[trajectory.jump_indices + 1]
        assert np.all(np.abs((post - pre) - trajectory.jump_sizes) <= 1e-12)

    def test_horizon_before_last_event_rejected(self, figure_params):
        with pytest.raises(LeakyStageError):
            simulate_envelope(FIG_SCHEDULE, figure_params, 5.0, 0.01)

    @pytest.mark.parametrize("simulate", [
        lambda schedule, params, T, step: simulate_envelope(schedule, params, T, step),
        lambda schedule, params, T, step: simulate_full(schedule, params, 0.1, 0.0, T, step),
    ], ids=["envelope", "full"])
    def test_unallocatable_step_names_the_step(self, figure_params, simulate):
        # 1e-300 asks for some 1e300 nodes: numpy refuses before allocating anything
        with pytest.raises(LeakyStageError, match=r"step size 1e-300 needs more samples"):
            simulate(FIG_SCHEDULE, figure_params, 8.0, 1e-300)

    @pytest.mark.parametrize("simulate", [
        lambda schedule, params, S0, a0: simulate_envelope(schedule, params, 1.0, 0.5, a0=a0),
        lambda schedule, params, S0, a0: simulate_full(schedule, params, S0, a0, 1.0, 0.5),
    ], ids=["envelope", "full"])
    @pytest.mark.parametrize("events, S0, a0, at", [
        (((0.0, 1e308),), 0.1, 1e308, r"event 0 at t=0\.0"),
        # from S = 0 the level 2e307 takes a step of 1e-300 without overflowing
        (((0.0, 1.0), (1e-300, 1.7e308)), 0.0, 2e307, r"event 1 at t=1e-300"),
    ], ids=["first", "second"])
    def test_release_past_the_float_range_names_the_event(self, figure_params, simulate,
                                                          events, S0, a0, at):
        # the jump's level is inf: both simulators name the event
        with pytest.raises(ScheduleError, match=rf"release of {at} lifts the level past the "
                           "float range"):
            simulate(ImpulseSchedule(events), figure_params, S0, a0)

    def test_recurrence_consistency_random(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            p = random_params(rng)
            tau = rng.uniform(0.3, 2.0)
            n = int(rng.integers(2, 6))
            sizes = rng.uniform(0.0, 1.0, n)
            events = tuple((k * tau, float(q)) for k, q in enumerate(sizes))
            schedule = ImpulseSchedule(events)
            trajectory = simulate_envelope(schedule, p, (n - 1) * tau + 1.0, 0.05)
            post = trajectory.A[trajectory.jump_indices + 1]
            config = RecoveryConfig(lam=math.exp(-p.rho * tau), n=n, Q=float(sizes.sum()))
            plan = simulate_recurrence(config, tuple(sizes))
            assert np.allclose(post, plan.post_levels, rtol=1e-14, atol=1e-14)


class TestSimulateFull:
    def test_zero_start_is_invariant(self, figure_params):
        full = simulate_full(FIG_SCHEDULE, figure_params, 0.0, 0.0, 12.0, 0.01)
        red = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.01)
        assert np.all(full.S == 0.0)
        # with S = 0 the reservoir obeys pure decay, up to RK4 error
        assert np.max(np.abs(full.A - red.A)) <= 1e-10

    @pytest.mark.parametrize("step", [1e-4, 0.1])
    def test_overflowing_release_names_the_release(self, figure_params, step):
        # alpha * A is about 1.2e300: the step it needs is below the spacing of t
        with pytest.raises(LeakyStageError,
                           match=r"level A=1e\+300 at t=0\.0, .* reduce the release"):
            simulate_full(ImpulseSchedule(((0.0, 1e300),)), figure_params, 0.08, 0.0, 2.0, step)

    @pytest.mark.parametrize("loop", [False, True], ids=["unrolled", "loop"])
    def test_level_past_the_stage_sum_names_the_release(self, loop):
        # S = 0 has no drain term: the log S stage sum overflows on alpha * A = 9e307, and
        # -inf + inf is NaN; the release is named, not S0
        params = ModelParams(0.1, 0.9, 1.0, 0.5)
        simulate = _simulate_full_loop if loop else simulate_full
        with pytest.raises(LeakyStageError, match=r"level A=1e\+308 at t=0\.0, whose growth "
                           r"rate alpha \* A no step up to T=1\.0 resolves; reduce the release"):
            simulate(ImpulseSchedule(((0.0, 1e308),)), params, 0.0, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("loop", [False, True], ids=["unrolled", "loop"])
    @pytest.mark.parametrize("events, S0, T, step, verdict", [
        # the step that resolves alpha * A = 2.4e307 lies below the spacing of the times up
        # to T, though not of those up to the second release at 1e-300, which the verdict
        # read as the step's fault
        (((0.0, 2e307), (1e-300, 1.0)), 0.1, 1.0, 0.5,
         r"RK4 overflowed on the level A=2e\+307 at t=0\.0, whose growth rate alpha \* A no "
         r"step up to T=1\.0 resolves; reduce the release$"),
        (((0.0, 2e307),), 0.1, 1.0, 0.5, r"level A=2e\+307 at t=0\.0, .* reduce the release$"),
        # alpha * A * ulp(T) is 4.4e-10 at T = 1e6: a finer step resolves the level
        (((0.0, 3.0),), 0.9, 1e6, 2.5, r"^RK4 overflowed at step 2\.5; reduce the step$"),
        (((0.0, 3.0),), 0.9, 8.0, 2.5, r"^RK4 overflowed at step 2\.5; reduce the step$"),
        (((1.0, 0.5),), 1e308, 2.0, 0.01,
         r"^S0=1e\+308 overflows the RK4 drain \(rho \+ delta\*S\) \* A at the level A=0\.0 "
         r"from t=0\.0 on; reduce S0$"),
    ], ids=["late-release", "release", "coarse-step-long-horizon", "coarse-step", "drain"])
    def test_one_verdict_per_culprit(self, figure_params, loop, events, S0, T, step, verdict):
        # the release if no step up to T resolves its growth rate, S0 if the path turned
        # NaN, else the step; the plain per-stage loop gives the same verdicts
        simulate = _simulate_full_loop if loop else simulate_full
        with pytest.raises(LeakyStageError, match=verdict):
            simulate(ImpulseSchedule(events), figure_params, S0, 0.0, T, step)

    def test_richardson_order_at_least_3_5(self, figure_params):
        terminal = []
        for h in (0.08, 0.04, 0.02):
            full = simulate_full(FIG_SCHEDULE, figure_params, 0.08, 0.0, 12.0, h)
            terminal.append(np.array([full.S[-1], full.A[-1]]))
        d1 = np.abs(terminal[0] - terminal[1]).sum()
        d2 = np.abs(terminal[1] - terminal[2]).sum()
        assert math.log2(d1 / d2) >= 3.5

    def test_nonnegative_and_unclamped(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            p = random_params(rng)
            schedule = random_schedule(rng)
            T = schedule.events[-1][0] + 2.0
            full = simulate_full(schedule, p, float(rng.uniform(0, 0.5)), 0.0, T, 0.02)
            assert full.clamp_count == 0
            assert np.all(full.A >= 0.0)
            assert np.all(full.S >= 0.0)


class TestDominance:
    def test_figure_run(self, figure_params):
        check = verify_envelope_dominance(FIG_SCHEDULE, figure_params, 0.08, 12.0, 0.01)
        assert check.max_violation <= dominance_tolerance(12.0, 0.01)
        assert check.exposure_full <= check.exposure_red + 1e-9

    def test_zero_start_paths_coincide(self, figure_params):
        check = verify_envelope_dominance(FIG_SCHEDULE, figure_params, 0.0, 12.0, 0.01)
        assert abs(check.max_violation) <= 1e-10
        assert check.log_growth is None and check.log_bound is None

    def test_random_sweep(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            p = random_params(rng)
            schedule = random_schedule(rng)
            T = schedule.events[-1][0] + 2.0
            check = verify_envelope_dominance(
                schedule, p, float(rng.uniform(0, 0.5)), T, 0.02
            )
            assert check.max_violation <= dominance_tolerance(T, 0.02)
            assert check.exposure_full <= check.exposure_red + 1e-8

    def test_safe_schedule_keeps_full_system_subcritical(self, figure_params):
        # front-loaded plan with peak below the critical level; the envelope
        # stays below delta_c, so the full-system pressure must stay <= 0
        d = derive(figure_params)
        lam = math.exp(-1.0)
        plan = min_peak_plan(RecoveryConfig(lam=lam, n=3, Q=2.1 * d.delta_c))
        tau = 1.0 / figure_params.rho  # makes exp(-rho tau) = lam
        events = tuple((k * tau, q) for k, q in enumerate(plan.releases))
        schedule = ImpulseSchedule(events)
        T = events[-1][0] + 3.0
        red = simulate_envelope(schedule, figure_params, T, 0.01)
        assert np.max(red.A) <= d.delta_c + 1e-12
        full = simulate_full(schedule, figure_params, 0.08, 0.0, T, 0.01)
        assert np.max(growth_pressure(full.A, figure_params)) <= 1e-12


class TestBalanceIdentity:
    def test_jump_increments(self, figure_params):
        full = simulate_full(FIG_SCHEDULE, figure_params, 0.08, 0.0, 12.0, 0.02)
        assert balance_jump_residuals(full, figure_params).max() <= 1e-12

    def test_interior_residual_second_order(self, figure_params):
        residuals = [
            verify_balance_identity(
                simulate_full(FIG_SCHEDULE, figure_params, 0.08, 0.0, 12.0, h),
                figure_params,
            )
            for h in (0.04, 0.02, 0.01)
        ]
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        assert min(orders) >= 1.9

    def test_zero_activity_reduces_to_reservoir_term(self, figure_params):
        # with S = 0 and no impulses dPhi/dt = -(alpha rho / delta) A; only
        # the finite-difference error remains
        schedule = ImpulseSchedule(((0.0, 0.9),))
        full = simulate_full(schedule, figure_params, 0.0, 0.0, 8.0, 0.01)
        assert verify_balance_identity(full, figure_params) <= 5e-6

    def test_envelope_trajectory_rejected(self, figure_params):
        red = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.1)
        with pytest.raises(LeakyStageError):
            verify_balance_identity(red, figure_params)


class TestLogGrowthBound:
    def test_figure_run_has_positive_slack(self, figure_params):
        full = simulate_full(FIG_SCHEDULE, figure_params, 0.08, 0.0, 12.0, 0.01)
        growth, bound = verify_log_growth_bound(full, figure_params)
        assert growth <= bound + 1e-9
        assert bound > 0.0

    def test_empty_schedule_decays(self, figure_params):
        full = simulate_full(ImpulseSchedule(()), figure_params, 0.2, 0.0, 5.0, 0.01)
        growth, bound = verify_log_growth_bound(full, figure_params)
        assert growth <= 0.0
        assert bound == 0.0

    def test_bound_sharpens_for_small_activity(self, figure_params):
        slacks = []
        for s0 in (1e-3, 1e-6):
            full = simulate_full(FIG_SCHEDULE, figure_params, s0, 0.0, 12.0, 0.01)
            growth, bound = verify_log_growth_bound(full, figure_params)
            assert growth <= bound + 1e-9
            slacks.append((bound - growth) / bound)
        assert slacks[1] < slacks[0]

    def test_zero_start_rejected(self, figure_params):
        full = simulate_full(FIG_SCHEDULE, figure_params, 0.0, 0.0, 12.0, 0.05)
        with pytest.raises(LeakyStageError):
            verify_log_growth_bound(full, figure_params)


    def test_envelope_trajectory_rejected(self, figure_params):
        # an envelope path carries no S samples
        envelope_path = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.05)
        with pytest.raises(LeakyStageError, match="^log-growth checks need a full-system "
                           "trajectory with S samples$"):
            verify_log_growth_bound(envelope_path, figure_params)

class TestImmutability:
    def test_trajectory_samples_read_only(self, figure_params):
        red = simulate_envelope(FIG_SCHEDULE, figure_params, 12.0, 0.1)
        with pytest.raises(ValueError):
            red.A[0] = 5.0
        with pytest.raises(ValueError):
            red.t[0] = -1.0

    def test_model_params_frozen(self, figure_params):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            figure_params.beta = 2.0


class TestPathExposure:
    def test_matches_single_release_closed_form(self, figure_params):
        from leakystage import exposure_closed_form

        schedule = ImpulseSchedule(((0.0, 1.0),))
        # long horizon so the tail above threshold is fully inside
        trajectory = simulate_envelope(schedule, figure_params, 30.0, 0.005)
        numeric = path_exposure(trajectory, figure_params)
        closed = exposure_closed_form(1.0, figure_params).value
        assert numeric == pytest.approx(closed, abs=5e-6)

    def test_total_past_the_float_range_raises(self, figure_params):
        # the pressure at A = 1e308 is about 1.2e308: the sum of two endpoints overflows
        trajectory = simulate_envelope(ImpulseSchedule(((0.0, 1e308),)), figure_params, 1.0, 0.5)
        with pytest.raises(LeakyStageError, match=r"exposure passes the float range \(got inf\)"):
            path_exposure(trajectory, figure_params)


def _simulate_full_loop(*args) -> envelope.Trajectory:
    """``simulate_full`` driven by the plain per-stage RK4 loop of ``tests/util``.

    It runs past the memo of the last result, which it neither reads nor fills.
    """
    with mock.patch.object(envelope, "_rk4_segment", rk4_segment_loop), \
            mock.patch.object(envelope, "_last_full", (None, lambda: None)):
        return simulate_full(*args)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestLoopOracles:
    """The unrolled RK4 and the vectorised trapezoid equal the plain loops bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, -1.0),
        st.booleans(),
    )
    def test_full_and_envelope_paths(self, seed, log_step, zero_start):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        schedule = random_schedule(rng)
        T = schedule.events[-1][0] + 2.0
        step = 10.0**log_step
        S0 = 0.0 if zero_start else float(rng.uniform(1e-3, 0.5))
        full = simulate_full(schedule, p, S0, 0.0, T, step)
        oracle = _simulate_full_loop(schedule, p, S0, 0.0, T, step)
        for name in ("t", "A", "S", "jump_indices", "jump_sizes"):
            assert _same_bits(getattr(full, name), getattr(oracle, name)), name
        assert full.clamp_count == oracle.clamp_count
        red = simulate_envelope(schedule, p, T, step)
        assert _same_bits(red.t, full.t) and _same_bits(red.jump_indices, full.jump_indices)
        for trajectory in (full, red):
            value = path_exposure(trajectory, p)
            expected = path_exposure_loop(trajectory, p)
            assert value == expected
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-2.5, -1.0),
        st.sampled_from(["random", "event at 0", "event at T", "empty"]),
        st.booleans(),
    )
    def test_layout_and_balance_identity(self, seed, log_step, edge, zero_start):
        # both simulators lay out the same samples; the masked balance check
        # equals the piece-by-piece loop
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        events = random_schedule(rng).events
        if edge == "event at 0":
            events = ((0.0, 0.5),) + tuple(e for e in events if e[0] > 0.0)
        elif edge == "empty":
            events = ()
        schedule = ImpulseSchedule(events)
        T = (events[-1][0] if events else 3.0) + (0.0 if edge == "event at T" else 2.0)
        step = 10.0**log_step
        S0 = 0.0 if zero_start else float(rng.uniform(1e-3, 0.5))
        full = simulate_full(schedule, p, S0, 0.0, T, step)
        red = simulate_envelope(schedule, p, T, step)
        assert _same_bits(red.t, full.t) and _same_bits(red.jump_indices, full.jump_indices)
        value, expected = verify_balance_identity(full, p), balance_identity_pieces(full, p)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("events, T, interior", [
        ((), 0.0, False), (((0.0, 0.4),), 0.0, False), (((0.0, 0.4),), 0.05, False),
        (((0.0, 0.4), (0.3, 0.2)), 0.3, True),
    ], ids=["one-sample", "jump-only", "one-node", "event-at-T"])
    def test_short_paths(self, figure_params, events, T, interior):
        # a path with no sample between two others of its smooth piece has no defect
        schedule = ImpulseSchedule(events)
        full = simulate_full(schedule, figure_params, 0.1, 0.0, T, 0.1)
        red = simulate_envelope(schedule, figure_params, T, 0.1)
        assert _same_bits(red.t, full.t) and _same_bits(red.jump_indices, full.jump_indices)
        value = verify_balance_identity(full, figure_params)
        assert value == balance_identity_pieces(full, figure_params)
        assert (value > 0.0) == interior

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-30.0, 1.0) | st.just(-math.inf),
        st.floats(0.0, 5.0),
        st.floats(0.0, 10.0),
        st.floats(1e-3, 3.0),
        st.floats(1e-3, 0.5),
        st.integers(0, 2**32 - 1),
    )
    def test_segment(self, u, A, t0, width, h_step, seed):
        p = random_params(np.random.default_rng(seed))
        args = (u, A, t0, t0 + width, h_step, p)
        try:
            expected = rk4_segment_loop(*args)
        except OverflowError:  # a step far too coarse for the rates: both overflow
            with pytest.raises(OverflowError):
                envelope._rk4_segment(*args)
            return
        nodes, *samples = envelope._rk4_segment(*args)
        assert _same_bits(nodes, np.array(expected[0])) and samples == list(expected[1:])

    # Rows through both RK4 branches: a segment that starts at a zero level (either
    # sign) integrates log S alone, one with a level the sign-free drain.  The last
    # column says what the oracle's path must show, so that each row covers its case; an
    # "error" row's drain overflows, where a NaN path gives way to the error naming S0.
    @pytest.mark.parametrize("events, S0, A0, T, step, shows", [
        (((1.0, 0.5),), 0.08, 0.0, 3.0, 0.01, "empty stretch"),
        (((1.0, 0.5),), 0.08, -0.0, 3.0, 0.01, "empty stretch"),
        (((1.0, 0.5),), 0.08, 0.3, 3.0, 0.01, "no empty stretch"),
        (((1.0, 0.5),), 0.0, 0.0, 3.0, 0.01, "empty stretch"),
        (((1.0, 0.5),), 0.0, 0.3, 3.0, 0.01, "no empty stretch"),
        (((0.0, 0.5), (1.0, 0.2)), 0.08, 0.0, 3.0, 0.01, "no empty stretch"),
        ((), 0.08, 0.0, 3.0, 0.01, "empty stretch"),
        ((), 0.08, -0.0, 3.0, 0.01, "empty stretch"),
        (((0.5, 3.0),), 0.5, 0.0, 4.0, 1.2, "clamp"),
        (((0.5, 1e-320),), 0.5, 0.0, 60.0, 1.0, "underflow"),
        ((), 1e308, 0.0, 2.0, 0.01, "error"),
        ((), 1.7e308, -0.0, 2.0, 0.01, "error"),
        (((1.0, 0.5),), 1e308, 0.0, 2.0, 0.01, "error"),
        (((1.0, 0.5),), 1e308, 0.5, 2.0, 0.01, "error"),
        ((), 9e307, 0.0, 2.0, 0.01, "empty stretch"),
    ], ids=["A0=+0", "A0=-0", "A0>0", "S0=0", "S0=0-A0>0", "release-at-0", "empty", "empty-A0=-0",
            "clamp", "underflow", "drain-overflow", "drain-overflow-A0=-0",
            "drain-overflow-then-release", "drain-overflow-A0>0", "drain-finite"])
    def test_rk4_branches(self, figure_params, events, S0, A0, T, step, shows):
        args = (ImpulseSchedule(events), figure_params, S0, A0, T, step)
        if shows == "error":
            # the loop's first segment turns NaN where the drain overflows: both paths name S0
            end = events[0][0] if events else T
            samples = rk4_segment_loop(math.log(S0), A0, 0.0, end, step, figure_params)[1:3]
            assert math.isnan(samples[0][-1]) or math.isnan(samples[1][-1])
            for simulate in (simulate_full, _simulate_full_loop):
                with pytest.raises(LeakyStageError, match=r"S0=(1|1\.7)e\+308 overflows the RK4 "
                                   r"drain \(rho \+ delta\*S\) \* A"):
                    simulate(*args)
            return
        full, oracle = simulate_full(*args), _simulate_full_loop(*args)
        for name in ("t", "A", "S", "jump_indices", "jump_sizes"):
            assert _same_bits(getattr(full, name), getattr(oracle, name)), name
        assert full.clamp_count == oracle.clamp_count
        first = oracle.jump_indices[0] if events else len(oracle.t) - 1
        assert not np.isnan(oracle.A).any()
        if shows == "empty stretch":
            assert first > 0 and not np.any(oracle.A[:first + 1])
        elif shows == "no empty stretch":
            assert first == 0 or oracle.A[0] > 0.0
        elif shows == "clamp":
            assert oracle.clamp_count == 1 and first > 0
        elif shows == "underflow":  # the level reaches zero inside a segment, unclamped
            assert oracle.A[first + 2] > 0.0 and oracle.A[-1] == 0.0 and oracle.clamp_count == 0

    @pytest.mark.parametrize("u", [-math.inf, -2.0, math.log(1e308), math.log(1.7e308)])
    @pytest.mark.parametrize("A", [0.0, -0.0, 5e-324, 0.3])
    def test_segment_bytes(self, figure_params, u, A):
        # the bytes of every sample, signed zeros and NaN included
        args = (u, A, 0.5, 2.0, 0.01, figure_params)
        _, *samples, clamped = envelope._rk4_segment(*args)
        _, *expected, expected_clamped = rk4_segment_loop(*args)
        assert clamped == expected_clamped
        for got, want in zip(samples, expected):
            assert np.array(got).tobytes() == np.array(want).tobytes()

    # g(A) = A - 0.5 at these rates, so the pressure is exactly zero at A = 0.5
    @pytest.mark.parametrize("t, A, jumps", [
        ((0.0, 1.0), (0.0, 1.0), ()),
        ((0.0, 1.0, 2.0, 3.0, 4.0), (0.5, 0.8, 0.5, 0.2, 0.5), ()),
        ((0.0, 0.5, 1.5, 2.0, 3.0), (0.2, 0.9, 0.1, 0.7, 0.3), ()),
        ((0.0, 1.0, 1.0, 2.0), (0.1, 0.05, 0.9, 0.3), (1,)),
        ((0.0, 1.0, 1.0, 2.0, 2.0, 3.0), (0.9, 0.4, 0.7, 0.3, 0.6, 0.2), (1, 3)),
        ((0.0,), (0.7,), ()),
    ], ids=["one-crossing", "zero-at-ends", "up-and-down", "after-jump", "zero-width", "one-sample"])
    def test_crossings_by_hand(self, t, A, jumps):
        p = ModelParams(beta=0.5, mu=1.0, delta=1.5, rho=0.5)
        trajectory = envelope.Trajectory(
            t=np.array(t), A=np.array(A), S=None,
            jump_indices=np.array(jumps, dtype=int), jump_sizes=np.ones(len(jumps)),
        )
        value, expected = path_exposure(trajectory, p), path_exposure_loop(trajectory, p)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        if t == (0.0, 1.0):  # crosses at t = 0.5 and rises to 0.5 at t = 1
            assert value == 0.125

    def test_empty_schedule_decays_through_threshold(self, figure_params):
        red = simulate_envelope(ImpulseSchedule(()), figure_params, 4.0, 0.03, a0=0.6)
        value = path_exposure(red, figure_params)
        assert value > 0.0
        assert np.float64(value).tobytes() == \
            np.float64(path_exposure_loop(red, figure_params)).tobytes()

    def test_one_sample_path_has_zero_exposure(self, figure_params):
        red = simulate_envelope(ImpulseSchedule(()), figure_params, 0.0, 0.1)
        assert len(red.t) == 1
        assert path_exposure(red, figure_params) == path_exposure_loop(red, figure_params) == 0.0

    def test_dominance_reuses_full_exposure(self, figure_params):
        with mock.patch.object(envelope, "path_exposure", wraps=envelope.path_exposure) as spy:
            check = verify_envelope_dominance(FIG_SCHEDULE, figure_params, 0.08, 12.0, 0.01)
        assert spy.call_count == 2
        full = simulate_full(FIG_SCHEDULE, figure_params, 0.08, 0.0, 12.0, 0.01)
        assert (check.log_growth, check.log_bound) == verify_log_growth_bound(full, figure_params)
        assert check.log_bound == check.exposure_full


class TestMemo:
    """A repeated call returns the live result of the previous call for the same bits only."""

    ARGS = (FIG_SCHEDULE, 0.08, 0.0, 12.0, 0.01)  # schedule, S0, A0, T, step

    @staticmethod
    def _variant(name, schedule, p, S0, T, step):
        """The arguments of a call that differs from ``(schedule, p, S0, 0.0, T, step)``."""
        if name == "A0 -0.0":
            return schedule, p, S0, -0.0, T, step
        if name == "size -0.0":
            (t, _), *rest = schedule.events
            return ImpulseSchedule(((t, -0.0), *rest)), p, S0, 0.0, T, step
        if name == "int A0":
            return schedule, p, S0, 0, T, step
        if name == "float64 params":
            return schedule, type(p)(*map(np.float64, p._values())), S0, 0.0, T, step
        return schedule, p, S0, 0.0, T, math.nextafter(step, math.inf)  # "step ulp"

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["A0 -0.0", "size -0.0", "int A0", "float64 params", "step ulp"]),
        st.booleans(),
    )
    def test_near_identical_inputs_integrate_again(self, seed, variant, zero_start):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        schedule = random_schedule(rng)
        T = schedule.events[-1][0] + 2.0
        S0 = 0.0 if zero_start else float(rng.uniform(1e-3, 0.5))
        step = 10.0 ** float(rng.uniform(-2.5, -1.5))
        primed = simulate_full(schedule, p, S0, 0.0, T, step)
        args = self._variant(variant, schedule, p, S0, T, step)
        full, oracle = simulate_full(*args), _simulate_full_loop(*args)
        assert full is not primed
        for name in ("t", "A", "S", "jump_indices", "jump_sizes"):
            assert _same_bits(getattr(full, name), getattr(oracle, name)), name
        assert full.clamp_count == oracle.clamp_count

    @pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0)])
    def test_one_sample_path_keeps_the_start_type(self, figure_params, first, second):
        # an int start on a path with no node gives an int column, as without the memo
        empty = ImpulseSchedule(())
        primed = simulate_full(empty, figure_params, 0.1, first, 0.0, 0.1)
        full = simulate_full(empty, figure_params, 0.1, second, 0.0, 0.1)
        oracle = _simulate_full_loop(empty, figure_params, 0.1, second, 0.0, 0.1)
        assert full is not primed and _same_bits(full.A, oracle.A)

    def test_live_result_is_returned_again(self, figure_params):
        schedule, S0, A0, T, step = self.ARGS
        args = (schedule, figure_params, S0, A0, T, step)
        with mock.patch.object(envelope, "_rk4_segment", wraps=envelope._rk4_segment) as spy:
            first = simulate_full(*args)
            segments = spy.call_count
            assert segments == len(schedule.events)
            assert simulate_full(*args) is first
            assert spy.call_count == segments
            alive = weakref.ref(first)
            del first
            gc.collect()
            assert alive() is None  # the memo holds no reference
            again = simulate_full(*args)
            assert spy.call_count == 2 * segments
        oracle = _simulate_full_loop(*args)
        for name in ("t", "A", "S", "jump_indices", "jump_sizes"):
            assert _same_bits(getattr(again, name), getattr(oracle, name)), name

    def test_loop_oracle_runs_past_the_memo(self, figure_params):
        schedule, S0, A0, T, step = self.ARGS
        args = (schedule, figure_params, S0, A0, T, step)
        first = simulate_full(*args)
        assert _simulate_full_loop(*args) is not first
        assert simulate_full(*args) is first

    def test_writeable_result_is_not_returned(self, figure_params):
        schedule, S0, A0, T, step = self.ARGS
        args = (schedule, figure_params, S0, A0, T, step)
        first = simulate_full(*args)
        first.A.setflags(write=True)
        first.A[1] = 5.0
        again = simulate_full(*args)
        assert again is not first and not again.A.flags.writeable
        assert _same_bits(again.A, _simulate_full_loop(*args).A)

    def test_dominance_reuses_the_live_full_path(self, figure_params):
        schedule, S0, _, T, step = self.ARGS
        full = simulate_full(schedule, figure_params, S0, 0.0, T, step)
        with mock.patch.object(envelope, "_rk4_segment", wraps=envelope._rk4_segment) as spy:
            check = verify_envelope_dominance(schedule, figure_params, S0, T, step)
        assert spy.call_count == 0
        del full
        gc.collect()
        with mock.patch.object(envelope, "_rk4_segment", wraps=envelope._rk4_segment) as spy:
            fresh = verify_envelope_dominance(schedule, figure_params, S0, T, step)
        assert spy.call_count == len(schedule.events)
        assert repr(check) == repr(fresh)


class TestClamp:
    """A coarse step drives the integrated reservoir negative once."""

    CASE = (ImpulseSchedule(((0.0, 3.0),)), 0.5, 4.0, 1.0)  # schedule, S0, T, step

    def test_clamped_samples_match_oracle(self, figure_params):
        schedule, S0, T, step = self.CASE
        full = simulate_full(schedule, figure_params, S0, 0.0, T, step)
        oracle = _simulate_full_loop(schedule, figure_params, S0, 0.0, T, step)
        assert full.clamp_count == oracle.clamp_count == 1
        assert _same_bits(full.A, oracle.A) and _same_bits(full.S, oracle.S)
        clamped = np.flatnonzero(full.A == 0.0)
        assert clamped.size > 1  # the start sample and the clamped node
        assert np.array_equal(clamped, np.flatnonzero(oracle.A == 0.0))

    def test_cli_warns(self, tmp_path, capsys):
        schedule, S0, T, step = self.CASE
        block = {"schedule": [list(e) for e in schedule.events], "S0": S0, "T": T, "step": step}
        document = {"params": {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5},
                    "simulate": block}
        result = run(parse_config(document), meta_time=False)
        warning = "1 negative reservoir excursions clamped; reduce the step"
        assert result.warnings == (warning,)
        assert f"# warning={warning}" in to_csv(result).splitlines()
        path = tmp_path / "clamp.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--no-meta-time"]) == 0
        assert f"warning: {warning}" in capsys.readouterr().err

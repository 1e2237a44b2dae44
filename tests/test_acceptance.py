"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and within its stated runtime
budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time

import numpy as np
import pytest

from leakystage import (
    ImpulseSchedule,
    ModelParams,
    RecoveryConfig,
    SplitProblem,
    derive,
    dominance_tolerance,
    exposure_closed_form,
    horizon_capacity,
    horizon_feasibility,
    HorizonRegime,
    k_safe,
    min_peak_plan,
    optimal_split,
    overhead_optimal_count,
    panel_c_comparison,
    simulate_full,
    state_value,
    verify_balance_identity,
    verify_envelope_dominance,
    verify_log_growth_bound,
)
from leakystage.cli import main
from leakystage.presets import PRESETS
from util import (
    bellman_state_value,
    bellman_tables,
    enumerate_overhead,
    exposure_quadrature,
    grid_min_split_2,
    grid_min_split_3,
    random_params,
    random_schedule,
    recurrence_peaks,
)

FIGURE = ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=0.5)
FIG_SCHEDULE = ImpulseSchedule(
    ((0.0, 0.46), (2.0, 0.24), (4.0, 0.24), (6.0, 0.24), (8.0, 0.24))
)


def _report(number: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit:.0f}s): {detail}")
    assert elapsed < limit


def test_acceptance_1_panel_c_reproduction():
    start = time.perf_counter()
    tables = panel_c_comparison(r=2.1, n=3, h=2.0)
    uniform = [level for _, _, level in tables.uniform_levels]
    assert uniform[0] == pytest.approx(0.700, abs=1e-3)
    assert uniform[1] == pytest.approx(0.958, abs=1e-3)
    assert uniform[2] == pytest.approx(1.052, abs=1e-3)
    assert uniform[2] > 1.0
    front = [level for _, _, level in tables.front_levels]
    assert all(level == pytest.approx(0.928, abs=1e-3) for level in front)
    b3 = horizon_capacity(3, 2.0)
    assert b3 == pytest.approx(2.264, abs=1e-3)
    d = derive(FIGURE)
    plan = min_peak_plan(RecoveryConfig(lam=math.exp(-1.0), n=3, Q=2.1 * d.delta_c))
    assert plan.peak / d.delta_c == pytest.approx(0.928, abs=1e-3)
    _report(
        1,
        time.perf_counter() - start,
        1.0,
        f"uniform levels {[round(u, 3) for u in uniform]}, "
        f"front peak {front[0]:.3f}, B_3(2) {b3:.3f}",
    )


def test_acceptance_2_exposure_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    plateau_checked = 0
    for _ in range(1000):
        params = random_params(rng)
        d = derive(params)
        q = float(rng.uniform(0.0, 3.0)) * d.delta_c
        closed = exposure_closed_form(q, params).value
        quad = exposure_quadrature(q, params, tol=1e-11)
        if q <= d.delta_c:
            assert closed == 0.0 and quad == 0.0
            plateau_checked += 1
        else:
            worst = max(worst, abs(closed - quad) / max(1.0, closed))
    assert worst <= 1e-8
    assert plateau_checked > 100
    _report(
        2,
        time.perf_counter() - start,
        10.0,
        f"worst relative defect {worst:.2e}, {plateau_checked} exact plateau zeros",
    )


def test_acceptance_3_jensen_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_gap = -math.inf
    for _ in range(100):
        params = random_params(rng)
        d = derive(params)
        # two releases: 1e5+1 grid candidates
        Q2 = float(rng.uniform(2.0, 6.0)) * d.delta_c
        claim = optimal_split(SplitProblem(Q=Q2, n=2, params=params)).total_exposure
        grid_min, arg, spacing = grid_min_split_2(params, Q2, 100_001)
        assert claim <= grid_min + 1e-6
        worst_gap = max(worst_gap, claim - grid_min)
        assert abs(arg - Q2 / 2) <= spacing + 1e-12
        # three releases: ~1e5 simplex candidates
        Q3 = float(rng.uniform(3.0, 8.0)) * d.delta_c
        claim3 = optimal_split(SplitProblem(Q=Q3, n=3, params=params)).total_exposure
        grid_min3, args3, spacing3 = grid_min_split_3(params, Q3, 450)
        assert claim3 <= grid_min3 + 1e-6
        worst_gap = max(worst_gap, claim3 - grid_min3)
        assert max(abs(q - Q3 / 3) for q in args3) <= spacing3 + 1e-12
    _report(
        3,
        time.perf_counter() - start,
        60.0,
        f"closed form never above grid minimum (worst gap {worst_gap:.2e})",
    )


def test_acceptance_4_overhead_enumeration_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        r = float(rng.uniform(1e-6, 20.0))
        k = float(rng.uniform(0.0, 5.0))
        result = overhead_optimal_count(r, k)
        best, argmin, _ = enumerate_overhead(r, k)
        assert result.n_star == argmin
        assert result.cost == pytest.approx(best, rel=1e-12, abs=1e-12)
    flips = 0
    while flips < 300:
        r = float(rng.uniform(1.0001, 20.0))
        frontier = k_safe(r)
        if not math.isfinite(frontier) or frontier < 2e-9:
            continue
        below = overhead_optimal_count(r, frontier - 1e-9)
        above = overhead_optimal_count(r, frontier + 1e-9)
        assert below.is_fully_safe and below.n_star == math.ceil(r)
        assert not above.is_fully_safe and above.n_star < math.ceil(r)
        flips += 1
    _report(
        4,
        time.perf_counter() - start,
        10.0,
        f"10000 enumerations agree; regime flips exactly at k_safe for {flips} loads",
    )


def test_acceptance_5_peak_plan_and_bellman():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for n, lam, Q in ((3, math.exp(-1.0), 0.7), (5, 0.35, 2.4), (8, 0.8, 1.1)):
        plan = min_peak_plan(RecoveryConfig(lam=lam, n=n, Q=Q))
        releases = rng.dirichlet(np.ones(n), size=10_000) * Q
        peaks = recurrence_peaks(lam, releases)
        assert peaks.min() >= plan.peak - 1e-12
    worst = 0.0
    for lam in (0.2, 0.5, 0.8):
        xs, tables = bellman_tables(lam, 5)
        for m in range(1, 6):
            for a in np.linspace(0.0, 2.0, 9):
                for Q in np.linspace(0.0, 3.0, 11):
                    dp = bellman_state_value(xs, tables[m], float(a), float(Q))
                    gap = abs(dp - state_value(m, float(a), float(Q), lam))
                    worst = max(worst, gap)
    assert worst <= 1e-3
    _report(
        5,
        time.perf_counter() - start,
        60.0,
        f"no sampled plan beats the closed-form peak; Bellman grid gap {worst:.2e}",
    )


def test_acceptance_6_envelope_dominance():
    start = time.perf_counter()
    check = verify_envelope_dominance(FIG_SCHEDULE, FIGURE, 0.08, 12.0, 0.01)
    assert check.max_violation <= dominance_tolerance(12.0, 0.01)
    assert check.exposure_full <= check.exposure_red + 1e-9
    rng = np.random.default_rng(606)
    worst = -math.inf
    for _ in range(100):
        params = random_params(rng)
        schedule = random_schedule(rng)
        T = schedule.events[-1][0] + 2.0
        h_step = 0.02
        check = verify_envelope_dominance(
            schedule, params, float(rng.uniform(0.0, 0.5)), T, h_step
        )
        assert check.max_violation <= dominance_tolerance(T, h_step)
        assert check.exposure_full <= check.exposure_red + 1e-8
        worst = max(worst, check.max_violation)
    _report(
        6,
        time.perf_counter() - start,
        60.0,
        f"dominance holds on the reference run and 100 random cases "
        f"(worst defect {worst:.2e})",
    )


def test_acceptance_7_balance_and_log_growth():
    start = time.perf_counter()
    d = derive(FIGURE)
    ratio = d.alpha / FIGURE.delta
    # jump increments of the balance functional
    full = simulate_full(FIG_SCHEDULE, FIGURE, 0.08, 0.0, 12.0, 0.02)
    phi = full.S + ratio * full.A
    idx = full.jump_indices
    jump_defect = np.abs((phi[idx + 1] - phi[idx]) - ratio * full.jump_sizes).max()
    assert jump_defect <= 1e-12
    # interior residual at fixed times common to all three grids
    fixed = [0.52, 1.0, 2.52, 3.0, 5.0, 7.0, 9.0, 11.0]
    residuals = []
    for h in (0.04, 0.02, 0.01):
        run = simulate_full(FIG_SCHEDULE, FIGURE, 0.08, 0.0, 12.0, h)
        phi = run.S + ratio * run.A
        rhs = -d.gamma * run.S - FIGURE.beta * run.S**2 - ratio * FIGURE.rho * run.A
        worst = 0.0
        for tstar in fixed:
            i = int(np.argmin(np.abs(run.t - tstar)))
            dphi = (phi[i + 1] - phi[i - 1]) / (run.t[i + 1] - run.t[i - 1])
            worst = max(worst, abs(dphi - rhs[i]))
        residuals.append(worst)
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 2.0 - 1e-3
    # the max-over-grid residual from the library converges as well
    library_orders = []
    prev = None
    for h in (0.04, 0.02, 0.01):
        value = verify_balance_identity(
            simulate_full(FIG_SCHEDULE, FIGURE, 0.08, 0.0, 12.0, h), FIGURE
        )
        if prev is not None:
            library_orders.append(math.log2(prev / value))
        prev = value
    assert min(library_orders) >= 1.9
    # log growth bounded by integrated positive pressure on every tested run
    rng = np.random.default_rng(707)
    runs = 0
    for _ in range(30):
        params = random_params(rng)
        schedule = random_schedule(rng)
        T = schedule.events[-1][0] + 2.0
        full = simulate_full(schedule, params, float(rng.uniform(1e-3, 0.5)), 0.0, T, 0.02)
        growth, bound = verify_log_growth_bound(full, params)
        assert growth <= bound + 1e-9
        runs += 1
    _report(
        7,
        time.perf_counter() - start,
        30.0,
        f"jump defect {jump_defect:.1e}; residual order {min(orders):.4f}; "
        f"log-growth bound held on {runs + 1} runs",
    )


def test_acceptance_8_horizon_frontier():
    start = time.perf_counter()
    for h in (0.5, 2.0, 3.5):
        values = [horizon_capacity(n, h) for n in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 + h for v in values[1:])
    assert abs(horizon_capacity(10**6, 2.0) - 3.0) <= 1e-5
    misclassified = 0
    checked = 0
    for r in np.linspace(0.05, 4.0, 200):
        for h in np.linspace(0.0, 2.5, 200):
            r, h = float(r), float(h)
            if abs(r - (1.0 + h)) <= 1e-9:  # skip the eps_thr band
                continue
            verdict = horizon_feasibility(r, h)
            checked += 1
            if r <= 1.0:
                ok = verdict.regime is HorizonRegime.SAFE_WITH_ONE_RELEASE
            elif r > 1.0 + h:
                ok = verdict.regime is HorizonRegime.INFEASIBLE
            else:
                ok = (
                    verdict.regime is HorizonRegime.SAFE_WITH_N
                    and horizon_capacity(verdict.n, h) >= r
                    and horizon_capacity(verdict.n - 1, h) < r
                )
            misclassified += 0 if ok else 1
    assert misclassified == 0
    _report(
        8,
        time.perf_counter() - start,
        30.0,
        f"monotone capacities; limit within 1e-5; {checked} grid cells classified "
        "with zero errors",
    )


def test_acceptance_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    for name, document in PRESETS.items():
        command = next(key for key in document if key != "params")
        outputs = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}-{attempt}.csv"
            code = main([command, "--preset", name, "--out", str(out), "--no-meta-time"])
            assert code == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"preset {name} not byte-identical"
    _report(
        9,
        time.perf_counter() - start,
        60.0,
        f"{len(PRESETS)} presets byte-identical across consecutive runs",
    )

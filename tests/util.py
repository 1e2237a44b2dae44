"""Shared helpers for the test suite: random instances and brute-force oracles.

The oracles here are deliberately independent of the closed forms they check:
adaptive quadrature of the single-release exposure (two routes), the masked
whole-array exposure batch, grid/simplex searches for the allocation optimum, a
one-dimensional Bellman grid recursion for the minimax peak value, plain
enumeration for the overhead trade-off and its frontier ``k_safe`` (with a
50-digit optimum where r is too large to enumerate), the horizon count, the two
capacities, the minimal peak and the single-release exposure at 50 digits, numpy's
``linspace`` for the phase grids, the run layer's tables row by row (the exposure
table size by size, the overhead table count by count with its window of counts
spelled as a rule, the capacity curves point by point), the plain per-step loops of
the envelope integrator and path exposure, the piece-by-piece balance check, the
per-stage peak plans with their budget residual in exact rationals and the greedy
per-stage fill, the per-cell CSV and ``json.dumps`` emit path for the CLI's output
bytes, and frozen dataclasses for the package's records.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from leakystage import (
    EPS_THR,
    ImpulseSchedule,
    LeakyStageError,
    ModelParams,
    PeakPlan,
    RecoveryConfig,
    ScheduleError,
    derive,
    excess_exposure,
    exposure_batch,
    growth_pressure,
    k_safe,
    normalized_factor,
    overhead_optimal_count,
    peak_capacity,
    state_value,
)
from leakystage.envelope import Trajectory, _segment_nodes
from leakystage.exposure import _onset, exposure_bracket
from leakystage.model import _number, guarded_ceil
from leakystage.recovery import _deficit_fits


def random_params(rng: np.random.Generator) -> ModelParams:
    """A random rate set in the shock-sensitive regime."""
    beta = rng.uniform(0.05, 1.5)
    mu = beta + rng.uniform(0.02, 1.5)
    delta = mu + rng.uniform(0.02, 2.0)
    return ModelParams(beta=beta, mu=mu, delta=delta, rho=rng.uniform(0.1, 3.0))


def random_schedule(
    rng: np.random.Generator, t_max: float = 6.0, max_events: int = 5, max_size: float = 1.0
) -> ImpulseSchedule:
    count = int(rng.integers(1, max_events + 1))
    times = np.unique(np.round(np.sort(rng.uniform(0.0, t_max, count)), 6))
    sizes = rng.uniform(0.0, max_size, len(times))
    return ImpulseSchedule(tuple((float(t), float(q)) for t, q in zip(times, sizes)))


# ---------------------------------------------------------------------------
# exposure oracles
#
# scipy is imported inside these two functions, so that callers of the other
# helpers (the benchmark harness imports this module too) do not load it.


def _active_time(q: float, delta_c: float, rho: float) -> float:
    """End ``log(q / delta_c) / rho`` of the active window of a release above threshold."""
    return math.log1p((q - delta_c) / delta_c) / rho


def exposure_quadrature(
    q: float, params: ModelParams, tol: float = 1e-10, *, eps_thr: float = EPS_THR
) -> float:
    """Exposure by adaptive quadrature of the growth pressure along the path.

    Integrates ``g(q e^{-rho t})`` over the analytically known active window
    ``[0, t_q]`` only, where the integrand is smooth and positive, so the
    positive-part kink never enters the quadrature.  Independent of the
    closed form; agrees with it to the requested relative tolerance.
    """
    if tol <= 0.0:
        raise LeakyStageError(f"tolerance must be > 0 (got {tol!r})")
    if q < 0.0:
        raise LeakyStageError(f"release size must be >= 0 (got {q!r})")
    d = derive(params)
    if q <= d.delta_c + eps_thr:
        return 0.0  # empty active window
    from scipy.integrate import quad

    t_q = _active_time(q, d.delta_c, params.rho)
    value, _ = quad(
        lambda t: growth_pressure(q * math.exp(-params.rho * t), params),
        0.0,
        t_q,
        epsabs=0.0,
        epsrel=tol,
        limit=200,
    )
    return value


def exposure_spectral_form(
    q: float, params: ModelParams, tol: float = 1e-10, *, eps_thr: float = EPS_THR
) -> float:
    """Exposure via the normalised growth factor: ``mu * int [R - 1]_+ dt``.

    Evaluates the excess of ``R(q e^{-rho t})`` above 1 on the active window
    numerically.  Because ``g = mu (R - 1)`` this must agree with the closed
    form; the route through ``R`` is kept separate on purpose.
    """
    if tol <= 0.0:
        raise LeakyStageError(f"tolerance must be > 0 (got {tol!r})")
    if q < 0.0:
        raise LeakyStageError(f"release size must be >= 0 (got {q!r})")
    d = derive(params)
    if q <= d.delta_c + eps_thr:
        return 0.0  # R <= 1 along the whole path
    from scipy.integrate import quad

    t_q = _active_time(q, d.delta_c, params.rho)
    value, _ = quad(
        lambda t: normalized_factor(q * math.exp(-params.rho * t), params) - 1.0,
        0.0,
        t_q,
        epsabs=0.0,
        epsrel=tol,
        limit=200,
    )
    return params.mu * value


def exposure_batch_masked(q, params: ModelParams, *, eps_thr: float = EPS_THR) -> np.ndarray:
    """The masked whole-array ``exposure_batch``: the active entries gathered,
    their brackets formed in full-length temporaries and scattered back.
    The blocked kernel runs the same operations in the same order and must
    give the same bits."""
    from leakystage.exposure import _SERIES_SWITCH
    from leakystage.model import _number, _numbers

    q = _numbers(q, "release sizes")
    d = derive(params)
    out = np.zeros_like(q)
    active = q > d.delta_c + _number(eps_thr, "tolerance eps_thr")
    qa = q[active]
    bracket = qa - d.delta_c - d.delta_c * (np.log(qa) - math.log(d.delta_c))
    onset = np.flatnonzero(qa < d.delta_c * (1.0 + _SERIES_SWITCH))
    x = (qa[onset] - d.delta_c) / d.delta_c
    bracket[onset] = d.delta_c * x * x * _onset(x)
    out[active] = (d.alpha / params.rho) * bracket
    return out


# ---------------------------------------------------------------------------
# allocation oracles


def grid_min_split_2(params: ModelParams, Q: float, n_points: int):
    """Brute-force the two-way split on a uniform grid.

    Returns (min total exposure, argmin first release, grid spacing).
    """
    q1 = np.linspace(0.0, Q, n_points)
    total = exposure_batch(q1, params) + exposure_batch(np.clip(Q - q1, 0.0, None), params)
    i = int(np.argmin(total))
    return float(total[i]), float(q1[i]), Q / (n_points - 1)


def grid_min_split_3(params: ModelParams, Q: float, m: int):
    """Brute-force the three-way split on a triangular simplex grid.

    ``m`` is the subdivisions per edge; the candidate count is about m^2/2.
    Returns (min total exposure, argmin releases, edge spacing).
    """
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    keep = (i + j) <= m
    q1 = Q * i[keep] / m
    q2 = Q * j[keep] / m
    q3 = np.clip(Q - q1 - q2, 0.0, None)
    total = (
        exposure_batch(q1, params)
        + exposure_batch(q2, params)
        + exposure_batch(q3, params)
    )
    best = int(np.argmin(total))
    args = (float(q1[best]), float(q2[best]), float(q3[best]))
    return float(total[best]), args, Q / m


def enumerate_overhead(r: float, k: float, extra: int = 3):
    """Exhaustive overhead minimisation over {1, ..., ceil(r) + extra}.

    Returns (best cost, argmin, all ties within 1e-12 relative).  The extra
    candidates confirm that counts beyond the safe one never win.
    """

    def cost(n: int) -> float:
        excess = 0.0 if r <= n else r - n - n * math.log(r / n)
        return n * k + excess

    top = math.ceil(r) + extra
    costs = {n: cost(n) for n in range(1, top + 1)}
    best = min(costs.values())
    ties = [n for n, c in costs.items() if c <= best + 1e-12 * max(1.0, best)]
    return best, ties[0], ties


def mpmath_excess(r: float, n: int) -> float:
    """The excess ``r - n - n log(r/n)`` of load ``r`` over ``n`` releases at 50
    digits, rounded once to a float; it needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        R, N = mpmath.mpf(r), mpmath.mpf(n)
        return float(R - N - N * mpmath.log(R / N)) if R > N else 0.0


def mpmath_exposure(q: float, params: ModelParams):
    """The exposure value ``alpha/rho (q - delta_c - delta_c log(q/delta_c))`` and active
    duration ``log(q/delta_c)/rho`` of one release ``q > delta_c`` at 50 digits, as mpmath
    numbers, not rounded to floats.  It takes ``alpha`` and ``delta_c`` as the floats
    :func:`~leakystage.model.derive` gives, so it measures the closed form from them on;
    it needs mpmath."""
    import mpmath

    d = derive(params)
    with mpmath.workdps(50):
        Q, C = mpmath.mpf(q), mpmath.mpf(d.delta_c)
        log_ratio = mpmath.log(Q / C)
        rho = mpmath.mpf(params.rho)
        return mpmath.mpf(d.alpha) / rho * (Q - C - C * log_ratio), log_ratio / rho


def mpmath_deficit_excess(r: float, h: float, n: int) -> float:
    """``(D_n - gap) / gap`` at 50 digits, rounded once to a float: how far the capacity
    deficit ``D_n = 1 + h - B_n(h) = (n-1)(x + expm1(-x))``, ``x = h/(n-1)``, of ``n >= 2``
    releases exceeds ``gap = 1 + h - r``; ``n`` reaches ``r`` where it is ``<= 0``.  It
    needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        R, H, m = mpmath.mpf(r), mpmath.mpf(h), mpmath.mpf(n - 1)
        gap = 1 + H - R
        return float((m * (H / m + mpmath.expm1(-H / m)) - gap) / gap)


def mpmath_horizon_count(r: float, h: float) -> int:
    """The smallest ``n >= 2`` whose capacity ``B_n(h)`` reaches ``1 < r < 1 + h`` at 50
    digits: a bisection on :func:`mpmath_deficit_excess` below the closed-form bound
    ``n - 1 <= h**2 / (2 (1 + h - r))``; it needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        H = mpmath.mpf(h)
        lo, hi = 2, 2 + int(mpmath.floor(H * H / (2 * (1 + H - mpmath.mpf(r)))))
    while lo < hi:
        mid = (lo + hi) // 2
        if mpmath_deficit_excess(r, h, mid) <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return hi


def horizon_count_bisected_from_2(r: float, h: float) -> int:
    """The count of ``horizon_feasibility``'s float deficit test bisected on
    ``[2, 2 + h**2 / (2 gap)]``, spelled apart from it: the production bracket, which no
    tighter lower end may change."""
    gap = math.fsum((1.0, h, -r))
    lo, hi = 2, 2 + int(h / gap * h / 2.0)
    while lo < hi:
        mid = (lo + hi) // 2
        if _deficit_fits(mid, h, gap):
            hi = mid
        else:
            lo = mid + 1
    return hi


def mpmath_horizon_capacity(n: int, h: float):
    """``B_n(h) = 1 - (n-1) expm1(-h/(n-1))``, ``B_1 = 1``, at 50 digits as an mpmath number,
    not rounded to a float; it needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        m = mpmath.mpf(n - 1)
        return 1 - m * mpmath.expm1(-mpmath.mpf(h) / m) if n > 1 else mpmath.mpf(1)


def mpmath_peak_capacity(n: int, lam: float):
    """``c_n(lam) = 1 + (n-1)(1 - lam)`` at 50 digits as an mpmath number; it needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        return 1 + (n - 1) * (1 - mpmath.mpf(lam))


def mpmath_state_value(m: int, a: float, Q: float, lam: float):
    """The minimal peak ``max(a, (a + Q) / c_m(lam))`` at 50 digits as an mpmath number; it
    needs mpmath."""
    import mpmath

    with mpmath.workdps(50):
        A = mpmath.mpf(a)
        return max(A, (A + mpmath.mpf(Q)) / mpmath_peak_capacity(m, lam))


def mpmath_overhead_optimum(r: float, k: float) -> int:
    """The cost-optimal overhead count at 50 digits: the cheaper of the floor and
    the ceiling of ``r * e^{-k}`` (at least 1), the smaller on an exact tie.

    Where enumeration is too long (large r), this checks the floor/ceiling rule
    against a cost free of float rounding; it needs mpmath.
    """
    import mpmath

    with mpmath.workdps(50):
        R, K = mpmath.mpf(r), mpmath.mpf(k)

        def cost(n: int):
            n = mpmath.mpf(n)
            return n * K + (R - n - n * mpmath.log(R / n) if R > n else 0)

        low = max(1, int(mpmath.floor(R * mpmath.exp(-K))))
        return min((low, low + 1), key=cost)


def enumerate_k_safe(r: float) -> float:
    """The frontier ``k_safe(r)`` as a minimum over every unsafe count.

    Minimises the exposure removed per extra stage, ``excess(r, m) /
    (ceil(r) - m)``, over all ``m < ceil(r)``; the closed form keeps only
    ``m = ceil(r) - 1``.  ``+inf`` when one release is already safe.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise LeakyStageError(f"dimensionless load r must be finite and > 0 (got {r!r})")
    n_safe = max(1, guarded_ceil(r))
    if n_safe <= 1:
        return math.inf
    return min(excess_exposure(r, m) / (n_safe - m) for m in range(1, n_safe))


# ---------------------------------------------------------------------------
# minimax peak oracles


def recurrence_peaks(lam: float, releases: np.ndarray, a0: float = 0.0) -> np.ndarray:
    """Peaks of the post-release recurrence for a (trials, n) release matrix."""
    level = np.full(releases.shape[0], a0, dtype=float) + releases[:, 0]
    peak = level.copy()
    for k in range(1, releases.shape[1]):
        level = lam * level + releases[:, k]
        np.maximum(peak, level, out=peak)
    return peak


def bellman_tables(lam: float, m_max: int, nx: int = 4001, n_sigma: int = 1025):
    """Value tables of the scaled minimax recursion on an x-grid.

    The peak value scales linearly when (a, Q) are scaled together, so with
    tau = a + Q and x = a / tau the recursion collapses to one dimension:

        w_1(x) = 1
        w_m(x) = min_{sigma in [x, 1]} max(sigma, tau'(sigma) w_{m-1}(x'(sigma)))

    with tau'(sigma) = 1 - (1 - lam) sigma and x' = lam sigma / tau'(sigma)
    (sigma is the next post-release level over tau).  The inner objective is
    convex in sigma (the continuation is a perspective composition of the
    previous convex value), so a coarse scan plus bracketed refinement finds
    the global minimum.
    """
    xs = np.linspace(0.0, 1.0, nx)
    tables = {1: np.ones(nx)}
    for m in range(2, m_max + 1):
        tables[m] = _bellman_level(xs, tables[m - 1], lam, n_sigma)
    return xs, tables


def _bellman_level(
    xs: np.ndarray, w_prev: np.ndarray, lam: float, n_sigma: int, refine: int = 3
) -> np.ndarray:
    rows = np.arange(len(xs))
    u = np.linspace(0.0, 1.0, n_sigma)
    sigma = xs[:, None] + u[None, :] * (1.0 - xs)[:, None]
    taup = 1.0 - (1.0 - lam) * sigma
    objective = np.maximum(sigma, taup * np.interp(lam * sigma / taup, xs, w_prev))
    idx = np.argmin(objective, axis=1)
    best = objective[rows, idx]
    lo = sigma[rows, np.clip(idx - 1, 0, n_sigma - 1)]
    hi = sigma[rows, np.clip(idx + 1, 0, n_sigma - 1)]
    for _ in range(refine):
        sub = np.linspace(0.0, 1.0, 65)
        s = lo[:, None] + sub[None, :] * (hi - lo)[:, None]
        taup = 1.0 - (1.0 - lam) * s
        objective = np.maximum(s, taup * np.interp(lam * s / taup, xs, w_prev))
        j = np.argmin(objective, axis=1)
        best = np.minimum(best, objective[rows, j])
        lo = s[rows, np.clip(j - 1, 0, 64)]
        hi = s[rows, np.clip(j + 1, 0, 64)]
    return best


def bellman_state_value(xs: np.ndarray, table: np.ndarray, a: float, Q: float) -> float:
    tau = a + Q
    if tau == 0.0:
        return 0.0
    return tau * float(np.interp(a / tau, xs, table))


def bellman_descent_3(
    a: float, Q: float, lam: float, n_grid: int = 10_001, chunk: int = 200
) -> float:
    """Three-stage minimax value by direct grid recursion over the releases.

    Minimises over (q1, q2) on n_grid-point grids with the exact one-stage
    value at the bottom; memory is kept flat by chunking the outer grid.
    """
    u = np.linspace(0.0, 1.0, n_grid)
    q1 = Q * u
    A1 = a + q1
    R1 = Q - q1
    best = math.inf
    for start in range(0, n_grid, chunk):
        A1c = A1[start : start + chunk, None]
        R1c = R1[start : start + chunk, None]
        q2 = R1c * u[None, :]
        A2 = lam * A1c + q2
        H1 = lam * A2 + (R1c - q2)  # one release left: absorb the remainder
        H2 = np.min(np.maximum(A2, H1), axis=1)
        best = min(best, float(np.max([A1[start : start + chunk], H2], axis=0).min()))
    return best


# ---------------------------------------------------------------------------
# peak-plan oracles
#
# Every plan oracle sums the budget residual in exact rationals
# (``exact_budget_residual``) and rounds it once, as the package does.
# ``simulate_recurrence_oracle`` runs the checked recurrence and assembles the
# ``PeakPlan`` in a second pass.  ``min_peak_plan_oracle`` and
# ``constant_peak_plan_oracle`` write the closed-form plans one stage at a time,
# levels included; the package writes them in runs and must give the same bits.
# ``state_peak_plan_oracle`` is the greedy per-stage fill that ``state_peak_plan``
# used to replay bit for bit; it now checks the closed-form plan to within rounding.


def exact_budget_residual(releases, levels, a0: float, lam: float) -> float:
    """The defect ``sum(q) - A_n + a0 - (1 - lam) * sum(A_k, k < n)`` of the budget
    identity in exact rationals over the floats, rounded once."""
    def total(values):  # the repeated values of a plan add up as multiples
        return sum(Fraction(x) * count for x, count in Counter(values).items())

    return float(total(releases) - Fraction(levels[-1]) + Fraction(a0)
                 - (1 - Fraction(lam)) * total(levels[:-1]))


def simulate_recurrence_oracle(config: RecoveryConfig, releases) -> PeakPlan:
    releases = tuple(float(q) for q in releases)
    if len(releases) != config.n:
        raise ScheduleError(
            f"expected {config.n} releases, got {len(releases)}"
        )
    for j, q in enumerate(releases):
        if not (math.isfinite(q) and q >= 0.0):
            raise ScheduleError(f"release {j + 1} must be finite and >= 0 (got {q!r})")
    levels = []
    level = config.a0
    for q in releases:
        level = config.lam * level + q if levels else config.a0 + q
        levels.append(level)
    return PeakPlan(
        releases=releases,
        post_levels=tuple(levels),
        peak=max(levels) if levels else config.a0,
        capacity_multiplier=peak_capacity(config.n, config.lam),
        capacity_residual=exact_budget_residual(releases, levels, config.a0, config.lam),
        degenerate=math.fsum(releases) == 0.0,
    )


def min_peak_plan_oracle(config: RecoveryConfig) -> PeakPlan:
    if config.a0 != 0.0:
        raise LeakyStageError(
            "min_peak_plan assumes an empty start (a0 = 0); use state_peak_plan for a0 > 0"
        )
    if config.Q == 0.0:
        zeros = (0.0,) * config.n
        return PeakPlan(
            releases=zeros,
            post_levels=zeros,
            peak=0.0,
            capacity_multiplier=peak_capacity(config.n, config.lam),
            capacity_residual=0.0,
            degenerate=True,
        )
    peak = config.Q / peak_capacity(config.n, config.lam)
    releases = (peak,) + ((1.0 - config.lam) * peak,) * (config.n - 1)
    levels = (peak,) * config.n
    return PeakPlan(
        releases=releases,
        post_levels=levels,
        peak=peak,
        capacity_multiplier=peak_capacity(config.n, config.lam),
        capacity_residual=exact_budget_residual(releases, levels, 0.0, config.lam),
    )


def state_peak_plan_oracle(m: int, a: float, Q: float, lam: float) -> PeakPlan:
    target = state_value(m, a, Q, lam)
    releases = []
    level = a
    remaining = Q
    for k in range(m):
        decayed = lam * level if k else a
        q = min(remaining, max(0.0, target - decayed))
        releases.append(q)
        level = decayed + q
        remaining -= q
    if remaining > 1e-9 * max(1.0, Q):
        raise LeakyStageError(
            f"greedy fill left {remaining!r} of the load unabsorbed; target peak inconsistent"
        )
    config = RecoveryConfig(lam=lam, n=m, Q=Q, a0=a)
    plan = simulate_recurrence_oracle(config, tuple(releases))
    return PeakPlan(
        releases=plan.releases,
        post_levels=plan.post_levels,
        peak=target,
        capacity_multiplier=plan.capacity_multiplier,
        capacity_residual=plan.capacity_residual,
        degenerate=Q == 0.0,
    )


def constant_peak_plan_oracle(m: int, a: float, Q: float, lam: float) -> PeakPlan:
    """``state_peak_plan`` one stage at a time, from the closed-form definition.

    With the fill peak ``(a + Q) / c_m`` at least ``a``, the first release lifts
    the level to it and each later one tops up ``step = (1 - lam) * peak``, and
    every level is the peak.  When the start dominates, the peak is ``a``:
    nothing is released first, then ``step`` for each of the
    ``k = min(m - 2, Q // step)`` whole top-ups of the load, at level ``a``, then
    what is left, at ``lam * a`` plus that but never above ``a``, then nothing,
    while the level decays by ``lam`` a stage.
    """
    target = state_value(m, a, Q, lam)
    a, Q, lam = float(a), float(Q), float(lam) + 0.0
    capacity = peak_capacity(m, lam)
    fill = (a + Q) / capacity
    step = (1.0 - lam) * target + 0.0
    k = int(min(m - 2, Q // step)) if step else 0
    releases, levels = [], []
    for stage in range(m):
        if a <= fill:
            q, level = (target - a if stage == 0 else step), target + 0.0
        elif stage <= k:
            q, level = (0.0 if stage == 0 else step), a
        elif stage == k + 1:
            q = max(0.0, Q - k * step)
            level = min(a, lam * a + q)
        else:
            q, level = 0.0, lam * level
        releases.append(q)
        levels.append(level)
    return PeakPlan(
        releases=tuple(releases),
        post_levels=tuple(levels),
        peak=target,
        capacity_multiplier=capacity,
        capacity_residual=exact_budget_residual(releases, levels, a, lam),
        degenerate=Q == 0.0,
    )


# ---------------------------------------------------------------------------
# run-layer row oracles
#
# The loops that the column kernels ``exposure._releases``, ``allocation._excess`` and
# ``recovery._horizon_capacity`` replace: one size, count or horizon at a time, each
# size checked before its row is formed.  The kernels must match them bit for bit and
# raise the same text at the same first index.


def exposure_table_loop(sizes, params: ModelParams, *, eps_thr: float = EPS_THR):
    """``exposure_table`` size by size: each size checked and its row formed (a float
    subclass valued as a float), so the first bad size raises, naming its index as
    ``sizes[i]``."""
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    delta_c, scale = d.delta_c, d.alpha / rho
    rows = []
    for i, given in enumerate(sizes):
        q = _number(given, f"release size sizes[{i}]")
        q = float(q) if isinstance(q, float) else q
        if q <= delta_c + eps_thr:
            value = derivative = duration = 0.0
        else:
            value = scale * exposure_bracket(q, delta_c)
            derivative = scale * (1.0 - delta_c / q)
            duration = math.log1p((q - delta_c) / delta_c) / rho
        rows.append([given, value, derivative, duration])
    return rows


def excess_per_count(r: float, n: int) -> float:
    """The excess ``r - n - n log(r/n)`` of a checked load and count, one count per call,
    by the series of ``exposure_bracket`` below the kink ``r/n - 1 < 1e-4``.  A load from
    2**53 on is an integer, taken as one: ``r - n`` is exact, and the series' own
    ``x = (r - n)/n`` and ``r / n`` are rounded once."""
    if r <= n:
        return 0.0
    if r >= 2.0**53:
        load = int(r)
        if load / n - 1.0 < 1e-4:
            x = (load - n) / n
            return n * x * x * _onset(x)
        return load - n - n * (math.log(load) - math.log(n))
    if r / n - 1.0 < 1e-4:
        return exposure_bracket(r, n)
    return r - n - n * (math.log(r) - math.log(n))


def overhead_rows_loop(r: float, k: float, counts=None) -> list[list]:
    """The overhead table at every count: ``[n, cost, excess, is_tie, is_n_star, n_star,
    k_safe]`` for ``n = 1 .. ceil r``, or for each of ``counts`` when given, each excess by
    :func:`excess_per_count`.  The CLI prints the rows at the counts of
    :func:`overhead_window`."""
    result, frontier = overhead_optimal_count(r, k), k_safe(r)
    rows = []
    for n in counts or range(1, max(1, guarded_ceil(r)) + 1):
        residual = excess_per_count(r, n)
        rows.append([n, n * k + residual, residual, n in result.ties, n == result.n_star,
                     result.n_star, frontier])
    return rows


def overhead_window(r: float, n_star: int) -> list[int]:
    """The counts the CLI's overhead table lists, by its rule as stated: each ``n`` in
    ``[1, ceil r]`` with ``n <= 3``, ``|n - n_star| <= 3`` or ``n >= ceil r - 3``,
    ascending.  Such a count lies within 3 of 1, ``n_star`` or ``ceil r``, so only those
    are tried."""
    n_safe = max(1, guarded_ceil(r))
    near = {anchor + step for anchor in (1, n_star, n_safe) for step in range(-3, 4)}
    return sorted(n for n in near
                  if 1 <= n <= n_safe and (n <= 3 or abs(n - n_star) <= 3 or n >= n_safe - 3))


def horizon_capacity_per_point(n: int, h: float) -> float:
    """``B_n(h) = 1 - (n - 1) expm1(-h / (n - 1))`` of a checked count and horizon, one
    point per call."""
    if n == 1:
        return 1.0
    return 1.0 - (n - 1) * math.expm1(-h / (n - 1))


# ---------------------------------------------------------------------------
# phase grid oracle


def linspace_oracle(lo: float, hi: float, count: int, endpoint: bool = True) -> np.ndarray:
    """The grid ``phase._linspace`` must reproduce bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, count, endpoint=endpoint)


# ---------------------------------------------------------------------------
# envelope oracles
#
# The straightforward loops that ``envelope._rk4_segment``,
# ``envelope.path_exposure`` and ``envelope.verify_balance_identity`` replace:
# one call of ``deriv`` per RK4 stage, one trapezoid interval at a time, and one
# smooth piece between jumps at a time.  The production code must match them
# bit for bit.


def rk4_segment_loop(
    u: float, A: float, t0: float, t1: float, h_step: float, params: ModelParams
) -> tuple[list[float], list[float], list[float], int]:
    """Advance (log S, A) over [t0, t1] with fixed-step RK4; return node samples."""
    beta, mu, delta, rho = params.beta, params.mu, params.delta, params.rho
    alpha = delta - beta

    def deriv(u_: float, A_: float) -> tuple[float, float]:
        s = math.exp(u_)
        return (beta - mu) - beta * s + alpha * A_, -(rho + delta * s) * A_

    nodes = _segment_nodes(t0, t1, h_step)
    h = (t1 - t0) / len(nodes)
    ts: list[float] = []
    us: list[float] = []
    As: list[float] = []
    clamped = 0
    for node in nodes:
        du1, dA1 = deriv(u, A)
        du2, dA2 = deriv(u + 0.5 * h * du1, A + 0.5 * h * dA1)
        du3, dA3 = deriv(u + 0.5 * h * du2, A + 0.5 * h * dA2)
        du4, dA4 = deriv(u + h * du3, A + h * dA3)
        u = u + (h / 6.0) * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
        A = A + (h / 6.0) * (dA1 + 2.0 * dA2 + 2.0 * dA3 + dA4)
        if A < 0.0:
            A = 0.0
            clamped += 1
        ts.append(float(node))
        us.append(u)
        As.append(A)
    return ts, us, As, clamped


def balance_identity_pieces(trajectory: Trajectory, params: ModelParams) -> float:
    """Max defect of the balance dissipation identity, one smooth piece at a time.

    The path is split at its jumps into index ranges ``[start, end]``; inside
    each, ``Phi = S + (alpha/delta) A`` is differentiated by central differences
    and compared with ``-gamma S - beta S^2 - (alpha rho / delta) A``.
    """
    d = derive(params)
    ratio = d.alpha / params.delta
    t, S, A = trajectory.t, trajectory.S, trajectory.A
    phi = S + ratio * A
    rhs = -d.gamma * S - params.beta * S**2 - ratio * params.rho * A
    pieces = []
    start = 0
    for b in sorted(int(i) for i in trajectory.jump_indices):
        pieces.append((start, b))
        start = b + 1
    pieces.append((start, len(t) - 1))
    worst = 0.0
    for start, end in pieces:
        if end - start < 2:
            continue
        inner = slice(start + 1, end)
        dphi = (phi[start + 2 : end + 1] - phi[start : end - 1]) / (
            t[start + 2 : end + 1] - t[start : end - 1]
        )
        worst = max(worst, float(np.max(np.abs(dphi - rhs[inner]))))
    return worst


def path_exposure_loop(trajectory: Trajectory, params: ModelParams) -> float:
    """Integral of the positive growth pressure along a sampled path.

    Composite trapezoid with kink refinement: where the pressure changes
    sign inside a sample interval, the crossing time is inserted as a
    breakpoint by linear interpolation.  Duplicated jump samples contribute
    nothing (zero width).
    """
    t = trajectory.t
    g = growth_pressure(trajectory.A, params)
    total = 0.0
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        if dt <= 0.0:
            continue
        gi, gj = g[i], g[i + 1]
        if gi >= 0.0 and gj >= 0.0:
            total += 0.5 * (gi + gj) * dt
        elif gi <= 0.0 and gj <= 0.0:
            continue
        else:
            # one endpoint active: split at the threshold crossing
            t_cross = t[i] + dt * gi / (gi - gj)
            if gi > 0.0:
                total += 0.5 * gi * (t_cross - t[i])
            else:
                total += 0.5 * gj * (t[i + 1] - t_cross)
    return total


# ---------------------------------------------------------------------------
# emit oracles
#
# The emitters ``cli.to_csv`` and ``cli.to_json`` replace: one ``isinstance``
# chain per CSV cell, and ``json.dumps`` with ``indent=2`` (CPython's
# pure-Python encoder) after ``_json_safe`` has copied the whole envelope.  The
# production emitters must give the same bytes.


def _format_cell_oracle(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_safe_oracle(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _json_safe_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe_oracle(v) for v in value]
    return value


def to_csv_oracle(envelope) -> str:
    """The CSV bytes ``cli.to_csv`` must write."""
    lines = []
    meta = envelope.metadata
    lines.append(f"# tool={meta['tool']} version={meta['version']} command={meta['command']}")
    lines.append("# delta_c={} alpha={} gamma={}".format(
        *(_format_cell_oracle(meta[name]) for name in ("delta_c", "alpha", "gamma"))))
    dim = meta["dimensionless"]
    lines.append("# r={} h={} k={}".format(*(_format_cell_oracle(dim[name]) for name in "rhk")))
    lines.append("# config=" + json.dumps(_json_safe_oracle(meta["config"]), sort_keys=True,
                                          separators=(",", ":")))
    if "generated" in meta:
        lines.append(f"# generated={meta['generated']}")
    for warning in envelope.warnings:
        lines.append(f"# warning={warning}")
    lines.append(",".join(envelope.payload["columns"]))
    for row in envelope.payload["rows"]:
        lines.append(",".join(_format_cell_oracle(cell) for cell in row))
    return "\n".join(lines) + "\n"


def to_json_oracle(envelope) -> str:
    """The JSON bytes ``cli.to_json`` must write."""
    document = {
        "metadata": _json_safe_oracle(envelope.metadata),
        "payload": _json_safe_oracle(envelope.payload),
        "warnings": list(envelope.warnings),
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# record oracle
#
# The package's records derive from ``model.FrozenRecord`` instead of being
# frozen dataclasses.  This builds the dataclass each replaced, for tests to
# compare against.


def dataclass_oracle(cls):
    """The frozen dataclass with the name, fields, defaults and ``__post_init__`` of the
    record class ``cls``."""
    import dataclasses

    fields = []
    for name in cls._fields:
        if hasattr(cls, name):  # a field's default is its class attribute
            fields.append((name, object, dataclasses.field(default=getattr(cls, name))))
        else:
            fields.append((name, object))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)

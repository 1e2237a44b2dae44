"""Finite recovery: the release recurrence, peak-minimising plans, and capacity.

Between releases separated by a fixed interval the reservoir keeps the
carry-over fraction ``lam = exp(-rho * tau)``, so post-release levels obey
``A_k = lam * A_{k-1} + q_k``.  Peak level is the right safety objective here:
the reservoir only decays between releases, so the whole path stays below the
critical level exactly when every post-release level does.

``n`` releases at carry-over ``lam`` absorb at most ``c_n(lam) = 1 +
(n-1)(1-lam)`` threshold units of load without exceeding a unit peak; the
minimising profile is front-loaded (fill to the target peak, then top up the
decayed fraction).  Squeezing ``n`` equally spaced releases into a fixed
horizon ``h = rho * T`` gives the capacity ``B_n(h)``, which increases with
``n`` but never reaches its supremum ``1 + h``.
"""
from __future__ import annotations

import enum
import math

from .errors import LeakyStageError, ScheduleError
from .model import EPS_THR, FrozenRecord, ModelParams, derive, guarded_ceil


class CountBound(enum.Enum):
    """Marker for a release count that no finite number attains."""

    UNBOUNDED = "unbounded"


UNBOUNDED = CountBound.UNBOUNDED


class HorizonRegime(enum.Enum):
    SAFE_WITH_ONE_RELEASE = "SafeWithOneRelease"
    SAFE_WITH_N = "SafeWithN"
    SUPREMAL_BOUNDARY = "SupremalBoundary"
    INFEASIBLE = "Infeasible"


class HorizonFeasibility(FrozenRecord):
    """Feasibility verdict for absorbing load ``r`` within horizon ``h``.

    ``n`` is populated only for the ``SAFE_WITH_N`` regime.  ``label`` is the
    verdict in the form printed by the CLI, e.g. ``"SafeWithN(3)"``.
    """

    regime: HorizonRegime
    n: int | None = None

    @property
    def label(self) -> str:
        if self.regime is HorizonRegime.SAFE_WITH_N:
            return f"SafeWithN({self.n})"
        return self.regime.value


def _validate_lam(lam: float) -> None:
    # lam = 0 is the complete-relaxation limit and is accepted.
    if not (math.isfinite(lam) and 0.0 <= lam < 1.0):
        raise LeakyStageError(f"carry-over factor must lie in [0, 1) (got {lam!r})")


class RecoveryConfig(FrozenRecord):
    """Release count, budget, carry-over factor, and starting level.

    ``lam`` may be given directly or derived from an inter-release time via
    :meth:`from_interval`.
    """

    lam: float
    n: int
    Q: float
    a0: float = 0.0

    def __post_init__(self) -> None:
        _validate_lam(self.lam)
        if not (isinstance(self.n, int) and self.n >= 1):
            raise LeakyStageError(f"release count n must be an integer >= 1 (got {self.n!r})")
        if not (math.isfinite(self.Q) and self.Q >= 0.0):
            raise LeakyStageError(f"total load Q must be finite and >= 0 (got {self.Q!r})")
        if not (math.isfinite(self.a0) and self.a0 >= 0.0):
            raise LeakyStageError(f"initial level a0 must be finite and >= 0 (got {self.a0!r})")

    @classmethod
    def from_interval(
        cls, rho: float, tau: float, n: int, Q: float, a0: float = 0.0
    ) -> "RecoveryConfig":
        if not (math.isfinite(rho) and rho > 0.0):
            raise LeakyStageError(f"recovery rate rho must be > 0 (got {rho!r})")
        if not (math.isfinite(tau) and tau > 0.0):
            raise LeakyStageError(f"inter-release time tau must be > 0 (got {tau!r})")
        return cls(lam=math.exp(-rho * tau), n=n, Q=Q, a0=a0)


class PeakPlan(FrozenRecord):
    """A release profile with its post-release levels and peak.

    ``capacity_residual`` is the defect of the budget identity
    ``sum(q) = A_n + (1-lam) * sum(A_k, k<n) - a0`` and should be at floating
    noise level for any plan produced here.  ``degenerate`` marks the Q = 0
    plan, which releases nothing.
    """

    releases: tuple[float, ...]
    post_levels: tuple[float, ...]
    peak: float
    capacity_multiplier: float
    capacity_residual: float
    degenerate: bool = False


class CapacityReport(FrozenRecord):
    """Safe-capacity numbers for one (n, lam, h) configuration."""

    c_n: float
    B_n: float
    Q_max_safe: float
    Q_sup_safe: float
    N_safe_lambda: int | CountBound
    N_safe_horizon: int | CountBound


def peak_capacity(n: int, lam: float) -> float:
    """Capacity multiplier ``c_n(lam) = 1 + (n - 1) * (1 - lam)``.

    Threshold units absorbable by ``n`` releases at fixed spacing without
    the peak exceeding one unit.  ``lam = 0`` is accepted as the
    complete-relaxation limit, where the multiplier is ``n``.
    """
    if not (isinstance(n, int) and n >= 1):
        raise LeakyStageError(f"release count n must be an integer >= 1 (got {n!r})")
    _validate_lam(lam)
    return 1.0 + (n - 1) * (1.0 - lam)


def simulate_recurrence(config: RecoveryConfig, releases) -> PeakPlan:
    """Run the post-release recurrence for an explicit release vector.

    ``A_1 = a0 + q_1`` and ``A_k = lam * A_{k-1} + q_k`` for later stages.
    """
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
    total = math.fsum(releases)
    identity = levels[-1] + (1.0 - config.lam) * math.fsum(levels[:-1]) - config.a0
    return PeakPlan(
        releases=releases,
        post_levels=tuple(levels),
        peak=max(levels) if levels else config.a0,
        capacity_multiplier=peak_capacity(config.n, config.lam),
        capacity_residual=total - identity,
        degenerate=total == 0.0,
    )


def min_peak_plan(config: RecoveryConfig) -> PeakPlan:
    """Peak-minimising release profile from an empty reservoir.

    The optimal peak is ``Q / c_n(lam)`` and the profile is front-loaded:
    the first release fills to the peak, each later one replenishes the
    decayed fraction ``1 - lam``, and all post-release levels are equal.
    For a nonzero starting level use :func:`state_peak_plan`.
    """
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
    simulated = simulate_recurrence(config, releases)
    return PeakPlan(
        releases=releases,
        post_levels=simulated.post_levels,
        peak=peak,
        capacity_multiplier=simulated.capacity_multiplier,
        capacity_residual=simulated.capacity_residual,
    )


def state_value(m: int, a: float, Q: float, lam: float) -> float:
    """Minimal attainable peak with ``m`` releases left, starting at level ``a``.

    Closed form ``max(a, (a + Q) / c_m(lam))``; satisfies the minimax
    recursion ``H_m(a, Q) = min_q max(a + q, H_{m-1}(lam (a + q), Q - q))``
    with ``H_1(a, Q) = a + Q``.
    """
    if not (isinstance(m, int) and m >= 1):
        raise LeakyStageError(f"remaining release count m must be an integer >= 1 (got {m!r})")
    if not (math.isfinite(a) and a >= 0.0):
        raise LeakyStageError(f"current level a must be finite and >= 0 (got {a!r})")
    if not (math.isfinite(Q) and Q >= 0.0):
        raise LeakyStageError(f"remaining load Q must be finite and >= 0 (got {Q!r})")
    _validate_lam(lam)
    return max(a, (a + Q) / peak_capacity(m, lam))


def state_peak_plan(m: int, a: float, Q: float, lam: float) -> PeakPlan:
    """A feasible profile achieving :func:`state_value` from level ``a``.

    Fills greedily up to the target peak at every stage: each release is the
    smaller of the remaining load and the headroom left by decay.  When the
    start level already dominates (``a > (a + Q)/c_m``) the minimiser is not
    unique; this is one optimal choice.
    """
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
    plan = simulate_recurrence(config, tuple(releases))
    return PeakPlan(
        releases=plan.releases,
        post_levels=plan.post_levels,
        peak=target,
        capacity_multiplier=plan.capacity_multiplier,
        capacity_residual=plan.capacity_residual,
        degenerate=Q == 0.0,
    )


def safe_count_fixed_lambda(Q: float, lam: float, params: ModelParams) -> int:
    """Minimal releases keeping the peak at or below the critical level.

    At fixed carry-over ``lam`` this is ``1 + ceil((r - 1)_+ / (1 - lam))``
    with ``r = Q / delta_c``; equivalently the smallest ``n`` with
    ``r <= c_n(lam)``.
    """
    if not (math.isfinite(Q) and Q > 0.0):
        raise LeakyStageError(f"total load Q must be finite and > 0 (got {Q!r})")
    _validate_lam(lam)
    r = Q / derive(params).delta_c
    excess = max(0.0, r - 1.0)
    if excess == 0.0:
        return 1
    stages = excess / (1.0 - lam)
    if not math.isfinite(stages):
        raise LeakyStageError(f"total load Q={Q!r} overflows (Q / delta_c - 1) / (1 - lam)")
    return 1 + max(0, guarded_ceil(stages))


def horizon_capacity(n: int, h: float) -> float:
    """Safe capacity ``B_n(h)`` of ``n`` equally spaced releases in horizon ``h``.

    ``B_1 = 1`` and ``B_n(h) = 1 + (n-1)(1 - exp(-h/(n-1)))`` for ``n >= 2``;
    increasing in ``n`` and strictly below the supremum ``1 + h``.
    """
    if not (isinstance(n, int) and n >= 1):
        raise LeakyStageError(f"release count n must be an integer >= 1 (got {n!r})")
    if not (math.isfinite(h) and h >= 0.0):
        raise LeakyStageError(f"horizon h must be finite and >= 0 (got {h!r})")
    if n == 1:
        return 1.0
    # -expm1 keeps full precision when h/(n-1) is tiny (large n).
    return 1.0 - (n - 1) * math.expm1(-h / (n - 1))


def horizon_feasibility(
    r: float, h: float, *, eps_thr: float = EPS_THR
) -> HorizonFeasibility:
    """Classify load ``r`` against the fixed-horizon capacity frontier.

    One release suffices for ``r <= 1``; for ``1 < r < 1 + h`` some finite
    equally spaced count works and the smallest is returned; at
    ``r = 1 + h`` (within ``eps_thr``) the capacity is only supremal; above
    it no finite schedule is safe.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise LeakyStageError(f"dimensionless load r must be finite and > 0 (got {r!r})")
    if not (math.isfinite(h) and h >= 0.0):
        raise LeakyStageError(f"horizon h must be finite and >= 0 (got {h!r})")
    if r <= 1.0 + eps_thr:
        return HorizonFeasibility(HorizonRegime.SAFE_WITH_ONE_RELEASE)
    if abs(r - (1.0 + h)) <= eps_thr:
        return HorizonFeasibility(HorizonRegime.SUPREMAL_BOUNDARY)
    if r > 1.0 + h:
        return HorizonFeasibility(HorizonRegime.INFEASIBLE)
    # B_n(h) increases to 1 + h, so doubling then bisecting terminates.
    hi = 2
    while horizon_capacity(hi, h) < r:
        hi *= 2
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if horizon_capacity(mid, h) >= r:
            hi = mid
        else:
            lo = mid + 1
    return HorizonFeasibility(HorizonRegime.SAFE_WITH_N, n=hi)


def unequal_spacing_capacity(taus, rho: float) -> float:
    """Capacity of a schedule with explicit inter-release gaps ``taus``.

    ``1 + sum(1 - exp(-rho * tau_j))``: each gap contributes the fraction of
    a threshold unit that recovers during it.  Equal gaps with the same total
    time maximise this, matching ``B_n``.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise LeakyStageError(f"recovery rate rho must be > 0 (got {rho!r})")
    import numpy as np

    taus = np.asarray(taus, dtype=float)
    if taus.size and (not np.all(np.isfinite(taus)) or np.any(taus < 0.0)):
        raise LeakyStageError("every inter-release time must be finite and >= 0")
    return 1.0 + float(np.sum(-np.expm1(-rho * taus)))


def capacity_report(
    params: ModelParams,
    Q: float,
    n: int,
    lam: float,
    h: float,
    *,
    eps_thr: float = EPS_THR,
) -> CapacityReport:
    """Assemble the safe-capacity numbers for one configuration."""
    d = derive(params)
    r = Q / d.delta_c
    feasibility = horizon_feasibility(r, h, eps_thr=eps_thr)
    if feasibility.regime is HorizonRegime.SAFE_WITH_ONE_RELEASE:
        n_horizon: int | CountBound = 1
    elif feasibility.regime is HorizonRegime.SAFE_WITH_N:
        n_horizon = feasibility.n  # type: ignore[assignment]
    else:
        n_horizon = UNBOUNDED
    return CapacityReport(
        c_n=peak_capacity(n, lam),
        B_n=horizon_capacity(n, h),
        Q_max_safe=d.delta_c * peak_capacity(n, lam),
        Q_sup_safe=d.delta_c * (1.0 + h),
        N_safe_lambda=safe_count_fixed_lambda(Q, lam, params),
        N_safe_horizon=n_horizon,
    )

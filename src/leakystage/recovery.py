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
import operator
from itertools import accumulate, cycle, islice, repeat

from .errors import LeakyStageError, ScheduleError
from .model import EPS_THR, FrozenRecord, ModelParams, _count, _number, _numbers, derive
from .model import guarded_ceil


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


def _lam(lam: float) -> float:
    """The checked carry-over factor; 0 is the complete-relaxation limit and is accepted."""
    return _number(lam, "carry-over factor lam", below=1)


def _safe_count_within(verdict: HorizonFeasibility) -> int | CountBound:
    """The release count ``verdict`` calls safe: 1, its ``n``, or UNBOUNDED."""
    if verdict.regime is HorizonRegime.SAFE_WITH_N:
        return verdict.n  # type: ignore[return-value]
    return 1 if verdict.regime is HorizonRegime.SAFE_WITH_ONE_RELEASE else UNBOUNDED


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
        _lam(self.lam)
        _count(self.n, "release count n")
        _number(self.Q, "total load Q")
        _number(self.a0, "initial level a0")

    @classmethod
    def from_interval(
        cls, rho: float, tau: float, n: int, Q: float, a0: float = 0.0
    ) -> "RecoveryConfig":
        _number(rho, "recovery rate rho", strict=True)
        _number(tau, "inter-release time tau", strict=True)
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
    N_safe_lambda: int
    N_safe_horizon: int | CountBound


def peak_capacity(n: int, lam: float) -> float:
    """Capacity multiplier ``c_n(lam) = 1 + (n - 1) * (1 - lam)``.

    Threshold units absorbable by ``n`` releases at fixed spacing without
    the peak exceeding one unit.  ``lam = 0`` is accepted as the
    complete-relaxation limit, where the multiplier is ``n``.
    """
    return _peak_capacity(_count(n, "release count n"), _lam(lam))


def _peak_capacity(n: int, lam: float) -> float:
    """:func:`peak_capacity` of arguments already checked."""
    return 1.0 + (n - 1) * (1.0 - lam)


def _levels(releases: tuple[float, ...], a0: float, lam: float) -> list[float]:
    """Post-release levels of checked ``releases`` from level ``a0``."""
    level = a0 + releases[0]
    levels = [level]
    for q in releases[1:]:
        level = lam * level + q
        levels.append(level)
    return levels


def _plan(releases, levels, a0: float, lam: float, peak, capacity, degenerate) -> PeakPlan:
    """The :class:`PeakPlan` of checked ``releases`` with their post-release ``levels``."""
    identity = levels[-1] + (1.0 - lam) * math.fsum(levels[:-1]) - a0
    return PeakPlan(tuple(releases), tuple(levels), peak, capacity,
                    math.fsum(releases) - identity, degenerate)


def simulate_recurrence(config: RecoveryConfig, releases) -> PeakPlan:
    """Run the post-release recurrence for an explicit release vector.

    ``A_1 = a0 + q_1`` and ``A_k = lam * A_{k-1} + q_k`` for later stages.
    """
    releases = tuple(releases)
    if len(releases) != config.n:
        raise ScheduleError(f"expected {config.n} releases, got {len(releases)}")
    releases = tuple([float(_number(q, f"release {j}", error=ScheduleError))
                      for j, q in enumerate(releases, 1)])
    levels = _levels(releases, config.a0, config.lam)
    return _plan(releases, levels, config.a0, config.lam, max(levels),
                 _peak_capacity(config.n, config.lam), not any(releases))


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
    lam, a0 = config.lam, config.a0
    capacity = _peak_capacity(config.n, lam)
    peak = (config.Q + 0.0) / capacity  # + 0.0: a load of -0.0 releases +0.0, as Q = 0 does
    try:
        releases = (peak,) + ((1.0 - lam) * peak,) * (config.n - 1)
    except (OverflowError, MemoryError):  # more releases than can be allocated
        raise LeakyStageError("release count n must be small enough to allocate its plan") from None
    return _plan(releases, _levels(releases, a0, lam), a0, lam, peak, capacity, config.Q == 0.0)


def state_value(m: int, a: float, Q: float, lam: float) -> float:
    """Minimal attainable peak with ``m`` releases left, starting at level ``a``.

    Closed form ``max(a, (a + Q) / c_m(lam))``; satisfies the minimax
    recursion ``H_m(a, Q) = min_q max(a + q, H_{m-1}(lam (a + q), Q - q))``
    with ``H_1(a, Q) = a + Q``.  The value is a plain ``float`` for ``int``,
    ``float`` and ``numpy.float64`` arguments alike.
    """
    return _state_target(m, a, Q, lam)[1]


def _state_target(m: int, a: float, Q: float, lam: float) -> tuple[float, ...]:
    """``c_m(lam)``, :func:`state_value`, and ``a``, ``Q`` and ``lam`` as plain
    floats, after checking the arguments; ``lam`` has no sign on zero."""
    _count(m, "remaining release count m")
    a = float(_number(a, "current level a"))
    Q = float(_number(Q, "remaining load Q"))
    lam = float(_lam(lam)) + 0.0
    capacity = _peak_capacity(m, lam)
    return capacity, max(a, (a + Q) / capacity), a, Q, lam


def state_peak_plan(m: int, a: float, Q: float, lam: float) -> PeakPlan:
    """A feasible profile achieving :func:`state_value` from level ``a``.

    Fills greedily up to the target peak at every stage: each release is the
    smaller of the remaining load and the headroom left by decay.  When the
    start level already dominates (``a > (a + Q)/c_m``) the minimiser is not
    unique; this is one optimal choice.

    The plan is computed by runs and is bit-identical to the per-stage
    recurrence.  Once the level repeats bit for bit (rounding can make it
    alternate between two values), the releases repeat with it until the load
    runs short: a fill run.  Once the load is spent the level only decays: the
    decay tail.  Each run is one :mod:`itertools` pass over its stages, so the
    cost is linear in ``m`` but takes O(1) Python steps per run; only the stages
    before the level repeats and the partial release go one at a time.  The plan
    holds plain floats for ``int``, ``float`` and ``numpy.float64`` arguments alike.
    """
    capacity, target, a, Q, lam = _state_target(m, a, Q, lam)
    # the first release fills from ``a`` itself
    q = min(Q, max(0.0, target - a))
    level, remaining = a + q, Q - q
    try:  # both lists at full length at once, so that a huge m fails here
        releases, levels = [q] * m, [level] * m
    except (OverflowError, MemoryError):
        raise LeakyStageError(
            "remaining release count m must be small enough to allocate its plan") from None
    i = 1  # the stage computed next
    seen = {}  # level after each of the latest unbroken full fills -> the stage after it
    while i < m:
        if remaining == 0.0 and math.copysign(1.0, remaining) == math.copysign(1.0, level) == 1.0:
            # decay tail: each release is +0.0 and each level lam times the last; with no
            # -0.0 among lam (never), level and remaining, decayed + 0.0 is decayed exactly
            releases[i:] = [remaining] * (m - i)
            levels[i:] = accumulate(repeat(lam, m - i - 1), operator.mul,
                                    initial=lam * level + remaining)
            break
        decayed = lam * level
        q = min(remaining, max(0.0, target - decayed))
        full = 0.0 < q < remaining  # the release is the whole headroom, with load to spare
        level = decayed + q
        releases[i], levels[i] = q, level
        remaining -= q
        i += 1
        if not full:
            seen.clear()
            continue
        start = seen.setdefault(level, i)
        if start < i < m:
            # fill run: the level is back where it was after stage start - 1, so stages
            # start..i-1 repeat (rounding can make two levels alternate) while more than
            # the largest of their releases is left.  ``loads`` holds the load left
            # before each next stage, subtracted in the loop's order, a few stages past
            # where it runs short (the estimate divides Python floats, as numpy scalars
            # would warn when it overflows); those stages come off its end.
            qs, ls = releases[start:i], levels[start:i]
            top, p = max(qs), len(qs)
            n = int(min(m - i, float(remaining) / float(min(qs)) + 2.0))
            loads = list(accumulate(islice(cycle(qs), n - 1), operator.sub, initial=remaining))
            while loads and not top < loads[-1]:
                loads.pop()
            k = len(loads)
            if k:
                releases[i:i + k] = (qs * (k // p + 1))[:k]
                levels[i:i + k] = (ls * (k // p + 1))[:k]
                level, remaining = ls[(k - 1) % p], loads[-1] - qs[(k - 1) % p]
                i += k
            seen.clear()
    if remaining > 1e-9 * max(1.0, Q):
        raise LeakyStageError(
            f"greedy fill left {remaining!r} of the load unabsorbed; target peak inconsistent"
        )
    return _plan(releases, levels, a, lam, target, capacity, degenerate=Q == 0.0)


def safe_count_fixed_lambda(Q: float, lam: float, params: ModelParams) -> int:
    """Minimal releases keeping the peak at or below the critical level.

    At fixed carry-over ``lam`` this is ``1 + ceil((r - 1)_+ / (1 - lam))``
    with ``r = Q / delta_c``; equivalently the smallest ``n`` with
    ``r <= c_n(lam)``.
    """
    _number(Q, "total load Q", strict=True)
    _lam(lam)
    r = Q / derive(params).delta_c
    excess = max(0.0, r - 1.0)
    if excess == 0.0:
        return 1
    stages = excess / (1.0 - lam)
    if stages == math.inf:
        raise LeakyStageError(f"total load Q={Q!r} overflows (Q / delta_c - 1) / (1 - lam)")
    return 1 + max(0, guarded_ceil(stages))


def horizon_capacity(n: int, h: float) -> float:
    """Safe capacity ``B_n(h)`` of ``n`` equally spaced releases in horizon ``h``.

    ``B_1 = 1`` and ``B_n(h) = 1 + (n-1)(1 - exp(-h/(n-1)))`` for ``n >= 2``;
    increasing in ``n`` and strictly below the supremum ``1 + h``.
    """
    return _horizon_capacity(_count(n, "release count n"), _number(h, "horizon h"))


def _horizon_capacity(n: int, h: float) -> float:
    """:func:`horizon_capacity` of arguments already checked."""
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
    _number(r, "dimensionless load r", strict=True)
    _number(h, "horizon h")
    if r <= 1.0 + _number(eps_thr, "tolerance eps_thr"):
        return HorizonFeasibility(HorizonRegime.SAFE_WITH_ONE_RELEASE)
    if abs(r - (1.0 + h)) <= eps_thr:
        return HorizonFeasibility(HorizonRegime.SUPREMAL_BOUNDARY)
    if r > 1.0 + h:
        return HorizonFeasibility(HorizonRegime.INFEASIBLE)
    # B_n(h) increases to 1 + h, so doubling then bisecting terminates.
    hi = 2
    try:
        while _horizon_capacity(hi, h) < r:
            hi *= 2
    except OverflowError:  # at hi = 2**1024, as B_n takes n - 1 as a float
        raise LeakyStageError(f"load r={r!r} needs more than 2**1023 releases within "
                              f"horizon h={h!r}, past the count rule") from None
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _horizon_capacity(mid, h) >= r:
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
    _number(rho, "recovery rate rho", strict=True)
    import numpy as np

    taus = _numbers(taus, "inter-release times")
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
    _number(Q, "total load Q", strict=True)
    c_n = peak_capacity(n, lam)
    d = derive(params)
    feasibility = horizon_feasibility(Q / d.delta_c, h, eps_thr=eps_thr)
    return CapacityReport(
        c_n=c_n,
        B_n=_horizon_capacity(n, h),
        Q_max_safe=d.delta_c * c_n,
        Q_sup_safe=d.delta_c * (1.0 + h),
        N_safe_lambda=safe_count_fixed_lambda(Q, lam, params),
        N_safe_horizon=_safe_count_within(feasibility),
    )

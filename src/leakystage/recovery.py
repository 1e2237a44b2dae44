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
from itertools import chain, repeat

from .errors import LeakyStageError, ScheduleError
from .exposure import _SERIES_SWITCH, _onset
from .model import EPS_THR, FrozenRecord, ModelParams, _count, _number, _numbers, _rate, derive
from .model import guarded_ceil

__all__ = ["UNBOUNDED", "CapacityReport", "CountBound", "HorizonFeasibility", "HorizonRegime",
           "PeakPlan", "RecoveryConfig", "capacity_report", "horizon_capacity",
           "horizon_feasibility", "min_peak_plan", "peak_capacity", "safe_count_fixed_lambda",
           "simulate_recurrence", "state_peak_plan", "state_value", "unequal_spacing_capacity"]


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


#: The verdicts that carry no count, one shared record each: records are immutable.
_ONE_RELEASE, _SUPREMAL, _INFEASIBLE = (
    HorizonFeasibility(regime) for regime in (HorizonRegime.SAFE_WITH_ONE_RELEASE,
                                              HorizonRegime.SUPREMAL_BOUNDARY,
                                              HorizonRegime.INFEASIBLE))


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
        _rate(rho, "recovery rate rho")
        _number(tau, "inter-release time tau", strict=True)
        lam = math.exp(-rho * tau)
        if not lam < 1.0:
            raise LeakyStageError(f"recovery rate rho={rho!r} and inter-release time tau={tau!r} "
                                  "give a carry-over exp(-rho*tau) that rounds to 1")
        return cls(lam=lam, n=n, Q=Q, a0=a0)


class PeakPlan(FrozenRecord):
    """A release profile with its post-release levels and peak.

    ``capacity_residual`` is the defect of the budget identity
    ``sum(q) = A_n + (1-lam) * sum(A_k, k<n) - a0`` and should be at floating
    noise level for any plan produced here.  Every planner, :func:`min_peak_plan`,
    :func:`state_peak_plan` and :func:`simulate_recurrence` alike, computes it exact
    over the plan's numbers and rounds it once.  ``degenerate`` marks the Q = 0 plan,
    which releases nothing.
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
    complete-relaxation limit, where the multiplier is ``n``.  It lies within 2 eps
    (2**-52) relative of the exact multiplier of its float arguments: three roundings, and
    a fourth where ``n - 1`` passes 2**53.
    """
    return _peak_capacity(_count(n, "release count n"), _lam(lam))


def _peak_capacity(n: int, lam: float) -> float:
    """:func:`peak_capacity` of arguments already checked."""
    return 1.0 + (n - 1) * (1.0 - lam)


def simulate_recurrence(config: RecoveryConfig, releases) -> PeakPlan:
    """Run the post-release recurrence for an explicit release vector.

    ``A_1 = a0 + q_1`` and ``A_k = lam * A_{k-1} + q_k`` for later stages.  Every level
    is at most ``a0`` plus the sum of the releases, below 2**396 in the domain.
    """
    releases = tuple(releases)
    if len(releases) != config.n:
        raise ScheduleError(f"expected {config.n} releases, got {len(releases)}")
    releases = tuple([float(_number(q, f"release {j}", error=ScheduleError))
                      for j, q in enumerate(releases, 1)])
    a0, lam = config.a0, config.lam
    level = a0 + releases[0]
    levels = [level]
    for q in releases[1:]:
        level = lam * level + q
        levels.append(level)
    runs = [*((q, 1, 0) for q in releases), *((x, 0, 1) for x in levels[:-1]),
            (level, -1, 0), (a0, 1, 0)]
    return PeakPlan(releases, tuple(levels), max(levels), _peak_capacity(config.n, lam),
                    _residual(runs, lam), not any(releases))


def min_peak_plan(config: RecoveryConfig) -> PeakPlan:
    """Peak-minimising release profile from an empty reservoir.

    The optimal peak is ``Q / c_n(lam)``; the profile is the one
    :func:`state_peak_plan` builds from level 0: the first release fills to
    the peak and each later one replenishes the decayed fraction ``1 - lam``.
    Every post-release level is the peak itself.  For a nonzero starting level
    use :func:`state_peak_plan`.
    """
    if config.a0 != 0.0:
        raise LeakyStageError(
            "min_peak_plan assumes an empty start (a0 = 0); use state_peak_plan for a0 > 0"
        )
    # from +0.0 whatever the zero a0 is, so that a load of -0.0 releases +0.0; the
    # record has checked n, Q and lam
    return _constant_peak_plan(config.n, 0.0, float(config.Q), float(config.lam) + 0.0,
                               "release count n")


def state_value(m: int, a: float, Q: float, lam: float) -> float:
    """Minimal attainable peak with ``m`` releases left, starting at level ``a``.

    Closed form ``max(a, (a + Q) / c_m(lam))``; satisfies the minimax
    recursion ``H_m(a, Q) = min_q max(a + q, H_{m-1}(lam (a + q), Q - q))``
    with ``H_1(a, Q) = a + Q``.  The value is a plain ``float`` for ``int``,
    ``float`` and ``numpy.float64`` arguments alike.  It lies within 4 eps (2**-52)
    relative of the exact value of its float arguments, plus 2**-1074 absolute, the
    spacing of the subnormals, where the peak is subnormal.
    """
    a, Q, lam = _state_target(m, a, Q, lam)
    return max(a, _target(m, a, Q, lam)[1])


def _state_target(m: int, a: float, Q: float, lam: float) -> tuple[float, float, float]:
    """``a``, ``Q`` and ``lam`` after checking them and ``m``, as plain floats; ``lam`` has
    no sign on zero."""
    _count(m, "remaining release count m")
    return (float(_number(a, "current level a")), float(_number(Q, "remaining load Q")),
            float(_lam(lam)) + 0.0)


def _target(m: int, a: float, Q: float, lam: float) -> tuple[float, float]:
    """``c_m(lam)`` and the fill peak ``(a + Q) / c_m(lam)`` for checked plain-float
    arguments.

    Every number of a peak plan is finite in the domain: ``a + Q <= 2e100`` and
    ``c_m >= 1``, so the fill and the target ``max(a, fill)`` are at most 2e100, each
    release is at most the target, and each level at most the target too.
    """
    capacity = _peak_capacity(m, lam)
    return capacity, (a + Q) / capacity


def state_peak_plan(m: int, a: float, Q: float, lam: float) -> PeakPlan:
    """A feasible profile achieving :func:`state_value` from level ``a``.

    The closed-form constant-peak profile.  When the fill peak ``(a + Q)/c_m``
    is at least ``a``, the first release lifts the level to it and every later
    one tops up the decayed fraction ``(1 - lam)`` of it.  When the start level
    dominates, the peak is ``a``, the minimiser is not unique, and this plan
    releases nothing first, then tops up ``(1 - lam) * a`` while the load
    lasts, then releases the rest and nothing more.

    The post-release levels are the closed form's too: the peak at every stage
    of a fill, and ``a`` through the top-ups of a dominating start, then the
    level after the last partial release, never above ``a``, then its float
    decay ``lam * level`` stage by stage.  So ``max(post_levels) == peak``
    exactly.  They lie within ``4 m eps max(1, Q, a)`` of the recurrence of the
    releases, which :func:`simulate_recurrence` computes, but need not equal it.
    ``capacity_residual`` is summed exactly over the runs of equal releases and
    levels and rounded once.  The plan holds plain floats for ``int``,
    ``float`` and ``numpy.float64`` arguments alike.
    """
    return _constant_peak_plan(m, *_state_target(m, a, Q, lam), "remaining release count m")


def _constant_peak_plan(m: int, a: float, Q: float, lam: float, count: str) -> PeakPlan:
    """The :func:`state_peak_plan` profile of ``m`` releases from level ``a`` for checked
    plain-float arguments, written in runs of equal releases and levels; ``count`` names
    ``m`` in the error of a plan too long to allocate."""
    capacity, fill = _target(m, a, Q, lam)
    target = max(a, fill)
    step = (1.0 - lam) * target + 0.0  # + 0.0: a target of -0.0 tops up +0.0
    try:
        if a <= fill:  # every level is the target
            first, level = target - a, target + 0.0
            releases, levels = (first,) + (step,) * (m - 1), (level,) * m
            # a + (first - target) is first - (target - a) exactly, as target >= a
            runs = [(a + (first - target), 1, 0), (step, m - 1, 0), (level, 0, m - 1)]
        else:  # step is 0.0 only for a subnormal a, whose load then goes at once
            k = int(min(m - 2, Q // step)) if step else 0
            rest = max(0.0, Q - k * step)
            releases = (0.0,) + (step,) * k + (rest,) + (0.0,) * (m - 2 - k)
            # the level holds at a through the top-ups, and rounding may not lift the
            # partial one above it; then it decays to a fixed point of lam * x, zero or a
            # subnormal, at j, which the rest of the plan repeats
            tail, j = _decay(min(a, lam * a + rest), lam, m - 1 - k)
            last = float(tail[-1])
            # one pass with no partial tuples; it grows with no length known, safe once the
            # releases, as long, are allocated
            levels = tuple(chain(repeat(a, k + 1), tail[:j].tolist(), repeat(last, m - 1 - k - j)))
            # the decay before its fixed point counts in units of 5e-324 = 2**-1074
            runs = [(step, k, 0), (rest, 1, 0), (last, -1, m - 2 - k - j), (a, 1, k + 1),
                    (5e-324, 0, _units(tail[:j]))]
    except (OverflowError, MemoryError):  # more releases than can be allocated
        raise LeakyStageError(f"{count} must be small enough to allocate its plan") from None
    return PeakPlan(releases, levels, target, capacity, _residual(runs, lam), Q == 0.0)


def _decay(level: float, lam: float, count: int):
    """The ``count`` levels ``level, lam * level, ...`` of the recurrence with no release, as
    a float array, and the index of the first level that ``lam * x`` keeps.

    numpy's product accumulation rounds stage by stage, as the recurrence does.  The
    levels never rise and reach a fixed point, zero or a subnormal, within about
    1500 / -log(lam) stages, unless lam is near 1.  The pass runs in chunks of 4096
    stages and stops at the first chunk that ends there, since products of subnormals
    are slow: the rest repeats the fixed point.
    """
    import numpy as np

    levels = np.full(count, lam)
    levels[0] = level
    done = 1
    while done < count:
        end = min(count, done + 4096)
        chunk = levels[done - 1:end]
        np.multiply.accumulate(chunk, out=chunk)
        if levels[end - 1] == levels[end - 2]:
            levels[end:] = levels[end - 1]
            break
        done = end
    return levels, int(np.argmax(levels == levels[-1]))


def _units(values) -> int:
    """The exact sum of the finite nonnegative float array ``values`` in units of 2**-1074,
    the spacing of the subnormals, of which every float is a whole number.  Each stretch
    of values in one binade adds up as whole numbers of its own spacing, below 2**53, so
    the Python loop runs once a binade, not once a value."""
    import numpy as np

    exp = np.maximum(np.frexp(values)[1], -1021)  # the subnormals share the spacing 2**-1074
    units = np.ldexp(values, 53 - exp).astype(np.int64)
    starts = np.flatnonzero(np.diff(exp, prepend=exp[:1] - 1))
    # 27 and 26 bit halves, whose sums over a stretch stay exact in int64
    high = np.add.reduceat(units >> 26, starts).tolist()
    low = np.add.reduceat(units & (2**26 - 1), starts).tolist()
    return sum([((h << 26) + lo) << shift
                for h, lo, shift in zip(high, low, (exp[starts] + 1021).tolist())])


def _residual(runs, lam: float) -> float:
    """The defect ``sum(q) - A_n + a0 - (1 - lam) * sum(A_k, k < n)`` of the budget identity,
    exact over the floats and rounded once.  Each run ``(value, count, held)`` adds
    ``value`` ``count`` times to ``sum(q) - A_n + a0`` and ``held`` times to
    ``sum(A_k, k < n)``.  It counts in units of 2**-1074, as :func:`_units` does, over the
    denominator of ``lam``: integers need no module and cannot overflow, and ``int / int``
    rounds correctly."""
    ln, ld = lam.as_integer_ratio()
    total = 0
    for value, count, held in runs:
        if value:  # a zero adds nothing
            vn, vd = value.as_integer_ratio()  # vd is a power of two, at most 2**1074
            total += (count * ld + (ln - ld) * held) * (vn << 1075 - vd.bit_length())
    return total / (ld << 1074)


def safe_count_fixed_lambda(Q: float, lam: float, params: ModelParams) -> int:
    """Minimal releases keeping the peak at or below the critical level.

    At fixed carry-over ``lam`` this is ``1 + ceil((r - 1)_+ / (1 - lam))``
    with ``r = Q / delta_c``; equivalently the smallest ``n`` with
    ``r <= c_n(lam)``.  In the domain ``r < 2**585`` and ``1 - lam >= 2**-53``, so the
    stage count ``(r - 1) / (1 - lam)`` is finite.
    """
    _number(Q, "total load Q", strict=True)
    _lam(lam)
    excess = max(0.0, Q / derive(params).delta_c - 1.0)
    if excess == 0.0:
        return 1
    return 1 + max(0, guarded_ceil(excess / (1.0 - lam)))


def horizon_capacity(n: int, h: float) -> float:
    """Safe capacity ``B_n(h)`` of ``n`` equally spaced releases in horizon ``h``.

    ``B_1 = 1`` and ``B_n(h) = 1 + (n-1)(1 - exp(-h/(n-1)))`` for ``n >= 2``;
    increasing in ``n`` and strictly below the supremum ``1 + h``.  The value lies within
    2 eps (2**-52) relative of the exact capacity of its float arguments.
    """
    return _horizon_capacity(_count(n, "release count n"), (_number(h, "horizon h"),))[0]


def _horizon_capacity(n: int, hs) -> list[float]:
    """:func:`horizon_capacity` of a checked count ``n`` at each checked horizon in ``hs``.

    The one spelling of ``B_n``: a comprehension over the column with ``n - 1`` taken
    once, which :func:`~leakystage.phase.feasibility_curves` runs over a curve's horizons
    and the scalar entry points over one horizon.
    """
    if n == 1:
        return [1.0 for _ in hs]
    m, expm1 = n - 1, math.expm1
    # -expm1 keeps full precision when h/(n-1) is tiny (large n).
    return [1.0 - m * expm1(-h / m) for h in hs]


def _deficit_fits(n: int, h: float, gap: float) -> bool:
    """Whether the capacity deficit 1 + h - B_n(h) = (n-1)(x + y) = (n-1)(y - log1p(y)), at
    x = h/(n-1) and y = expm1(-x), is at most ``gap``: the exposure bracket at a negative
    argument, by its series for small y."""
    x = h / (n - 1)
    y = math.expm1(-x)
    return (n - 1) * (y * y * _onset(y) if y > -_SERIES_SWITCH else x + y) <= gap


def horizon_feasibility(
    r: float, h: float, *, eps_thr: float = EPS_THR
) -> HorizonFeasibility:
    """Classify load ``r`` against the fixed-horizon capacity frontier.

    One release suffices for ``r <= 1``; for ``1 < r < 1 + h`` some finite
    equally spaced count works and the smallest is returned; at
    ``r = 1 + h`` (within ``eps_thr``) the capacity is only supremal; above
    it no finite schedule is safe.  The three verdicts without a count are shared
    immutable records, one per regime, returned by every call that reaches them;
    a ``SAFE_WITH_N`` verdict is built per call.

    The count is the first ``n`` whose deficit ``1 + h - B_n(h)`` is at most ``1 + h - r``,
    both free of cancellation.  It is exact except within a few ulps of a deficit, where
    rounding decides: ``r = 3`` and ``h = 100`` give 3, as ``B_3(100) = 3 - 2e^{-50}`` rounds to 3.
    Near 1e15 counts one more count can move the deficit by less than its rounding, and the
    float test is no longer monotone in ``n``.  From a count bound
    ``h**2 / (2 (1 + h - r))`` of 2**44 on, the count lies within ``1 + 4 eps n`` of the
    exact count.

    The count bound is finite in the domain, where ``h <= 1e100``: below ``1 + h``
    by more than ``eps_thr``, the float ``r`` leaves a gap ``1 + h - r`` of at least
    half its ulp, ``r 2**-54``, so the gap exceeds ``(1 + h) 2**-55`` where
    ``r >= (1 + h) / 2`` and ``(1 + h) / 2`` elsewhere, and the bound is below
    ``2**54 h < 2**387``: the bisection takes at most 387 steps.
    """
    _number(r, "dimensionless load r", strict=True)
    _number(h, "horizon h")
    if r <= 1.0 + _number(eps_thr, "tolerance eps_thr"):
        return _ONE_RELEASE
    if abs(r - (1.0 + h)) <= eps_thr:
        return _SUPREMAL
    if r > 1.0 + h:
        return _INFEASIBLE
    gap = math.fsum((1.0, h, -r))  # > 0, as r lies below 1 + h rounded
    # the deficit falls as n grows and is below h**2 / (2m), m = n - 1, so hi fits.  Near
    # 1e15 counts one more count moves the deficit by less than its rounding, and the test
    # is no longer monotone in n: the count is then the one this bisection finds
    lo, hi = 2, 2 + int(h / gap * h / 2.0)
    while lo < hi:
        mid = (lo + hi) // 2
        if _deficit_fits(mid, h, gap):
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
    _rate(rho, "recovery rate rho")
    import numpy as np

    # rho * tau is below 1e130 in the domain, so no numpy warning
    return 1.0 + float(np.sum(-np.expm1(-rho * _numbers(taus, "inter-release times"))))


def capacity_report(
    params: ModelParams,
    Q: float,
    n: int,
    lam: float,
    h: float,
    *,
    eps_thr: float = EPS_THR,
) -> CapacityReport:
    """Assemble the safe-capacity numbers for one configuration.

    ``r = Q / delta_c`` is finite in the domain; :func:`horizon_feasibility` names it
    where it passes its bound of 1e100.
    """
    _number(Q, "total load Q", strict=True)
    c_n = peak_capacity(n, lam)
    d = derive(params)
    feasibility = horizon_feasibility(Q / d.delta_c, h, eps_thr=eps_thr)
    return CapacityReport(
        c_n=c_n,
        B_n=_horizon_capacity(n, (h,))[0],
        Q_max_safe=d.delta_c * c_n,
        Q_sup_safe=d.delta_c * (1.0 + h),
        N_safe_lambda=safe_count_fixed_lambda(Q, lam, params),
        N_safe_horizon=_safe_count_within(feasibility),
    )

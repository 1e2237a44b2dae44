"""Complete-relaxation splitting: optimal allocations and the overhead frontier.

With full recovery between releases the exposures add, the problem is convex,
and the equal split is optimal (strictly so once the average release exceeds
the critical level).  Because single releases at or below the critical level
cost nothing, a finite number of releases eliminates exposure entirely; adding
a fixed per-release overhead turns the stage count into an integer trade-off
with an explicit safe/unsafe frontier ``k_safe(r)``.

Everything here works in threshold units where convenient: ``r = Q / delta_c``
is the load and ``k`` the overhead in one-shock exposure units.
"""
from __future__ import annotations

import math

from .errors import LeakyStageError
from .exposure import exposure_bracket
from .model import EPS_THR, FrozenRecord, ModelParams, _count, _number, _tolerance, derive
from .model import guarded_ceil

__all__ = ["AllocationResult", "OverheadResult", "SplitProblem", "continuous_relaxed_count",
           "excess_exposure", "k_safe", "min_exposure", "minimal_safe_count", "optimal_split",
           "overhead_optimal_count"]

#: Candidate costs within this tolerance of the minimum, by the rule of every threshold
#: verdict (:func:`~leakystage.model._tolerance`), are ties: relative from a cost of 1 on.
_TIE_REL = 1e-12

#: From here on every float is an integer and the spacing of floats is at least 2.
_EXACT_INTEGERS = 2.0**53


def excess_exposure(r: float, n: int) -> float:
    """Dimensionless minimal exposure of load ``r`` over ``n`` releases.

    Zero for ``r <= n``; otherwise ``r - n - n log(r/n)``, evaluated near the
    kink (``r/n - 1 < 1e-4``) by the series of
    :func:`~leakystage.exposure.exposure_bracket`.  This is the exposure term
    of the overhead objective, in units of one-shock exposure.  Below that switch the
    value lies within 4 eps (2**-52) relative of the exact excess of its arguments, at
    every load in the domain; from it on, the log difference cancels, and the bound is
    ``2 eps (1 + (log r + x) / (x - log1p x))`` relative, ``x = r/n - 1``: up to 5.7e-7
    just above the switch at ``n`` near 3.5e7, and under 1.1e-12 from ``x = 0.1`` on.
    """
    return _excess(_number(r, "dimensionless load r"), (_count(n, "release count n"),))[0]


def _excess(r: float, counts) -> list[float]:
    """:func:`excess_exposure` of a checked load ``r`` at each checked count in ``counts``.

    The one spelling of the excess: one pass over the column, with ``log r`` taken once.
    The overhead table runs it over its window of counts, :func:`_optimal_counts` over its
    floor and ceiling, and the scalar entry points over one count.  Below the kink,
    ``x = r/n - 1 < 1e-4``, it is :func:`~leakystage.exposure.exposure_bracket`'s.  From
    2**53 on the load is read as the integer it is, so ``r - n`` is exact and ``r / n``
    and the bracket's ``x = (r - n)/n`` are rounded once at every count.  A loop, not a
    comprehension: the sawtooth grid calls it on one or two counts per point, where a
    comprehension's set-up costs about 0.25 us more per call (Python 3.11), and over 2e4
    counts the loop takes about 12% longer.
    """
    r = int(r) if r >= _EXACT_INTEGERS else r
    log, log_r = math.log, (math.log(r) if r > 1.0 else 0.0)  # r <= 1 <= n gives 0.0 throughout
    excess = []
    for n in counts:
        excess.append(0.0 if r <= n else exposure_bracket(r, n) if r / n - 1.0 < 1e-4
                      else r - n - n * (log_r - log(n)))
    return excess


class SplitProblem(FrozenRecord):
    """A fixed load ``Q`` to be split into exactly ``n`` separated releases."""

    Q: float
    n: int
    params: ModelParams

    def __post_init__(self) -> None:
        _number(self.Q, "total load Q", strict=True)
        _count(self.n, "release count n")


class AllocationResult(FrozenRecord):
    """An optimal split: release sizes, total exposure, and flags.

    ``is_safe`` holds exactly when the total exposure is zero;
    ``unique_minimizer`` is False when any split with all releases at or
    below the critical level would do equally well.
    """

    releases: tuple[float, ...]
    total_exposure: float
    is_safe: bool
    unique_minimizer: bool


class OverheadResult(FrozenRecord):
    """Outcome of the overhead/exposure stage-count minimisation.

    ``ties`` lists the cost-optimal counts, smallest first: one count, or two
    consecutive ones whose costs agree within ``1e-12 * max(1, cost)``; ``n_star`` is
    the smallest.  At the frontier the safe count and one unsafe count are
    co-optimal, and both appear in ``ties``.
    """

    n_star: int
    cost: float
    residual_exposure: float
    is_fully_safe: bool
    ties: tuple[int, ...]


def min_exposure(Q: float, n: int, params: ModelParams, *, eps_thr: float = EPS_THR) -> float:
    """Smallest total exposure of load ``Q`` over ``n`` fully separated releases.

    Zero up to the top of the threshold band about the capacity ``n * delta_c``,
    ``eps_thr * max(1, n * delta_c)`` above it; otherwise the logarithmic closed form.
    Nonincreasing in ``n`` and strictly decreasing exactly while ``Q`` lies above
    that band.
    """
    _number(Q, "total load Q", strict=True)
    _count(n, "release count n")
    d = derive(params)
    return _split_exposure(Q, n * d.delta_c, d.alpha / params.rho,
                           _number(eps_thr, "tolerance eps_thr"))


def _split_exposure(Q: float, cap: float, scale: float, eps_thr: float) -> float:
    """:func:`min_exposure` of a checked load ``Q`` at capacity ``cap``; ``scale = alpha / rho``.

    The exposure of a single release with ``delta_c`` replaced by ``cap``, and finite
    and positive above the capacity for the same reasons: ``cap`` is at least
    ``delta_c >= 2**-252`` and the float ``Q`` above it, so
    :func:`~leakystage.exposure.exposure_closed_form`'s derivation holds as it stands.
    """
    if Q <= cap + _tolerance(cap, eps_thr):
        return 0.0
    return scale * exposure_bracket(Q, cap)


def optimal_split(problem: SplitProblem, *, eps_thr: float = EPS_THR) -> AllocationResult:
    """Exposure-minimising split of ``problem.Q`` into ``problem.n`` releases.

    Above total capacity ``n * delta_c`` the unique minimiser is the equal
    split.  Below it every split with all releases at or below the critical
    level has zero exposure; a canonical representative is returned (stages
    filled left to right at the critical level, then the remainder, then
    zeros) and ``unique_minimizer`` is False.  At capacity the unique
    zero-exposure split has every release at the critical level.  "At" means within
    the threshold band about the capacity, ``eps_thr * max(1, n * delta_c)`` to each
    side, where the equal split is returned with zero exposure; ``is_safe`` holds
    exactly when the total exposure is zero.
    """
    Q, n, params = problem.Q, problem.n, problem.params
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    d = derive(params)
    cap = n * d.delta_c
    # the equal split, unique when the average is at or above threshold, within the band
    equal = Q >= cap - _tolerance(cap, eps_thr)
    full = 0 if equal else int(Q // d.delta_c)  # < n here, since Q < n * delta_c
    try:
        releases = (Q / n,) * n if equal else (
            (d.delta_c,) * full + (max(0.0, Q - full * d.delta_c),) + (0.0,) * (n - full - 1))
    except (OverflowError, MemoryError):  # more releases than can be allocated
        raise LeakyStageError("release count n must be small enough to allocate its split") \
            from None
    exposure = _split_exposure(Q, cap, d.alpha / params.rho, eps_thr) if equal else 0.0
    return AllocationResult(
        releases=releases,
        total_exposure=exposure,
        is_safe=exposure == 0.0,
        unique_minimizer=equal,
    )


def _safe_count(r: float) -> int:
    """Smallest release count at which a checked load ``r > 0`` has no excess exposure."""
    return max(1, guarded_ceil(r))


def minimal_safe_count(Q: float, params: ModelParams) -> int:
    """Smallest release count whose combined capacity covers ``Q``.

    This is the ceiling of ``Q / delta_c`` with a small relative guard so
    that loads which are exact multiples of the critical level (up to
    floating error) are not pushed to an extra stage.  In the domain ``Q / delta_c``
    is below ``2**333 * 2**252``, finite.
    """
    return _safe_count(_number(Q, "total load Q", strict=True) / derive(params).delta_c)


def overhead_optimal_count(r: float, k: float) -> OverheadResult:
    """Cost-optimal release count for load ``r`` with per-release overhead ``k``.

    Minimises ``n * k + excess(r, n)`` over ``n in {1, ..., ceil(r)}`` (larger
    counts only add overhead).  The cost is convex with relaxed minimiser
    :func:`continuous_relaxed_count`, so only the floor and the ceiling of that
    point, clamped to ``[1, ceil(r)]``, are evaluated.  Those whose cost is within
    ``1e-12 * max(1, cost)`` of the smaller cost tie, by the threshold band's rule, and
    ``n_star`` is the smallest tie.

    No cost ``n k + excess(r, n)`` with ``n <= ceil r`` leaves the float range in the
    domain, where ``r`` and ``k`` are at most 1e100: the excess is below ``r``, so the
    cost is below ``(r + 1) k + r``, about 1e200.
    """
    relaxed = continuous_relaxed_count(r, k)  # checks r and k
    ties, cost, excess = _optimal_counts(r, k, relaxed, _safe_count(r))
    return OverheadResult(
        n_star=ties[0],
        cost=cost,
        residual_exposure=excess,
        is_fully_safe=excess == 0.0,
        ties=ties,
    )


def _optimal_counts(r: float, k: float, relaxed: float,
                    n_safe: int) -> tuple[tuple[int, ...], float, float]:
    """:func:`overhead_optimal_count` of checked ``r`` and ``k``, at their relaxed count
    ``relaxed`` and safe count ``n_safe``: the ties, and the cost and excess of the first."""
    lo = min(max(1, math.floor(relaxed)), n_safe)
    hi = min(max(1, math.ceil(relaxed)), n_safe)
    excess_lo, excess_hi = _excess(r, (lo, hi))
    cost_lo = lo * k + excess_lo
    if hi == lo:  # the floor and the ceiling are one count
        return (lo,), cost_lo, excess_lo
    cost_hi = hi * k + excess_hi
    best = min(cost_lo, cost_hi)
    tie = best + _tolerance(best, _TIE_REL)
    if cost_lo > tie:
        return (hi,), cost_hi, excess_hi
    return ((lo, hi) if cost_hi <= tie else (lo,)), cost_lo, excess_lo


def k_safe(r: float) -> float:
    """Largest overhead at which the fully safe count stays cost-optimal.

    ``+inf`` when one release is already safe (``ceil(r) = 1``); otherwise the
    exposure ``excess(r, ceil(r) - 1)`` removed by the last stage, by convexity
    the least per extra stage.  Full safety is optimal exactly when ``k <= k_safe(r)``.
    ``ceil(r)`` carries the guard of :func:`minimal_safe_count`.  The value is
    :func:`excess_exposure` at ``(r, ceil(r) - 1)``, bit for bit, and within its bound
    there: up to 2.1e-7 relative at ``r = 4712.495943273464``.
    """
    return _k_safe(r, _safe_count(_number(r, "dimensionless load r", strict=True)))


def _k_safe(r: float, n_safe: int) -> float:
    """:func:`k_safe` of a checked load ``r`` whose safe count is ``n_safe``."""
    return math.inf if n_safe <= 1 else _excess(r, (n_safe - 1,))[0]


def continuous_relaxed_count(r: float, k: float) -> float:
    """Stationary point ``r * exp(-k)`` of the relaxed (non-integer) objective.

    The objective is convex, so the cost-optimal count is the floor or the
    ceiling of this point, clamped to ``[1, ceil(r)]``.
    """
    _number(r, "dimensionless load r", strict=True)
    return r * math.exp(-_number(k, "dimensionless overhead k"))

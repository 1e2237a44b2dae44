"""Phase-diagram data sets: capacity curves, the overhead sawtooth, and the
fixed-recovery allocation comparison.

Three plot-ready tables, all in dimensionless coordinates (load ``r``,
horizon ``h``, overhead ``k``):

* capacity curves ``B_n(h)`` for selected release counts, plus the limiting
  frontier ``1 + h`` that no finite count attains;
* the sawtooth ``k_safe(r)`` separating cost-optimal full safety from
  cost-optimal residual exposure, with the cost-optimal count at sampled
  overhead values;
* post-release levels of the uniform versus the front-loaded allocation for
  one finite-recovery configuration, with the decay path between releases.

Every row is a pure function of the grid and equal, bit for bit, to the public
per-point call (``horizon_capacity``, ``k_safe``, ``overhead_optimal_count``),
though the grids share the per-load and per-overhead work among their rows.
Rows are emitted in deterministic grid order.
"""
from __future__ import annotations

import math

from .allocation import _k_safe, _optimal_counts, _safe_count
from .errors import LeakyStageError
from .model import FrozenRecord, _count, _number
from .recovery import RecoveryConfig, _horizon_capacity, min_peak_plan, simulate_recurrence

__all__ = ["PanelC", "PhaseGrid", "feasibility_curves", "panel_c_comparison", "sawtooth_frontier"]

#: Offset applied on request to r-samples that sit on an integer, exposing
#: both sides of the sawtooth drop.
_INTEGER_NUDGE = 1e-6


class PhaseGrid(FrozenRecord):
    """Sampling ranges ``(min, max, count)`` for the phase tables.

    Only the ranges needed by the requested tables have to be present.
    ``n_curves`` lists the release counts for the capacity curves.
    """

    r_range: tuple[float, float, int] | None = None
    h_range: tuple[float, float, int] | None = None
    k_range: tuple[float, float, int] | None = None
    n_curves: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("r_range", "h_range", "k_range"):
            rng = getattr(self, name)
            if rng is None:
                continue
            lo, hi, count = rng
            _count(count, f"{name} count", 2)
            if not _number(lo, f"{name} min") < _number(hi, f"{name} max"):
                raise LeakyStageError(f"{name} must satisfy 0 <= min < max (got {lo!r}, {hi!r})")
        for n in self.n_curves:
            _count(n, "n_curves entry")


class PanelC(FrozenRecord):
    """Uniform versus front-loaded allocation at one (r, n, h) configuration.

    Levels are normalized by the critical level; times are in recovery units
    (rho * t).  ``*_levels`` rows are ``(stage, time, level)``; ``*_path``
    rows are ``(time, level)`` sampling the decay between releases.
    """

    r: float
    n: int
    h: float
    lam: float
    capacity: float
    uniform_releases: tuple[float, ...]
    front_releases: tuple[float, ...]
    uniform_levels: tuple[tuple[int, float, float], ...]
    front_levels: tuple[tuple[int, float, float], ...]
    uniform_path: tuple[tuple[float, float], ...]
    front_path: tuple[tuple[float, float], ...]


def _linspace(lo: float, hi: float, count: int, endpoint: bool = True,
              what: str = "count") -> list[float]:
    """``np.linspace(lo, hi, count, endpoint=endpoint)`` as a list, bit for bit.

    The same steps as numpy 2.x in the same order: ``i * step + lo``, or
    ``i / div * delta + lo`` when the step is zero (equal endpoints, or a
    difference so small that the step underflows), with the last sample set
    to ``hi`` when the endpoint is included.  A count too large to allocate
    raises :class:`LeakyStageError` naming it ``what``.
    """
    lo, hi = float(lo), float(hi)
    div = count - 1 if endpoint else count
    delta = hi - lo
    try:
        xs = [lo] * count  # at full length first, so that a count beyond memory fails at once
    except (OverflowError, MemoryError):
        raise LeakyStageError(
            f"{what} must be small enough to allocate its grid (got {count})") from None
    if div > 0 and delta / div == 0:
        for i in range(count):
            xs[i] = i / div * delta + lo
    else:
        step = delta / div if div > 0 else delta  # numpy scales by delta itself when div <= 0
        for i in range(count):
            xs[i] = i * step + lo
    if endpoint and count > 1:
        xs[-1] = hi
    return xs


def feasibility_curves(
    grid: PhaseGrid,
) -> tuple[tuple[tuple[float, int, float], ...], tuple[tuple[float, float], ...]]:
    """Tabulate ``B_n(h)`` for each requested count plus the ``1 + h`` frontier.

    Returns ``(feasibility, frontier)`` with rows ``(h, n, B_n(h))`` ordered
    by ``(n, h)`` and ``(h, 1 + h)``.
    """
    if grid.h_range is None or not grid.n_curves:
        raise LeakyStageError("feasibility curves need h_range and n_curves")
    hs = _linspace(*grid.h_range, what="h_range count")  # the grid's checks cover every n and h
    feasibility: list[tuple[float, int, float]] = []
    for n in grid.n_curves:
        feasibility += [(h, n, _horizon_capacity(n, h)) for h in hs]
    frontier = tuple((h, 1.0 + h) for h in hs)
    return tuple(feasibility), frontier


def sawtooth_frontier(
    grid: PhaseGrid, *, resolve_integers: bool = False
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float, int], ...]]:
    """Tabulate ``k_safe(r)`` and the cost-optimal count at sampled overheads.

    Returns ``(ksafe_rows, nstar_rows)`` with rows ``(r, k_safe(r))`` and
    ``(r, k, n_star)``, each equal bit for bit to :func:`~leakystage.allocation.k_safe`
    and ``overhead_optimal_count(r, k).n_star``.  With ``resolve_integers`` every
    r-sample within 1e-6 of an integer >= 2 is replaced by a pair straddling it,
    exposing the drop on both sides, where the floats resolve it: from about 1.7e10
    on, ``integer ± 1e-6`` rounds back to the integer and the one sample is kept.
    """
    if grid.r_range is None:
        raise LeakyStageError("the sawtooth frontier needs r_range")
    rs: list[float] = []
    for r in _linspace(*grid.r_range, what="r_range count"):
        nearest = round(r)
        if resolve_integers and nearest >= 2 and abs(r - nearest) < _INTEGER_NUDGE:
            below, above = nearest - _INTEGER_NUDGE, nearest + _INTEGER_NUDGE
            if below != nearest != above:
                rs.extend([below, above])
                continue
        if r > 0.0:
            rs.append(r)
    n_safes = [_safe_count(r) for r in rs]
    ksafe_rows = tuple((r, _k_safe(r, n_safe)) for r, n_safe in zip(rs, n_safes))
    nstar_rows: tuple[tuple[float, float, int], ...] = ()
    if grid.k_range is not None:
        ks = _linspace(*grid.k_range, what="k_range count")
        # r * exp(-k) is continuous_relaxed_count(r, k), bit for bit
        decays = [(k, math.exp(-k)) for k in ks]
        nstar_rows = tuple(
            (r, k, _optimal_counts(r, k, r * decay, n_safe)[0][0])
            for r, n_safe in zip(rs, n_safes)
            for k, decay in decays
        )
    return ksafe_rows, nstar_rows


def panel_c_comparison(
    r: float = 2.1, n: int = 3, h: float = 2.0, *, path_points: int = 41
) -> PanelC:
    """Compare the uniform split with the constant-peak allocation.

    ``n`` equally spaced releases inside horizon ``h`` leave the carry-over
    ``lam = exp(-h/(n-1))`` between stages.  Levels are emitted in threshold
    units: the uniform split piles up and can cross 1 even when the
    front-loaded profile (peak ``r / B_n(h)``) stays below it.
    """
    _count(n, "release count n", 2)
    _number(r, "dimensionless load r", strict=True)
    _number(h, "horizon h", strict=True)
    _count(path_points, "path_points", 2)
    spacing = h / (n - 1)
    lam = math.exp(-spacing)
    if not lam < 1.0:
        raise LeakyStageError(f"release count n={n} and horizon h={h!r} give a carry-over "
                              "exp(-h/(n-1)) that rounds to 1")
    config = RecoveryConfig(lam=lam, n=n, Q=r)
    try:
        uniform_releases = (r / n,) * n
    except (OverflowError, MemoryError):  # more releases than can be allocated
        raise LeakyStageError(
            f"release count n={n} must be small enough to allocate its plan") from None
    uniform = simulate_recurrence(config, uniform_releases)
    front = min_peak_plan(config)

    def levels(plan) -> tuple[tuple[int, float, float], ...]:
        return tuple(
            (k + 1, k * spacing, level) for k, level in enumerate(plan.post_levels)
        )

    def decay_path(plan) -> tuple[tuple[float, float], ...]:
        rows: list[tuple[float, float]] = []
        for k, level in enumerate(plan.post_levels):
            last = k == len(plan.post_levels) - 1
            xs = _linspace(0.0, spacing, path_points, last, "path_points")
            rows.extend((k * spacing + x, level * math.exp(-x)) for x in xs)
        return tuple(rows)

    return PanelC(
        r=r,
        n=n,
        h=h,
        lam=lam,
        capacity=_horizon_capacity(n, h),
        uniform_releases=uniform.releases,
        front_releases=front.releases,
        uniform_levels=levels(uniform),
        front_levels=levels(front),
        uniform_path=decay_path(uniform),
        front_path=decay_path(front),
    )

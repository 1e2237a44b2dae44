"""Impulsive simulation of the full two-variable system and its scalar envelope.

The scalar envelope is the pure-decay reservoir ``dA/dt = -rho A`` with
additive jumps at release times.  The full system couples an activity
coordinate ``S`` to the reservoir:

    dS/dt = S * ((beta - mu) - beta S + (delta - beta) A)
    dA/dt = -(rho + delta S) A

with the same jumps applied to ``A``.  Because the coupled reservoir drains at
least as fast, the envelope dominates the full reservoir pointwise under
identical impulses; a schedule that keeps the envelope below the critical
level is therefore a sufficient safety certificate for the full system.  The
verification helpers below check this dominance numerically, together with
the dissipation identity of the balance functional ``Phi = S + (alpha/delta) A``
and the bound of the log-growth of ``S`` by the integrated positive growth
pressure.

Both simulators walk the events with one private loop, which lays out the
samples around each jump (see :class:`Trajectory`); each says only how to
advance between two events.  The loop keeps each sampled column as a list of
chunks (one per inter-event segment, plus one per start or post-jump sample)
and joins it once with ``np.concatenate``.  :func:`simulate_full` returns the
same read-only trajectory again for a repeated identical call while the first
result is alive (so :func:`verify_envelope_dominance` after ``simulate_full``
integrates once); it holds the result by weak reference only, so nothing is
kept after the caller drops it.  Between events the envelope uses the exact
exponential (no integrator error); only the full system is integrated, with
classical fixed-step RK4 on a per-interval grid chosen so that every event
time is a grid node bit-exactly.
``S`` is advanced in log space, so it can never cross zero; ``S = 0`` is an
invariant manifold and is held exactly.  So is ``A = 0`` between jumps: a
segment that starts with an empty reservoir integrates ``log S`` alone.
Elsewhere the RK4 loop spells out the right-hand side in each stage and
subtracts the drain ``(rho + delta S) A`` rather than adding its negation, and
:func:`path_exposure` forms its trapezoid terms with numpy, the crossing
intervals included; all keep the operation order of the plain loops, so
results are the same bits.
"""
from __future__ import annotations

import math
import weakref

import numpy as np

from . import _ENVELOPE_NAMES
from .errors import LeakyStageError, ScheduleError
from .model import FrozenRecord, ModelParams, _number, derive, growth_pressure

__all__ = sorted(_ENVELOPE_NAMES)

#: Base absolute tolerance for the dominance check; see dominance_tolerance.
TOL_DOM = 1e-9


class ImpulseSchedule(FrozenRecord):
    """Ordered release events ``(time, size)`` with strictly increasing times."""

    events: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        events = []
        previous = -math.inf
        for i, (t, q) in enumerate(self.events):
            t = float(_number(t, f"event {i} time", error=ScheduleError))
            if t <= previous:
                raise ScheduleError(f"event times must be strictly increasing (event {i} at {t!r})")
            events.append((t, float(_number(q, f"event {i} size", error=ScheduleError))))
            previous = t
        try:
            math.fsum(q for _, q in events)
        except OverflowError:
            raise ScheduleError(
                "the schedule's event sizes must sum below the float range") from None
        object.__setattr__(self, "events", tuple(events))

    @property
    def total(self) -> float:
        return math.fsum(q for _, q in self.events)

    @property
    def sizes(self) -> tuple[float, ...]:
        return tuple(q for _, q in self.events)


class Trajectory(FrozenRecord):
    """Sampled piecewise path with duplicated samples at jump times.

    ``jump_indices[j]`` is the index of the pre-jump sample of event ``j``;
    the post-jump sample follows at the next index with the same time.
    ``S`` is None for envelope trajectories.  ``clamp_count`` counts negative
    excursions of the integrated reservoir that were clamped to zero (zero at
    sane step sizes).
    """

    t: np.ndarray
    A: np.ndarray
    S: np.ndarray | None
    jump_indices: np.ndarray
    jump_sizes: np.ndarray
    clamp_count: int = 0

    def __post_init__(self) -> None:
        for array in (self.t, self.A, self.S, self.jump_indices, self.jump_sizes):
            if array is not None:
                array.setflags(write=False)


class EnvelopeCheck(FrozenRecord):
    """Numbers produced by the envelope verification runs.

    ``max_violation`` is the largest sample of ``A_full - A_red`` (negative
    when dominance holds with margin).  The log fields are None when the run
    started from ``S = 0``.
    """

    max_violation: float
    exposure_full: float
    exposure_red: float
    log_growth: float | None
    log_bound: float | None


def dominance_tolerance(T: float, h_step: float) -> float:
    """Allowed dominance defect: base slack plus an RK4 error allowance."""
    _number(T, "horizon T")
    _number(h_step, "step size", strict=True)
    return TOL_DOM + 10.0 * T * h_step**4


def _segment_nodes(t0: float, t1: float, h_step: float) -> np.ndarray:
    """Uniform nodes covering (t0, t1], with step <= h_step dividing it exactly."""
    width = t1 - t0
    try:
        n = max(1, math.ceil(width / h_step - 1e-12))
        nodes = t0 + width * np.arange(1, n + 1) / n
    except (OverflowError, ValueError, MemoryError):  # more nodes than can be allocated
        raise LeakyStageError(
            f"step size {h_step!r} needs more samples on [{t0!r}, {t1!r}] than can be allocated"
        ) from None
    nodes[-1] = t1  # land on the event bit-exactly
    return nodes


def _check_grid(schedule: ImpulseSchedule, T: float, h_step: float) -> None:
    """The horizon and step checks both simulators make first, in this order."""
    _number(T, "horizon T")
    if schedule.events and schedule.events[-1][0] > T:
        raise LeakyStageError(
            f"horizon T={T!r} lies before the last event at {schedule.events[-1][0]!r}"
        )
    _number(h_step, "step size", strict=True)


def _walk(
    schedule: ImpulseSchedule, T: float, state: tuple, advance
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Lay out a sampled path on the event-aligned grid (see :class:`Trajectory`).

    ``state`` is the initial state, whose last entry is the reservoir level that
    the jumps add to.  ``advance(state, t0, t1)`` returns an array of the node
    times on ``(t0, t1]`` followed by one array of node samples per state entry;
    the last samples, as floats, are the next state.  Each column is kept as a
    list of chunks (node arrays, and 1-tuples for the start and the post-jump
    samples) and joined once.  Returns the samples per state entry and the
    :class:`Trajectory` fields of the layout.  A jump to a level past the float
    range raises :class:`ScheduleError` naming its event.
    """
    times: list = [(0.0,)]
    columns = [[(x,)] for x in state]
    count = 1  # samples laid out so far
    jump_indices: list[int] = []
    current_t = 0.0
    for j, (event_t, size) in enumerate((*schedule.events, (T, None))):
        if event_t > current_t:
            nodes, *segments = advance(state, current_t, event_t)
            times.append(nodes)
            for column, segment in zip(columns, segments):
                column.append(segment)
            state = tuple(float(segment[-1]) for segment in segments)
            count += len(nodes)
            current_t = event_t
        if size is None:
            continue
        jump_indices.append(count - 1)
        state = (*state[:-1], state[-1] + size)
        if state[-1] == math.inf:
            raise ScheduleError(
                f"the release of event {j} at t={event_t!r} lifts the level past the float range")
        times.append((event_t,))
        for column, x in zip(columns, state):
            column.append((x,))
        count += 1
    return [np.concatenate(column) for column in columns], {
        "t": np.concatenate(times),
        "jump_indices": np.asarray(jump_indices, dtype=int),
        "jump_sizes": np.asarray(schedule.sizes, dtype=float),
    }


def simulate_envelope(
    schedule: ImpulseSchedule,
    params: ModelParams,
    T: float,
    h_step: float,
    *,
    a0: float = 0.0,
) -> Trajectory:
    """Sample the scalar envelope on the event-aligned grid.

    Between events the exact solution ``A(t) = A(t_k^+) exp(-rho (t - t_k))``
    is evaluated on the grid; jumps are applied exactly at event times, with
    pre- and post-jump samples both stored.
    """

    def decay(state, t0, t1):
        nodes = _segment_nodes(t0, t1, h_step)
        return nodes, state[0] * np.exp(-params.rho * (nodes - t0))

    _check_grid(schedule, T, h_step)
    (levels,), layout = _walk(schedule, T, (_number(a0, "initial level a0"),), decay)
    return Trajectory(A=levels, S=None, **layout)


def _rk4_segment(
    u: float, A: float, t0: float, t1: float, h_step: float, params: ModelParams
) -> tuple[np.ndarray, list[float], list[float], int]:
    """Advance (log S, A) over [t0, t1] with fixed-step RK4; return node times and samples.

    ``A = 0`` is an invariant manifold between jumps, as ``S = 0`` is: a segment
    that starts at ``A == 0.0`` (either sign) runs only the ``u`` stages, whose
    right-hand side ``alpha * A`` term adds a zero that leaves every bit alone, and
    its levels are ``+0.0``, as the full stages give from the first node on.  On
    that manifold ``du <= beta - mu < 0``, so the first stage's drain
    ``rho + delta S`` is the segment's largest; where it overflows, the full
    stages run, since ``inf * 0.0`` makes their level NaN.  Stages with a level
    advance ``A`` by the drain ``p = (rho + delta S) A`` subtracted, not by
    ``-p`` added: the same bits unless ``A`` is ``-0.0``, which the first branch
    takes.
    """
    beta, mu, delta, rho = params.beta, params.mu, params.delta, params.rho
    alpha = delta - beta
    growth = beta - mu
    exp = math.exp
    nodes = _segment_nodes(t0, t1, h_step)
    n = len(nodes)
    h = (t1 - t0) / n
    half, sixth = 0.5 * h, h / 6.0
    us = [0.0] * n
    if A == 0.0 and rho + delta * exp(u) < math.inf:
        for i in range(n):
            du1 = growth - beta * exp(u)
            du2 = growth - beta * exp(u + half * du1)
            du3 = growth - beta * exp(u + half * du2)
            u = u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + (growth - beta * exp(u + h * du3)))
            us[i] = u
        return nodes, us, [0.0] * n, 0
    As = [0.0] * n
    clamped = 0
    for i in range(n):
        s = exp(u)
        du1, p1 = growth - beta * s + alpha * A, (rho + delta * s) * A
        A2 = A - half * p1
        s = exp(u + half * du1)
        du2, p2 = growth - beta * s + alpha * A2, (rho + delta * s) * A2
        A3 = A - half * p2
        s = exp(u + half * du2)
        du3, p3 = growth - beta * s + alpha * A3, (rho + delta * s) * A3
        A4 = A - h * p3
        s = exp(u + h * du3)
        u = u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + (growth - beta * s + alpha * A4))
        A = A - sixth * (p1 + 2.0 * p2 + 2.0 * p3 + (rho + delta * s) * A4)
        if A < 0.0:
            A = 0.0
            clamped += 1
        us[i] = u
        As[i] = A
    return nodes, us, As, clamped


#: The last :func:`simulate_full` call: a key of its inputs and a weak reference
#: to the trajectory it returned, replaced as one tuple so that a key always
#: comes with its own result.
_last_full: tuple = (None, lambda: None)


def simulate_full(
    schedule: ImpulseSchedule,
    params: ModelParams,
    S0: float,
    A0: float,
    T: float,
    h_step: float,
) -> Trajectory:
    """Integrate the full coupled system with impulses applied to ``A``.

    Uses classical RK4 with a per-interval uniform step no larger than
    ``h_step`` chosen to divide each inter-event gap exactly, so impulses
    land on grid nodes.  ``S`` is integrated in log space; a start at
    ``S0 = 0`` stays on the invariant manifold ``S = 0`` exactly.  A segment that
    overflows or ends in NaN raises :class:`LeakyStageError` naming, in this order, the
    release if no step up to ``T`` resolves its growth rate (``alpha A ulp(T) > 1``) or
    ``6 alpha A`` overflows the RK4 stage sum, ``S0`` if the path turned NaN, as where
    the drain ``(rho + delta S) A`` passes the float range, or else the step.

    A call whose inputs equal the previous call's bit for bit (``-0.0`` is not
    ``0.0``, an ``int`` is not a ``float``) returns the same read-only
    trajectory object, without integrating again, while that object is alive
    and its arrays are still read-only.  Only a weak reference is kept, so
    nothing outlives the caller's last reference to the result.
    """
    global _last_full
    _check_grid(schedule, T, h_step)
    _number(S0, "S0")
    _number(A0, "A0")
    # repr tells -0.0 from 0.0, and the class an int from an equal float
    numbers = (*params._values(), S0, A0, T, h_step)
    key = repr([schedule.events, *[(x.__class__, x) for x in numbers]])
    last_key, last = _last_full
    cached = last()
    if key == last_key and cached is not None and not any(
        array.flags.writeable
        for array in (cached.t, cached.A, cached.S, cached.jump_indices, cached.jump_sizes)
    ):
        return cached
    clamp_count = 0
    alpha = params.delta - params.beta

    def rk4(state, t0, t1):
        nonlocal clamp_count
        try:
            nodes, us, levels, clamped = _rk4_segment(*state, t0, t1, h_step, params)
        except OverflowError:
            nan = False
        else:
            nan = math.isnan(us[-1]) or math.isnan(levels[-1])  # a NaN lasts to the segment's end
            if not nan:
                clamp_count += clamped
                # fromiter reads a list of floats about twice as fast as concatenate would
                return [nodes, *(np.fromiter(x, float, len(x)) for x in (us, levels))]
        level = state[1]
        # a step of about 1 / (alpha * A) is finer than the spacing of the times up to T,
        # or the log S stage sum du1 + 2 du2 + 2 du3 + du4 overflows on alpha * A alone
        if alpha * level * math.ulp(T) > 1.0 or 6.0 * alpha * level == math.inf:
            raise LeakyStageError(
                f"RK4 overflowed on the level A={level!r} at t={t0!r}, whose growth rate "
                f"alpha * A no step up to T={T!r} resolves; reduce the release")
        if nan:
            raise LeakyStageError(
                f"S0={S0!r} overflows the RK4 drain (rho + delta*S) * A at the level "
                f"A={level!r} from t={t0!r} on; reduce S0")
        raise LeakyStageError(f"RK4 overflowed at step {h_step!r}; reduce the step")

    u0 = math.log(S0) if S0 > 0.0 else -math.inf
    (us, levels), layout = _walk(schedule, T, (u0, A0), rk4)
    trajectory = Trajectory(A=levels, S=np.exp(us), clamp_count=clamp_count, **layout)
    _last_full = key, weakref.ref(trajectory)
    return trajectory


def path_exposure(trajectory: Trajectory, params: ModelParams) -> float:
    """Integral of the positive growth pressure along a sampled path.

    Composite trapezoid with kink refinement: where the pressure changes
    sign inside a sample interval, the crossing time is inserted as a
    breakpoint by linear interpolation of the pressure, the one rule for the
    full system and the envelope alike.  Duplicated jump samples contribute
    nothing (zero width).  The terms are summed left to right, as a running
    total would be.  A total past the float range raises :class:`LeakyStageError`.
    """
    t = trajectory.t
    g = growth_pressure(trajectory.A, params)
    dt = np.diff(t)
    gi, gj = g[:-1], g[1:]
    live = dt > 0.0
    active = (gi >= 0.0) & (gj >= 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked below
        terms = np.where(live & active, 0.5 * (gi + gj) * dt, 0.0)
        # one endpoint active: split at the crossing; g[i] and g[i + 1] have strictly
        # opposite signs there, so neither branch divides by zero
        i = np.flatnonzero(live & ~active & ~((gi <= 0.0) & (gj <= 0.0)))
        t0, t1, g0, g1 = t[i], t[i + 1], gi[i], gj[i]
        t_cross = t0 + dt[i] * g0 / (g0 - g1)
        terms[i] = np.where(g0 > 0.0, 0.5 * g0 * (t_cross - t0), 0.5 * g1 * (t1 - t_cross))
        # not np.sum, which adds pairwise: cumsum from 0.0 is the running total
        total = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    if not math.isfinite(total):
        raise LeakyStageError(
            f"the path's exposure passes the float range (got {total!r}) at levels up to "
            f"A={float(trajectory.A.max())!r}; reduce the releases")
    return total


def verify_envelope_dominance(
    schedule: ImpulseSchedule,
    params: ModelParams,
    S0: float,
    T: float,
    h_step: float,
    *,
    a0: float = 0.0,
) -> EnvelopeCheck:
    """Run both simulations on one grid and measure the dominance defect.

    Violations are reported in the returned numbers, never raised: the
    dominance property is exact, so any positive ``max_violation`` beyond
    :func:`dominance_tolerance` indicates a broken integration, not a model
    property.
    """
    red = simulate_envelope(schedule, params, T, h_step, a0=a0)
    full = simulate_full(schedule, params, S0, a0, T, h_step)
    max_violation = float(np.max(full.A - red.A))
    # Both integrals use the same linearly-interpolated crossing rule: the
    # per-interval contribution is monotone in the endpoint pressures, so
    # pointwise dominance carries over to the sums without quadrature bias.
    exposure_red = path_exposure(red, params)
    exposure_full = path_exposure(full, params)
    # the log-growth bound is the full path's exposure: reuse it
    if S0 > 0.0:
        log_growth, log_bound = _log_growth(full), exposure_full
    else:
        log_growth, log_bound = None, None
    return EnvelopeCheck(
        max_violation=max_violation,
        exposure_full=exposure_full,
        exposure_red=exposure_red,
        log_growth=log_growth,
        log_bound=log_bound,
    )


def _balance(trajectory: Trajectory, params: ModelParams) -> tuple[float, np.ndarray]:
    """``alpha/delta`` and the samples of ``Phi = S + (alpha/delta) A``."""
    if trajectory.S is None:
        raise LeakyStageError("balance checks need a full-system trajectory with S samples")
    ratio = derive(params).alpha / params.delta
    return ratio, trajectory.S + ratio * trajectory.A


def balance_jump_residuals(trajectory: Trajectory, params: ModelParams) -> np.ndarray:
    """Per-jump defect of the balance increment ``Delta Phi = (alpha/delta) q``."""
    ratio, phi = _balance(trajectory, params)
    idx = trajectory.jump_indices
    return np.abs((phi[idx + 1] - phi[idx]) - ratio * trajectory.jump_sizes)


def verify_balance_identity(trajectory: Trajectory, params: ModelParams) -> float:
    """Max defect of the balance dissipation identity between jumps.

    Differentiates ``Phi = S + (alpha/delta) A`` by central differences
    at the samples inside the smooth pieces (neither an end of the path nor
    beside a jump) and compares with
    ``-gamma S - beta S^2 - (alpha rho / delta) A``.  The defect converges
    at second order in the sampling step.  Jump increments are checked
    separately by :func:`balance_jump_residuals`.
    """
    ratio, phi = _balance(trajectory, params)
    t, S, A = trajectory.t, trajectory.S, trajectory.A
    rhs = -derive(params).gamma * S - params.beta * S**2 - ratio * params.rho * A
    interior = np.ones(len(t), dtype=bool)
    interior[[0, -1]] = False
    interior[trajectory.jump_indices] = interior[trajectory.jump_indices + 1] = False
    dphi = (phi[2:] - phi[:-2]) / (t[2:] - t[:-2])
    defects = np.abs(dphi - rhs[1:-1])[interior[1:-1]]
    return float(np.max(defects)) if defects.size else 0.0


def _log_growth(trajectory: Trajectory) -> float:
    """``log(S(T)/S(0))`` of a full-system trajectory that starts with ``S > 0``."""
    if trajectory.S is None:
        raise LeakyStageError("log-growth checks need a full-system trajectory with S samples")
    s_start, s_end = float(trajectory.S[0]), float(trajectory.S[-1])
    if s_start <= 0.0:
        raise LeakyStageError(f"log growth needs S(0) > 0 (got {s_start!r})")
    return -math.inf if s_end == 0.0 else math.log(s_end) - math.log(s_start)


def verify_log_growth_bound(
    trajectory: Trajectory, params: ModelParams
) -> tuple[float, float]:
    """Log-growth of ``S`` versus the integrated positive growth pressure.

    Returns ``(log(S(T)/S(0)), integral of [g(A)]_+ dt)`` computed on the
    sample grid; the first never exceeds the second beyond quadrature error.
    :func:`verify_envelope_dominance` integrates the full path once and already
    returns this pair as ``EnvelopeCheck.log_growth`` and ``log_bound``.
    """
    return _log_growth(trajectory), path_exposure(trajectory, params)

"""Single-release threshold exposure: closed form and derivatives.

A release of size ``q`` into an empty reservoir decays as ``q * exp(-rho t)``.
The exposure is the time-integral of the positive part of the growth pressure
along that path.  It is identically zero on ``[0, delta_c]`` (the zero
buffer), convex, continuously differentiable at the threshold, and has
quadratic onset just above it.

``exposure_closed_form`` is the production path.  The independent quadrature
routes that check it live with the other oracles in ``tests/util.py``, so the
package needs no numerical integrator at run time.  All functions are pure and
thread-safe.
"""
from __future__ import annotations

import math
import struct
import sys
from typing import TYPE_CHECKING

from .errors import LeakyStageError
from .model import EPS_THR, DerivedConstants, FrozenRecord, ModelParams, _float_array, _floats
from .model import _number, derive

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ExposureValue", "exposure_batch", "exposure_closed_form", "exposure_derivative",
           "exposure_near_threshold"]

#: Below this relative overshoot ``x = q/delta_c - 1`` the exposure bracket
#: ``q - delta_c - delta_c log(q/delta_c) = delta_c (x - log1p(x))`` is summed
#: from its Taylor series.  The bracket is about ``delta_c x**2 / 2`` while the
#: terms it subtracts are of order ``delta_c``, so evaluating it directly leaves
#: a relative error of about 1e-16/x**2: 1e-2 at x = 1e-7, and below x = 1e-9
#: the sign can flip.  Above the switch that error stays under
#: ``5e-14 * max(1, |log q|)``, as does the gap that a last-bit difference
#: between numpy's and the math module's logarithms makes.
_SERIES_SWITCH = 0.1

#: Coefficients of ``(x - log1p(x)) / x**2 = 1/2 - x/3 + x**2/4 - ...``; the
#: omitted terms are below 2e-17 relative for ``|x| <= _SERIES_SWITCH``.
_ONSET_SERIES = tuple((-1.0) ** k / k for k in range(2, 18))

#: Elements per block of :func:`exposure_batch`: its 0.8 MB of sizes, values and scratch stay in L2.
_BLOCK = 1 << 15


class ExposureValue(FrozenRecord):
    """Exposure of one release: integral value and duration above threshold.

    ``value`` is in time units and is exactly 0.0 if and only if the release
    never exceeds the critical level (``active_duration == 0``).
    """

    value: float
    active_duration: float

    def __post_init__(self) -> None:
        # both fields finite and nonnegative, and zero together
        if (_number(self.value, "exposure value") == 0.0) != (
                _number(self.active_duration, "active duration") == 0.0):
            raise LeakyStageError("exposure is zero exactly when the active duration is zero")


def _onset(x):
    """``(x - log1p(x)) / x**2`` by Horner's rule on its Taylor series.

    Accurate to rounding for ``|x| <= _SERIES_SWITCH``.  ``x`` is a float or an
    array, and each element of an array gets the bits of its float.
    """
    acc = x * 0.0 + _ONSET_SERIES[-1]
    for c in _ONSET_SERIES[-2::-1]:
        acc *= x
        acc += c
    return acc


def _onset_bracket(q, delta_c: float):
    """:func:`exposure_bracket` of ``delta_c < q < delta_c * (1 + _SERIES_SWITCH)`` by its
    series; ``q`` is a float or an array."""
    x = (q - delta_c) / delta_c  # the numerator is exact here
    return delta_c * x * x * _onset(x)


def exposure_bracket(q: float, delta_c: float) -> float:
    """``q - delta_c - delta_c log(q/delta_c)`` for ``q > delta_c``, without cancellation.

    The exposure of one release, and of ``n`` equal releases with ``delta_c``
    replaced by the capacity ``n * delta_c``, is this times ``alpha / rho``.
    """
    if q < delta_c * (1.0 + _SERIES_SWITCH):
        return _onset_bracket(q, delta_c)
    return q - delta_c - delta_c * (math.log(q) - math.log(delta_c))


def _releases(sizes, d: DerivedConstants, rho: float, eps_thr: float) -> list[list[float]]:
    """Rows ``[q, value, derivative, active_duration]``, one per checked release size ``q``.

    The one spelling of a release's exposure: a comprehension over the column, with the
    table's constants taken once.  :func:`exposure_closed_form` and
    :func:`exposure_derivative` pass a one-size column, and :func:`exposure_table` its
    sizes, so all three give the same bits; the bracket is :func:`exposure_bracket`'s.
    The callers check the sizes (:func:`_valued`) and ``eps_thr`` and judge the faults.
    """
    delta_c, edge, scale = d.delta_c, d.delta_c + eps_thr, d.alpha / rho
    # log(q / delta_c): log1p keeps every digit near the threshold, where q - delta_c is
    # exact; the difference of logarithms stands in only where x overflows
    return [[q, 0.0, 0.0, 0.0] if q <= edge else
            [q, scale * exposure_bracket(q, delta_c), scale * (1.0 - delta_c / q),
             (math.log1p(x) if x < math.inf else math.log(q) - math.log(delta_c)) / rho]
            for q in sizes for x in ((q - delta_c) / delta_c,)]


def _fault(value: float, active_duration: float) -> tuple[str, str, str] | None:
    """How a release's exposure leaves the float range, as the field, the rule it breaks
    and what it got, or None, which implies the checks of :class:`ExposureValue`.

    The four ways out are a value or an active duration past the range (NaN fails too)
    and either one underflowing to 0.0 while the other does not.  The one judge of every
    path: :func:`exposure_batch` judges and values the sizes that may leave the range on
    the scalar path."""
    if not (0.0 <= value < math.inf and 0.0 <= active_duration < math.inf):
        field, got = (("exposure value", value) if not 0.0 <= value < math.inf
                      else ("active duration", active_duration))
        return field, "finite and >= 0", repr(float(got))
    if (value == 0.0) != (active_duration == 0.0):
        if value == 0.0:
            return "exposure value", f"> 0 at the active duration {active_duration!r}", "0.0"
        return "active duration", f"> 0 at the exposure value {value!r}", "0.0"
    return None


def _fault_error(release: str, field: str, rule: str, got: str) -> LeakyStageError:
    """The error for a :func:`_fault` of ``release``, labelled as its caller names it."""
    return LeakyStageError(f"{field} of release {release} must be {rule} (got {got})")


def exposure_closed_form(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> ExposureValue:
    """Closed-form threshold exposure of a single release of size ``q``.

    Returns exactly 0.0 for ``q <= delta_c`` (within ``eps_thr``); above the
    threshold the value is ``(delta-beta)/rho * (q - delta_c - delta_c *
    log(q/delta_c))`` and the active duration is ``log(q/delta_c)/rho``.

    From the float ``alpha`` and ``delta_c`` of :func:`~leakystage.model.derive`, the
    value lies within ``2.5e-14 (1 + |log delta_c|)`` relative of the exact one and the
    active duration within 2 eps (2**-52) relative.  The value's error peaks just above
    the series switch, where the log difference cancels: in 100,000 sizes per
    ``delta_c`` from the plateau's edge to 1e300, the worst seen was 3.1e-14, 5.4e-14 and
    1.46e-13 at ``delta_c`` = 1/3, 0.06 and 1e-3, and 1.17 eps for the duration.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    [[_, value, _, active_duration]] = _releases((_valued(q, "release size q"),), derive(params),
                                                 params.rho, eps_thr)
    fault = _fault(value, active_duration)
    if fault:
        raise _fault_error(f"q={q!r}", *fault)
    return ExposureValue(value=value, active_duration=active_duration)


def exposure_table(sizes, params: ModelParams, *, eps_thr: float = EPS_THR) -> list[list[float]]:
    """Rows ``[q, value, derivative, active_duration]``, one per release size ``q``.

    Each row holds the bits of :func:`exposure_closed_form` and
    :func:`exposure_derivative`; the constants are derived once for the whole table.
    :func:`_fault` judges the rows whose size lies past the plateau's edge and outside
    the size window of :func:`exposure_batch`, the only ones whose exposure may leave
    the float range; the others meet the invariants of :class:`ExposureValue` as they
    stand.  A bad size or a fault raises :class:`LeakyStageError` naming the first such
    index as ``sizes[i]``.
    """
    return _table(sizes, params, eps_thr,
                  lambda i, q, fault: _fault_error(f"sizes[{i}] = {q!r}", *fault))


def _table(sizes, params: ModelParams, eps_thr: float, error) -> list[list[float]]:
    """The rows of :func:`exposure_table`; an exposure that leaves the float range raises
    ``error(i, q, fault)``, the error for the :func:`_fault` that names the size ``q`` at
    index ``i`` as its caller labels it.

    The sizes are checked once for the list when all are floats in range, else one by one
    up to the first bad size, whose error is raised after the rows before it are judged."""
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    sizes, bad = list(sizes), None
    column = sizes
    if not _floats(sizes):
        column = []
        for i, q in enumerate(sizes):
            try:
                column.append(_valued(q, f"release size sizes[{i}]"))
            except LeakyStageError as exc:
                bad = exc
                break
    rows = _releases(column, d, rho, eps_thr)
    if column is not sizes:  # each row holds its size as given
        for row, q in zip(rows, sizes):
            row[0] = q
    edge = d.delta_c + eps_thr
    floor, ceiling = _window(d, rho, edge)
    if rows and (floor > edge or max(column) > ceiling):
        for i, (q, row) in enumerate(zip(column, rows)):
            if (q > ceiling or edge < q < floor) and (fault := _fault(row[1], row[3])):
                raise error(i, sizes[i], fault)
    if bad:
        raise bad
    return rows


def _valued(q, what: str):
    """The release size ``q``, checked by :func:`_number` and named ``what`` in its error,
    as its row is valued: a float subclass such as ``numpy.float64``, whose arithmetic
    warns past the float range, as a float."""
    q = _number(q, what)
    return float(q) if isinstance(q, float) else q


def _window(d: DerivedConstants, rho: float, edge: float) -> tuple[float, float]:
    """The sizes ``(floor, ceiling)`` between which no release's exposure leaves the float
    range: :func:`exposure_batch` sends the sizes past the plateau's ``edge`` and outside
    them to the scalar path.

    Up to rounding, the bracket, the value and the active duration grow with the size.
    Past the ceiling, the lesser of ``1e307 / scale`` and the size whose active duration
    is 1e307, a value or a duration may overflow.  Below the floor one may underflow: the
    floor is the edge unless the first size past it underflows, and else the least float
    at which neither does, found by bisection first on ``e`` in ``delta_c + 2**e`` and
    then on the floats between ``delta_c + 2**(e-1)`` and ``delta_c + 2**e``.  The window
    is empty where no size can be trusted, as where ``scale`` is 0.0 or infinite."""
    delta_c, scale, tiny = d.delta_c, d.alpha / rho, sys.float_info.min

    def underflows(q: float) -> bool:
        return not (min(scale, 1.0) * exposure_bracket(q, delta_c) >= tiny
                    and math.log1p((q - delta_c) / delta_c) / rho >= tiny)

    try:
        longest = math.exp(math.log(delta_c) + 1e307 * rho)
    except OverflowError:
        longest = math.inf
    ceiling = max(edge, min(1e307 / scale if scale else math.inf, longest))
    if not underflows(math.nextafter(edge, math.inf)):
        return edge, ceiling
    # bisect on e: delta_c + 2**-1075 is delta_c, which underflows, and 2**1024 is past
    # the range, which stands for no size at all
    under, over = -1075, 1024
    while over - under > 1:
        e = (under + over) // 2
        if underflows(delta_c + math.ldexp(1.0, e)):
            under = e
        else:
            over = e
    if over == 1024:
        return math.inf, ceiling

    # then on the floats between delta_c + 2**under and delta_c + 2**over: the bit
    # patterns of positive floats, read as integers, are in the floats' order
    def bits(q: float) -> int:
        return struct.unpack("<q", struct.pack("<d", q))[0]

    def size(pattern: int) -> float:
        return struct.unpack("<d", struct.pack("<q", pattern))[0]

    low, high = bits(delta_c + math.ldexp(1.0, under)), bits(delta_c + math.ldexp(1.0, over))
    while high - low > 1:
        middle = (low + high) // 2
        if underflows(size(middle)):
            low = middle
        else:
            high = middle
    return size(high), ceiling


def exposure_batch(
    q, params: ModelParams, *, eps_thr: float = EPS_THR
) -> np.ndarray:
    """Vectorised exposure values for an array of release sizes.

    Same piecewise formula as :func:`exposure_closed_form`, with the same
    series switch near the threshold; plateau entries are exact zeros.
    Intended for grid searches over many candidate splits.  The result is a
    C-ordered float array of the shape of ``q``.

    On the plateau and below the series switch, which gathers a block's sizes
    for the scalar path's own :func:`_onset_bracket`, each value is bit-equal to
    :func:`exposure_closed_form`.  Above the switch the two agree within
    ``5e-14 * max(1, |log q|)`` relative: ``np.log`` and ``math.log`` can
    differ in the last bit, which the bracket's cancellation magnifies.

    The sizes are checked block by block, each block read, checked and finished
    while it sits in cache: a NaN, negative or infinite size raises
    :class:`LeakyStageError`.  A size whose exposure may leave the float range is judged
    and valued on the scalar path, by :func:`_fault`.  The first bad size or fault
    raises as :func:`exposure_table` does, naming its index.  No numpy warning escapes.
    """
    import numpy as np

    q = _float_array(q, "release sizes")
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    delta_c, scale = d.delta_c, d.alpha / rho
    log_delta_c, edge = math.log(delta_c), delta_c + eps_thr
    switch = delta_c * (1.0 + _SERIES_SWITCH)
    floor, ceiling = _window(d, rho, edge)
    out = np.empty(q.shape)
    # np.log can round a size read at a negative stride differently, so the sizes are
    # read contiguously; out is C-ordered, so its reshape is a view
    sizes, values = q.ravel(), out.reshape(-1)

    def label(i):  # the size at flat index i, as exposure_table names it
        return f"sizes[{', '.join(map(str, np.unravel_index(i, q.shape)))}]" if q.ndim else "sizes"

    def scalar(start, qb):  # the sizes of qb, from flat index start, outside the window
        at = np.flatnonzero((qb > ceiling) | ((qb > edge) & (qb < floor)))
        rows = _table(qb[at].tolist(), params, eps_thr, lambda i, q, fault: (
            _fault_error(f"{label(start + int(at[i]))} = {q!r}", *fault)))
        return at, [row[1] for row in rows]

    # log(0.0) on the plateau is zeroed below, and the sizes outside the window, with any
    # overflow, underflow or NaN, are judged and valued on the scalar path
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, sizes.size, _BLOCK):
            qb, ob = sizes[start:start + _BLOCK], values[start:start + _BLOCK]
            low, top = qb.min(), qb.max()
            if not (low >= 0.0 and top < math.inf):  # NaN fails both tests
                i = int(np.flatnonzero(~((qb >= 0.0) & (qb < math.inf)))[0])
                scalar(start, qb[:i])  # a fault before the bad size raises first
                _number(float(qb[i]), f"release size {label(start + i)}")  # raises
            if top <= edge:  # all on the plateau, as the first blocks of a grid from 0 are
                ob.fill(0.0)
                continue
            # q - delta_c - delta_c * (log q - log delta_c), in exposure_bracket's order
            t = np.log(qb)
            t -= log_delta_c
            t *= delta_c
            np.subtract(qb, delta_c, out=ob)
            ob -= t
            if low <= edge:  # the plateau, inf where q is 0.0
                ob[qb <= edge] = 0.0
            ob *= scale
            if low < switch:  # edge < q < switch takes the series; most blocks have no such q
                onset = np.flatnonzero((qb < switch) & (qb > edge))
                ob[onset] = scale * _onset_bracket(qb[onset], delta_c)
            if top > ceiling or (floor > edge and low < floor):
                at, scalar_values = scalar(start, qb)
                ob[at] = scalar_values
    return out


def exposure_derivative(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> float:
    """Marginal exposure per unit release size.

    Exactly 0.0 on the plateau, ``(delta-beta)/rho * (1 - delta_c/q)`` above
    it; continuous at the threshold with value 0 and increasing towards
    ``(delta-beta)/rho`` for large releases.  A derivative past the float range, as
    where ``(delta-beta)/rho`` overflows, raises :class:`LeakyStageError` naming ``q``.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    [[_, _, derivative, _]] = _releases((_valued(q, "release size q"),), derive(params),
                                        params.rho, eps_thr)
    if derivative == math.inf:
        raise _fault_error(f"q={q!r}", "exposure derivative", "finite", "inf")
    return derivative


def exposure_near_threshold(epsilon: float, params: ModelParams) -> float:
    """Leading quadratic term of the exposure just above the threshold.

    For a release ``delta_c * (1 + epsilon)`` the exposure is
    ``(delta-beta) * delta_c / (2 rho) * epsilon**2`` up to an O(epsilon^3)
    error.  This is an approximation, not the exact value.  A term past the float
    range raises :class:`LeakyStageError` naming ``epsilon``.
    """
    _number(epsilon, "relative overshoot epsilon")
    d = derive(params)
    term = (d.alpha * d.delta_c) / (2.0 * params.rho) * epsilon * epsilon
    if not term < math.inf:  # NaN where the coefficient overflows and epsilon is 0
        raise LeakyStageError(
            f"exposure near threshold of relative overshoot epsilon={epsilon!r} "
            f"must be finite (got {term!r})")
    return term

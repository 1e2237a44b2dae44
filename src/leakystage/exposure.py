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
from typing import TYPE_CHECKING

from .errors import LeakyStageError
from .model import EPS_THR, DerivedConstants, FrozenRecord, ModelParams, _float_array, _number
from .model import derive

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
#: first omitted term is below 1e-17 relative for ``x <= _SERIES_SWITCH``.
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
        _check_exposure(self.value, self.active_duration)


def _check_exposure(value: float, active_duration: float) -> None:
    """The checks of :class:`ExposureValue`, which :func:`exposure_table` makes on each row:
    both fields finite and nonnegative, and zero together."""
    if (_number(value, "exposure value") == 0.0) != (
            _number(active_duration, "active duration") == 0.0):
        raise LeakyStageError("exposure is zero exactly when the active duration is zero")


def _onset(x):
    """``(x - log1p(x)) / x**2`` by Horner's rule on its Taylor series.

    Accurate to rounding for ``0 <= x <= _SERIES_SWITCH``.  :func:`exposure_batch`
    runs the same operations in the same order, in place, so the scalar and
    vectorised exposures agree bit for bit below the switch.
    """
    acc = 0.0
    for c in reversed(_ONSET_SERIES):
        acc = c + x * acc
    return acc


def exposure_bracket(q: float, delta_c: float) -> float:
    """``q - delta_c - delta_c log(q/delta_c)`` for ``q > delta_c``, without cancellation.

    The exposure of one release, and of ``n`` equal releases with ``delta_c``
    replaced by the capacity ``n * delta_c``, is this times ``alpha / rho``.
    """
    if q < delta_c * (1.0 + _SERIES_SWITCH):
        x = (q - delta_c) / delta_c  # the numerator is exact here
        return delta_c * x * x * _onset(x)
    return q - delta_c - delta_c * (math.log(q) - math.log(delta_c))


def _release(
    q: float, d: DerivedConstants, rho: float, eps_thr: float
) -> tuple[float, float, float]:
    """Exposure value, derivative and active duration of one release of size ``q``.

    The one kernel behind :func:`exposure_closed_form`, :func:`exposure_derivative`
    and :func:`exposure_table`, so all three give the same bits.  It checks ``q``;
    the callers check ``eps_thr``.
    """
    delta_c = d.delta_c
    if _number(q, "release size q") <= delta_c + eps_thr:
        return 0.0, 0.0, 0.0
    scale, x = d.alpha / rho, (q - delta_c) / delta_c
    # log(q / delta_c): log1p keeps every digit near the threshold, where q - delta_c is
    # exact; the difference of logarithms stands in only where x overflows
    log_ratio = math.log1p(x) if x < math.inf else math.log(q) - math.log(delta_c)
    return scale * exposure_bracket(q, delta_c), scale * (1.0 - delta_c / q), log_ratio / rho


def exposure_closed_form(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> ExposureValue:
    """Closed-form threshold exposure of a single release of size ``q``.

    Returns exactly 0.0 for ``q <= delta_c`` (within ``eps_thr``); above the
    threshold the value is ``(delta-beta)/rho * (q - delta_c - delta_c *
    log(q/delta_c))`` and the active duration is ``log(q/delta_c)/rho``.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    value, _, active_duration = _release(q, derive(params), params.rho, eps_thr)
    return ExposureValue(value=value, active_duration=active_duration)


def exposure_table(sizes, params: ModelParams, *, eps_thr: float = EPS_THR) -> list[list[float]]:
    """Rows ``[q, value, derivative, active_duration]``, one per release size ``q``.

    Each row holds the bits of :func:`exposure_closed_form` and
    :func:`exposure_derivative` and is checked against the invariants of
    :class:`ExposureValue`; the constants are derived once for the whole table.
    """
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    rows = []
    for q in sizes:
        value, derivative, active_duration = _release(q, d, rho, eps_thr)
        _check_exposure(value, active_duration)
        rows.append([q, value, derivative, active_duration])
    return rows


def exposure_batch(
    q, params: ModelParams, *, eps_thr: float = EPS_THR
) -> np.ndarray:
    """Vectorised exposure values for an array of release sizes.

    Same piecewise formula as :func:`exposure_closed_form`, with the same
    series switch near the threshold; plateau entries are exact zeros.
    Intended for grid searches over many candidate splits.  The result is a
    C-ordered float array of the shape of ``q``.

    On the plateau and below the series switch each value is bit-equal to
    :func:`exposure_closed_form`.  Above the switch the two agree within
    ``5e-14 * max(1, |log q|)`` relative: ``np.log`` and ``math.log`` can
    differ in the last bit, which the bracket's cancellation magnifies.

    The sizes are checked block by block, each block read, checked and finished
    while it sits in cache: a NaN, negative or infinite size raises
    :class:`LeakyStageError`, and so does an exposure past the float range, as
    on the scalar path, naming the first such index.  No numpy warning escapes.
    """
    import numpy as np

    q = _float_array(q, "release sizes")
    d = derive(params)
    delta_c, scale = d.delta_c, d.alpha / params.rho
    log_delta_c, edge = math.log(delta_c), delta_c + _number(eps_thr, "tolerance eps_thr")
    switch = delta_c * (1.0 + _SERIES_SWITCH)
    out = np.empty(q.shape)
    # np.log can round a size read at a negative stride differently, so the sizes are
    # read contiguously; out is C-ordered, so its reshape is a view
    sizes, values = q.ravel(), out.reshape(-1)
    n = min(sizes.size, _BLOCK)
    scratch, active, mask = np.empty(n), np.empty(n, bool), np.empty(n, bool)
    # log(0.0) on the plateau is zeroed below; an overflow, and the plateau's 0 * inf where
    # alpha / rho overflows, are checked per block
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, sizes.size, _BLOCK):
            qb, ob = sizes[start:start + _BLOCK], values[start:start + _BLOCK]
            low, top = qb.min(), qb.max()
            if not (low >= 0.0 and top < math.inf):  # NaN fails both tests
                raise LeakyStageError("release sizes must be finite and >= 0")
            if top <= edge:  # all on the plateau, as the first blocks of a grid from 0 are
                ob.fill(0.0)
                continue
            t, a, m = scratch[:qb.size], active[:qb.size], mask[:qb.size]
            # q - delta_c - delta_c * (log q - log delta_c), in exposure_bracket's order
            np.log(qb, out=t)
            t -= log_delta_c
            t *= delta_c
            np.subtract(qb, delta_c, out=ob)
            ob -= t
            if low <= edge:  # the plateau, inf where q is 0.0
                ob[np.less_equal(qb, edge, out=m)] = 0.0
            ob *= scale
            if low < switch:  # edge < q < switch takes the series; most blocks have no such q
                np.logical_and(np.less(qb, switch, out=m), np.greater(qb, edge, out=a), out=m)
                onset = np.flatnonzero(m)
                x = (qb[onset] - delta_c) / delta_c
                # _onset in place: x * acc and c + acc commute exactly, so the bits stay
                acc = np.full(x.size, _ONSET_SERIES[-1])
                for c in _ONSET_SERIES[-2::-1]:
                    acc *= x
                    acc += c
                ob[onset] = scale * (delta_c * x * x * acc)
            # the bracket is below q, so only a size near the float range over scale overflows
            if top * scale >= 1e307 and not ob.max() < math.inf:
                i = start + int(np.argmax(ob == math.inf))
                at = f"[{', '.join(map(str, np.unravel_index(i, q.shape)))}]" if q.ndim else ""
                raise LeakyStageError(f"exposure value of release sizes{at} = {float(sizes[i])!r} "
                                      "must be finite and >= 0 (got inf)")
    return out


def exposure_derivative(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> float:
    """Marginal exposure per unit release size.

    Exactly 0.0 on the plateau, ``(delta-beta)/rho * (1 - delta_c/q)`` above
    it; continuous at the threshold with value 0 and increasing towards
    ``(delta-beta)/rho`` for large releases.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    return _release(q, derive(params), params.rho, eps_thr)[1]


def exposure_near_threshold(epsilon: float, params: ModelParams) -> float:
    """Leading quadratic term of the exposure just above the threshold.

    For a release ``delta_c * (1 + epsilon)`` the exposure is
    ``(delta-beta) * delta_c / (2 rho) * epsilon**2`` up to an O(epsilon^3)
    error.  This is an approximation, not the exact value.
    """
    _number(epsilon, "relative overshoot epsilon")
    d = derive(params)
    return (d.alpha * d.delta_c) / (2.0 * params.rho) * epsilon * epsilon

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
from .model import _MAX, EPS_THR, DerivedConstants, FrozenRecord, ModelParams, _float_array
from .model import _floats, _number, _tolerance, derive

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
        if (_number(self.value, "exposure value", maximum=math.inf) == 0.0) != (
                _number(self.active_duration, "active duration", maximum=math.inf) == 0.0):
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
    replaced by the capacity ``n * delta_c``, is this times ``alpha / rho``.  It also
    takes integers, which make the series' ``q - delta_c`` exact.
    """
    if q < delta_c * (1.0 + _SERIES_SWITCH):
        return _onset_bracket(q, delta_c)
    return q - delta_c - delta_c * (math.log(q) - math.log(delta_c))


def _releases(sizes, d: DerivedConstants, rho: float, eps_thr: float) -> list[list[float]]:
    """Rows ``[q, value, derivative, active_duration]``, one per checked release size ``q``.

    The one spelling of a release's exposure: one pass over the column, with the table's
    constants taken once.  :func:`exposure_closed_form` and :func:`exposure_derivative`
    pass a one-size column, and :func:`exposure_table` its sizes, so all three give the
    same bits; the bracket is :func:`exposure_bracket`'s.  The callers check the sizes
    (:func:`_valued`) and ``eps_thr``.  A loop, not a comprehension, as
    :func:`~leakystage.allocation._excess` is: a one-size column costs about 0.3 us less
    (Python 3.11), and a 2e4-size table no more.
    """
    delta_c, scale = d.delta_c, d.alpha / rho
    edge = delta_c + _tolerance(delta_c, eps_thr)  # the plateau's top
    log1p, rows = math.log1p, []
    for q in sizes:
        # log(q / delta_c) as log1p(x): it keeps every digit near the threshold, where
        # q - delta_c is exact
        rows.append([q, 0.0, 0.0, 0.0] if q <= edge else
                    [q, scale * exposure_bracket(q, delta_c), scale * (1.0 - delta_c / q),
                     log1p((q - delta_c) / delta_c) / rho])
    return rows


def exposure_closed_form(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> ExposureValue:
    """Closed-form threshold exposure of a single release of size ``q``.

    Returns exactly 0.0 up to the top of the threshold band about ``delta_c``, whose
    half-width ``eps_thr * max(1, level)`` is ``eps_thr`` itself at a level below 1.
    Above the band the value is ``(delta-beta)/rho * (q - delta_c - delta_c *
    log(q/delta_c))`` and the active duration is ``log(q/delta_c)/rho``.

    From the float ``alpha`` and ``delta_c`` of :func:`~leakystage.model.derive`, the
    value lies within ``2.5e-14 (1 + |log delta_c|)`` relative of the exact one and the
    active duration within 2 eps (2**-52) relative.  The value's error peaks just above
    the series switch, where the log difference cancels: in 100,000 sizes per
    ``delta_c`` from the plateau's edge to 1e300, the worst seen was 3.1e-14, 5.4e-14 and
    1.46e-13 at ``delta_c`` = 1/3, 0.06 and 1e-3, and 1.17 eps for the duration.

    In the domain of :mod:`~leakystage.model`, neither field leaves the float range, so
    the result keeps the invariants of :class:`ExposureValue`.  With ``delta_c`` in
    [2**-252, 1) (the bounds give ``<= 1``, and ``derive`` rejects 1), ``alpha / rho`` in
    [2**-252, 2**200] and ``q < 2**333``:

    - the value is at most ``(alpha / rho) q < 2**533``, the derivative at most
      ``alpha / rho``, and the duration ``log(q / delta_c) / rho < 585 * 2**100``;
    - past the plateau, ``q`` is at least the float after ``delta_c``, so
      ``x = q / delta_c - 1 > 2**-53``; the bracket ``delta_c (x - log1p x)`` and the
      duration grow with ``q``, and at the least such ``x`` the bracket exceeds
      ``delta_c x**2 / 3 > 2**-360``, the value ``2**-612`` and the duration ``2**-154``,
      all far above the least normal float, 2**-1022.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    [[_, value, _, active_duration]] = _releases((_valued(q, "release size q"),), derive(params),
                                                 params.rho, eps_thr)
    return ExposureValue(value=value, active_duration=active_duration)


def exposure_table(sizes, params: ModelParams, *, eps_thr: float = EPS_THR) -> list[list[float]]:
    """Rows ``[q, value, derivative, active_duration]``, one per release size ``q``.

    Each row holds the bits of :func:`exposure_closed_form` and
    :func:`exposure_derivative`; the constants are derived once for the whole table.
    The sizes are checked once for the list when all are floats in the domain, else one
    by one: a bad size raises :class:`LeakyStageError` naming the first such index as
    ``sizes[i]``.
    """
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    sizes = list(sizes)
    if _floats(sizes):
        return _releases(sizes, d, rho, eps_thr)
    rows = _releases([_valued(q, f"release size sizes[{i}]") for i, q in enumerate(sizes)],
                     d, rho, eps_thr)
    for row, q in zip(rows, sizes):  # each row holds its size as given
        row[0] = q
    return rows


def _valued(q, what: str):
    """The release size ``q``, checked by :func:`_number` and named ``what`` in its error,
    as its row is valued: a float subclass such as ``numpy.float64`` as a float."""
    q = _number(q, what)
    return float(q) if isinstance(q, float) else q


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
    differ in the last bit, which the bracket's cancellation magnifies.  In the
    domain no value leaves the float range, as :func:`exposure_closed_form` derives.

    The sizes are checked block by block, each block read, checked and finished
    while it sits in cache: the first size that is NaN or outside [0, 1e100] raises
    :class:`LeakyStageError` naming its index as :func:`exposure_table` does.  No numpy
    warning escapes.
    """
    import numpy as np

    q = _float_array(q, "release sizes")
    d, rho, eps_thr = derive(params), params.rho, _number(eps_thr, "tolerance eps_thr")
    delta_c, scale = d.delta_c, d.alpha / rho
    log_delta_c, edge = math.log(delta_c), delta_c + _tolerance(delta_c, eps_thr)
    switch = delta_c * (1.0 + _SERIES_SWITCH)
    out = np.empty(q.shape)
    # np.log can round a size read at a negative stride differently, so the sizes are
    # read contiguously; out is C-ordered, so its reshape is a view
    sizes, values = q.ravel(), out.reshape(-1)
    # log(0.0) on the plateau is zeroed below
    with np.errstate(divide="ignore"):
        for start in range(0, sizes.size, _BLOCK):
            qb, ob = sizes[start:start + _BLOCK], values[start:start + _BLOCK]
            low, top = qb.min(), qb.max()
            if not (low >= 0.0 and top <= _MAX):  # NaN fails both tests
                i = start + int(np.flatnonzero(~((qb >= 0.0) & (qb <= _MAX)))[0])
                at = f"[{', '.join(map(str, np.unravel_index(i, q.shape)))}]" if q.ndim else ""
                _number(float(sizes[i]), f"release size sizes{at}")  # raises
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
    return out


def exposure_derivative(
    q: float, params: ModelParams, *, eps_thr: float = EPS_THR
) -> float:
    """Marginal exposure per unit release size.

    Exactly 0.0 on the plateau, ``(delta-beta)/rho * (1 - delta_c/q)`` above
    it; continuous at the threshold with value 0 and increasing towards
    ``(delta-beta)/rho``, at most 2**200 in the domain, for large releases.
    """
    eps_thr = _number(eps_thr, "tolerance eps_thr")
    [[_, _, derivative, _]] = _releases((_valued(q, "release size q"),), derive(params),
                                        params.rho, eps_thr)
    return derivative


def exposure_near_threshold(epsilon: float, params: ModelParams) -> float:
    """Leading quadratic term of the exposure just above the threshold.

    For a release ``delta_c * (1 + epsilon)`` the exposure is
    ``(delta-beta) * delta_c / (2 rho) * epsilon**2`` up to an O(epsilon^3)
    error.  This is an approximation, not the exact value.  In the domain the
    coefficient ``gamma / (2 rho)`` is below 2**199 and ``epsilon**2`` below 2**666, so
    the term is finite.
    """
    _number(epsilon, "relative overshoot epsilon")
    d = derive(params)
    return (d.alpha * d.delta_c) / (2.0 * params.rho) * epsilon * epsilon

"""Core reservoir model: rates, derived constants, and threshold functions.

The model is a leaky reservoir ``A`` driven by four positive rates.  The
baseline of the coupled activity coordinate is locally stable while the
reservoir stays below the critical level ``delta_c``; the growth pressure
``g(A)`` measures how far the linearised activity growth rate sits above or
below zero at reservoir level ``A``.

All quantities are dimensionless internally; rates are per unit time and the
time unit is implicit.  Every type is immutable after construction and every
function is pure, so everything here is safe to share across threads.  The
records here and in the other modules derive from :class:`FrozenRecord`.
"""
from __future__ import annotations

import math

from .errors import LeakyStageError, ParameterError

__all__ = ["EPS_THR", "DerivedConstants", "DimensionlessPoint", "ModelParams", "derive",
           "growth_pressure", "normalized_factor"]

#: Absolute tolerance for floating comparisons against the critical level.
#: Inputs exactly at the threshold are classified as safe (closed interval).
EPS_THR = 1e-12

#: Relative slack used when rounding a threshold ratio up to an integer, so
#: that ratios which are exact integers up to floating error do not get
#: bumped to the next stage count; capped at ``_CEIL_CAP`` (reached at
#: |x| = 1e9) so that a large ratio is never rounded below its load.
_CEIL_GUARD = 1e-12
_CEIL_CAP = 1e-3


def guarded_ceil(x: float) -> int:
    """Ceiling that forgives floating error just above an integer: ceil(x) - 1 or ceil(x)."""
    return math.ceil(x - min(_CEIL_GUARD * max(1.0, abs(x)), _CEIL_CAP))


_NO_DEFAULT = object()


class FrozenRecord:
    """Base of the package's immutable records, in place of ``@dataclass(frozen=True)``.

    A subclass declares its fields as annotated class attributes, after those of
    a record it extends; a field's default is the class attribute's value.  Each
    subclass gets one compiled ``__init__`` taking the fields positionally or by
    keyword, then calling ``__post_init__`` if defined.  Records equal records
    of the same class with equal fields, hash as their field tuple, print as
    ``Name(field=value, ...)`` and raise :class:`dataclasses.FrozenInstanceError`
    on assignment or deletion.  Unlike the decorator, this neither imports
    ``dataclasses`` nor compiles six functions per class.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]  # its own only
        cls._fields = cls.__match_args__ = fields = (*cls._fields, *own)
        namespace: dict = {"_set": object.__setattr__}
        params = []
        for name in fields:
            default = getattr(cls, name, _NO_DEFAULT)
            if default is not _NO_DEFAULT:
                namespace["_default_" + name] = default
                params.append(f"{name}=_default_{name}")
            elif len(namespace) > 1:  # holds a default already
                raise TypeError(f"non-default field {name!r} follows a field with a default")
            else:
                params.append(name)
        body = [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body or ["    pass"]),
             namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # loaded only when the error is raised

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _shown(value) -> str:
    """``repr(value)`` for an error message, or ``<int with N digits>`` for an integer
    too long for ``repr`` (``sys.get_int_max_str_digits``, 4300 by default)."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):  # a container of such an integer
            return f"<{type(value).__name__}>"
        size = abs(value)
        digits = int(size.bit_length() * math.log10(2))  # the count or one short of it
        return f"<int with {digits + (size >= 10**digits)} digits>"


def _is_number(value) -> bool:
    """Whether ``value`` has a numeric type: ``int`` or ``float``, never ``bool``."""
    return isinstance(value, (int, float)) and value.__class__ is not bool


def _number(value, what: str, minimum=0, strict: bool = False, below=math.inf,
            error: type[LeakyStageError] = LeakyStageError):
    """``value``, as given, if it is a finite number at or above ``minimum`` (above it
    when ``strict``) and below ``below``; else ``error`` naming it ``what``.

    The one rule for the numeric arguments of the package's public functions and
    records, and for the number fields of a CLI config.  A number is an ``int`` or a
    ``float``, subclasses such as ``numpy.float64`` included, but never a ``bool``;
    ``Decimal``, ``Fraction``, ``numpy.float32`` and ``numpy.int64`` are not numbers.
    ``minimum`` is finite.
    """
    try:
        # a float needs no isfinite: NaN fails both comparisons, and infinities one of them
        if (value.__class__ is float or _is_number(value) and math.isfinite(value)) \
                and (value > minimum if strict else value >= minimum) and value < below:
            return value
        finite = _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    rule = f"{'>' if strict else '>='} {minimum}" + ("" if below == math.inf else f" and < {below}")
    raise error(f"{what} must be {'' if finite else 'finite and '}{rule} (got {_shown(value)})")


def _count(value, what: str, minimum: int = 1,
           error: type[LeakyStageError] = LeakyStageError) -> int:
    """``value`` if it is an ``int`` (never a ``bool``) at or above ``minimum`` within
    the float range, which the counts enter through float arithmetic; else ``error``
    naming it ``what``.  A CLI config reads an integral float as an integer first."""
    if isinstance(value, int) and value.__class__ is not bool:
        if value < minimum:
            raise error(f"{what} must be >= {minimum} (got {_shown(value)})")
        try:
            math.isfinite(value)
        except OverflowError:
            raise error(f"{what} must be an integer below 2**1024 (got {_shown(value)})") from None
        return value
    raise error(f"{what} must be an integer >= {minimum} (got {_shown(value)})")


def _float_array(values, what: str):
    """``values`` as a float array if they are numbers, with no check of their range.

    An array of integers or floats passes, one of bools does not, nor does a
    sequence holding a ``bool``, which numpy would read as 0 or 1.  The first
    half of :func:`_numbers`, for a caller that checks the range itself, block
    by block as :func:`~leakystage.exposure.exposure_batch` does.
    """
    import numpy as np

    try:  # strings, None, Decimals and integers beyond int64 give non-numeric dtypes
        array = np.asarray(values)
        bools = array is not values and {bool, np.bool_} & set(
            map(type, np.asarray(values, dtype=object).flat))  # read as 0 and 1 among numbers
        if array.dtype.kind in "iuf" and not bools:
            return array.astype(float, copy=False)
    except ValueError:  # a ragged nesting
        pass
    raise LeakyStageError(f"{what} must be finite and >= 0")


def _numbers(values, what: str):
    """:func:`_number` for an array: ``values`` as floats if all are finite and >= 0.

    :func:`_float_array`'s type check, then the range check over the whole array,
    by its minimum and maximum; NaN fails both.
    """
    array = _float_array(values, what)
    if not array.size or array.min() >= 0.0 and array.max() < math.inf:
        return array
    raise LeakyStageError(f"{what} must be finite and >= 0")


class ModelParams(FrozenRecord):
    """The four positive rates of the reservoir model.

    Attributes
    ----------
    beta:
        Baseline recruitment rate (1/time).
    mu:
        Return/reabsorption rate (1/time).
    delta:
        Reservoir reactivation rate (1/time).
    rho:
        Reservoir recovery rate (1/time).

    Construction fails with :class:`ParameterError` unless all rates are
    strictly positive and the shock-sensitive ordering ``beta < mu < delta``
    holds; outside that regime the threshold formulas degenerate silently.
    """

    beta: float
    mu: float
    delta: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("beta", "mu", "delta", "rho"):
            _number(getattr(self, name), name, strict=True, error=ParameterError)
        if not self.beta < self.mu < self.delta:
            raise ParameterError("shock-sensitive ordering violated: requires beta < mu < delta "
                                 f"(got beta={self.beta!r}, mu={self.mu!r}, delta={self.delta!r})")


class DerivedConstants(FrozenRecord):
    """Constants derived from :class:`ModelParams`.

    ``alpha = delta - beta`` and ``gamma = mu - beta`` are the reactivation
    and stability margins; ``delta_c = gamma / alpha`` is the critical
    reservoir level, always in (0, 1) in the shock-sensitive regime.
    """

    alpha: float
    gamma: float
    delta_c: float

    def __post_init__(self) -> None:
        _number(self.alpha, "margin alpha", strict=True, error=ParameterError)
        _number(self.gamma, "margin gamma", strict=True, error=ParameterError)
        _number(self.delta_c, "critical level delta_c", strict=True, below=1, error=ParameterError)


class DimensionlessPoint(FrozenRecord):
    """The three dimensionless coordinates that organise the benchmarks.

    ``r`` is the load in threshold units (Q / delta_c), ``h`` the recovery
    budget over the horizon (rho * T), and ``k`` the per-release overhead in
    one-shock exposure units (K * rho / (mu - beta)).
    """

    r: float
    h: float
    k: float

    def __post_init__(self) -> None:
        for name in ("r", "h", "k"):
            _number(getattr(self, name), name, error=ParameterError)

    @classmethod
    def from_dimensional(
        cls,
        params: ModelParams,
        Q: float = 0.0,
        T: float = 0.0,
        K: float = 0.0,
    ) -> "DimensionlessPoint":
        for name, value in (("Q", Q), ("T", T), ("K", K)):
            _number(value, name, error=ParameterError)
        d = derive(params)
        r, h, k = Q / d.delta_c, params.rho * T, K * params.rho / d.gamma
        for name, value, coordinate, formula in (("Q", Q, r, "r = Q / delta_c"),
                                                 ("T", T, h, "h = rho * T"),
                                                 ("K", K, k, "k = K * rho / gamma")):
            if coordinate == math.inf:  # finite inputs whose product passes the float range
                raise ParameterError(f"{name}={value!r} overflows {formula}")
        return cls(r=r, h=h, k=k)


def derive(params: ModelParams) -> DerivedConstants:
    """Return the derived constants (alpha, gamma, delta_c) for ``params``.

    Deterministic and pure: repeated calls are bit-identical.
    """
    alpha = params.delta - params.beta
    gamma = params.mu - params.beta
    return DerivedConstants(alpha=alpha, gamma=gamma, delta_c=gamma / alpha)


def growth_pressure(A, params: ModelParams):
    """Growth pressure ``g(A) = (beta - mu) + (delta - beta) * A``.

    Strictly increasing in ``A`` and zero exactly at the critical level.
    Accepts scalars or numpy arrays; ``A`` may exceed 1 (the affine
    continuation is a conservative risk proxy, not a population share).
    NaN and infinite levels propagate; a non-number raises.
    """
    try:
        return (params.beta - params.mu) + (params.delta - params.beta) * A
    except (OverflowError, TypeError):
        raise LeakyStageError(f"level A must be a number or numbers (got {_shown(A)})") from None


def normalized_factor(A, params: ModelParams):
    """Normalised linear growth factor ``R(A) = ((1 - A) beta + delta A) / mu``.

    Satisfies ``g(A) = mu * (R(A) - 1)``, so ``R`` crosses 1 exactly at the
    critical level.  Accepts scalars or numpy arrays, like :func:`growth_pressure`.
    """
    try:
        return ((1.0 - A) * params.beta + params.delta * A) / params.mu
    except (OverflowError, TypeError):
        raise LeakyStageError(f"level A must be a number or numbers (got {_shown(A)})") from None

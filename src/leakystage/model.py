"""Core reservoir model: rates, derived constants, and threshold functions.

The model is a leaky reservoir ``A`` driven by four positive rates.  The
baseline of the coupled activity coordinate is locally stable while the
reservoir stays below the critical level ``delta_c``; the growth pressure
``g(A)`` measures how far the linearised activity growth rate sits above or
below zero at reservoir level ``A``.

All quantities are dimensionless internally; rates are per unit time and the
time unit is implicit.  Every type is immutable after construction and every
function is pure, so everything here is safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

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


def _is_finite(value) -> bool:
    """``math.isfinite`` that answers False for integers beyond the float range and non-numbers."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


@dataclass(frozen=True)
class ModelParams:
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
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and _is_finite(value)):
                raise ParameterError(f"{name} must be a finite number (got {value!r})")
            if value <= 0.0:
                raise ParameterError(f"{name} must be strictly positive (got {value!r})")
        if not self.beta < self.mu:
            raise ParameterError(
                "shock-sensitive ordering violated: requires beta < mu "
                f"(got beta={self.beta!r}, mu={self.mu!r})"
            )
        if not self.mu < self.delta:
            raise ParameterError(
                "shock-sensitive ordering violated: requires mu < delta "
                f"(got mu={self.mu!r}, delta={self.delta!r})"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from :class:`ModelParams`.

    ``alpha = delta - beta`` and ``gamma = mu - beta`` are the reactivation
    and stability margins; ``delta_c = gamma / alpha`` is the critical
    reservoir level, always in (0, 1) in the shock-sensitive regime.
    """

    alpha: float
    gamma: float
    delta_c: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.gamma > 0.0):
            raise ParameterError(
                f"derived margins must be positive (alpha={self.alpha!r}, gamma={self.gamma!r})"
            )
        if not 0.0 < self.delta_c < 1.0:
            raise ParameterError(f"critical level must lie in (0, 1) (got {self.delta_c!r})")


@dataclass(frozen=True)
class DimensionlessPoint:
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
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0.0):
                raise ParameterError(f"{name} must be finite and >= 0 (got {value!r})")

    @classmethod
    def from_dimensional(
        cls,
        params: ModelParams,
        Q: float = 0.0,
        T: float = 0.0,
        K: float = 0.0,
    ) -> "DimensionlessPoint":
        d = derive(params)
        return cls(r=Q / d.delta_c, h=params.rho * T, k=K * params.rho / d.gamma)


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
    """
    return (params.beta - params.mu) + (params.delta - params.beta) * A


def normalized_factor(A, params: ModelParams):
    """Normalised linear growth factor ``R(A) = ((1 - A) beta + delta A) / mu``.

    Satisfies ``g(A) = mu * (R(A) - 1)``, so ``R`` crosses 1 exactly at the
    critical level.  Accepts scalars or numpy arrays.
    """
    return ((1.0 - A) * params.beta + params.delta * A) / params.mu

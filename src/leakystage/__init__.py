"""Threshold-safe staging of a fixed load into a leaky reservoir.

A reservoir that decays at rate ``rho`` between releases has a critical level
``delta_c`` derived from the stability of a coupled activity coordinate.
This package evaluates the exposure generated above that level, computes
optimal release schedules under three benchmarks (complete relaxation, fixed
per-release overhead, finite recovery / fixed horizon), and verifies
numerically that the scalar reservoir is a conservative envelope of the full
nonlinear two-variable system.
"""

__version__ = "0.1.0"

from .allocation import (
    AllocationResult,
    OverheadResult,
    SplitProblem,
    continuous_relaxed_count,
    excess_exposure,
    k_safe,
    min_exposure,
    minimal_safe_count,
    optimal_split,
    overhead_optimal_count,
)
from .errors import ConfigError, LeakyStageError, ParameterError, ScheduleError
from .exposure import (
    ExposureValue,
    exposure_batch,
    exposure_closed_form,
    exposure_derivative,
    exposure_near_threshold,
)
from .model import (
    EPS_THR,
    DerivedConstants,
    DimensionlessPoint,
    ModelParams,
    derive,
    growth_pressure,
    normalized_factor,
)
from .phase import (
    PanelC,
    PhaseGrid,
    feasibility_curves,
    panel_c_comparison,
    sawtooth_frontier,
)
from .recovery import (
    UNBOUNDED,
    CapacityReport,
    CountBound,
    HorizonFeasibility,
    HorizonRegime,
    PeakPlan,
    RecoveryConfig,
    capacity_report,
    horizon_capacity,
    horizon_feasibility,
    min_peak_plan,
    peak_capacity,
    safe_count_fixed_lambda,
    simulate_recurrence,
    state_peak_plan,
    state_value,
    unequal_spacing_capacity,
)

__all__ = [
    "__version__",
    "EPS_THR",
    "UNBOUNDED",
    "AllocationResult",
    "CapacityReport",
    "ConfigError",
    "CountBound",
    "DerivedConstants",
    "DimensionlessPoint",
    "EnvelopeCheck",
    "ExposureValue",
    "HorizonFeasibility",
    "HorizonRegime",
    "ImpulseSchedule",
    "LeakyStageError",
    "ModelParams",
    "OverheadResult",
    "PanelC",
    "ParameterError",
    "PeakPlan",
    "PhaseGrid",
    "RecoveryConfig",
    "ScheduleError",
    "SplitProblem",
    "Trajectory",
    "balance_jump_residuals",
    "capacity_report",
    "continuous_relaxed_count",
    "derive",
    "dominance_tolerance",
    "excess_exposure",
    "exposure_batch",
    "exposure_closed_form",
    "exposure_derivative",
    "exposure_near_threshold",
    "feasibility_curves",
    "growth_pressure",
    "horizon_capacity",
    "horizon_feasibility",
    "k_safe",
    "min_exposure",
    "min_peak_plan",
    "minimal_safe_count",
    "normalized_factor",
    "optimal_split",
    "overhead_optimal_count",
    "panel_c_comparison",
    "path_exposure",
    "peak_capacity",
    "safe_count_fixed_lambda",
    "sawtooth_frontier",
    "simulate_envelope",
    "simulate_full",
    "simulate_recurrence",
    "state_peak_plan",
    "state_value",
    "unequal_spacing_capacity",
    "verify_balance_identity",
    "verify_envelope_dominance",
    "verify_log_growth_bound",
]

#: Names served from ``envelope`` on first access (PEP 562), so that importing
#: the package, and every command but ``simulate``, never loads numpy: the
#: public names not imported above.
_ENVELOPE_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    if name in _ENVELOPE_NAMES:
        from . import envelope

        return getattr(envelope, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ENVELOPE_NAMES)

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

# each module's __all__ declares its public names
from . import allocation, errors, exposure, model, phase, recovery
from .allocation import *
from .errors import *
from .exposure import *
from .model import *
from .phase import *
from .recovery import *

#: Names served from ``envelope`` on first access (PEP 562), so that importing
#: the package, and every command but ``simulate``, never loads numpy.  They are
#: listed here, and ``envelope.__all__`` is taken from here, since reading them from
#: ``envelope`` would load numpy.
_ENVELOPE_NAMES = frozenset({
    "EnvelopeCheck", "ImpulseSchedule", "Trajectory", "balance_jump_residuals",
    "dominance_tolerance", "path_exposure", "simulate_envelope", "simulate_full",
    "verify_balance_identity", "verify_envelope_dominance", "verify_log_growth_bound",
})

__all__ = ["__version__", *allocation.__all__, *errors.__all__, *exposure.__all__,
           *model.__all__, *phase.__all__, *recovery.__all__, *sorted(_ENVELOPE_NAMES)]


def __getattr__(name: str):
    if name in _ENVELOPE_NAMES:
        from . import envelope

        return getattr(envelope, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ENVELOPE_NAMES)

"""Exception hierarchy shared across the package."""

__all__ = ["ConfigError", "LeakyStageError", "ParameterError", "ScheduleError"]


class LeakyStageError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(LeakyStageError, ValueError):
    """Model rates violate positivity or the shock-sensitive ordering."""


class ScheduleError(LeakyStageError, ValueError):
    """An impulse schedule or release vector violates its contract."""


class ConfigError(LeakyStageError, ValueError):
    """A run configuration is malformed: unknown keys, missing or invalid fields."""

"""Shared exception types used across the package and mapped to CLI exit codes."""


class LRBenchError(Exception):
    """Base class for the configuration and data errors below. The errors
    that extend a builtin type do not derive from it: nn.ShapeError and
    schedule.InvalidScheduleError (ValueError), nn.NonFiniteLossError
    (FloatingPointError) and finder.NoDescentFound (RuntimeError)."""


class ConfigError(LRBenchError):
    """Invalid configuration file, key, or value."""


class DataError(LRBenchError):
    """Dataset file is missing, truncated, or malformed."""

"""Shared exception types used across the package and mapped to CLI exit codes."""


class LRBenchError(Exception):
    """Base class for the configuration and data errors below. The errors
    that extend only a builtin type do not derive from it: nn.ShapeError
    (ValueError), nn.NonFiniteLossError (FloatingPointError) and
    finder.NoDescentFound (RuntimeError)."""


class ConfigError(LRBenchError, ValueError):
    """Invalid configuration file, key, or value; every config object's
    validation raises it."""


class DataError(LRBenchError):
    """Dataset file is missing, truncated, or malformed."""

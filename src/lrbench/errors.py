"""Shared exception types used across the package and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid configuration file, key, or value; every config object's
    validation raises it."""


class DataError(Exception):
    """Dataset file is missing, truncated, or malformed."""

"""Exception types shared across the package.

Each type carries the exit code the CLI ends with when a command stops
on it, as exit_code: InputError 2, ConfigError 3, DegenerateDataError 4.
"""


class HmetricError(ValueError):
    """Base class for all package errors."""

    exit_code = 2


class InputError(HmetricError):
    """Malformed input data (bad CSV, non-finite scores, bad labels)."""


class ConfigError(HmetricError):
    """Invalid evaluation configuration."""

    exit_code = 3


class DegenerateDataError(HmetricError):
    """Data unusable for the requested metric (e.g. a single class)."""

    exit_code = 4

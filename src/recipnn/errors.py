"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
anything else -> 3 (internal error).
"""


class RecipnnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RecipnnError):
    """Bad configuration: invalid parameter values, unknown config keys,
    malformed config files, missing required flags."""


class DataError(RecipnnError):
    """Bad input data: malformed embedding/run/qrels files, unknown ids,
    dimension mismatches, degenerate inputs an operation cannot handle."""


def check_positive(name: str, value) -> None:
    """Raise ConfigError unless `value` is a positive integer."""
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")

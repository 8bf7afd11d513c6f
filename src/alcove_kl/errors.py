"""Exception types shared across the package.

The CLI maps these to exit codes, each with a JSON error object on
stderr whose "error" kind is given in brackets: ConfigError and
DomainError -> 2 ("config"); StabilizationError -> 3 ("stabilization"),
ResourceError and its subclass WindowError -> 3 ("bound"),
IndeterminateError -> 3 ("indeterminate"); ConsistencyError -> 4 ("identity").
"""


class ConfigError(ValueError):
    """Invalid configuration (unsupported type/rank, bad prime, unusable
    cache file, ...)."""


class DomainError(ValueError):
    """Argument outside the domain of an operation."""


class ResourceError(RuntimeError):
    """A configured bound (length, window, ...) was exceeded."""


class WindowError(ResourceError):
    """An element falls outside the reach of the configured window."""


class StabilizationError(RuntimeError):
    """A window-truncated value did not agree between consecutive radii."""


class ConsistencyError(RuntimeError):
    """An internal identity failed; carries a convention diagnostic."""


class IndeterminateError(RuntimeError):
    """A bounded order query could not be decided within its radius."""

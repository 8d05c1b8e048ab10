"""Exception hierarchy for airylink.

Every error raised on purpose by this package derives from AirylinkError,
so callers can catch one type at the CLI boundary. Subclasses carry the
context a caller needs to act (offending key, element index, singular
value, ...) as plain attributes.
"""

from __future__ import annotations


class AirylinkError(Exception):
    """Base class for all airylink errors."""


class ConfigError(AirylinkError):
    """Invalid or unparseable scenario configuration."""


class GridError(AirylinkError):
    """A grid/aperture/user geometry violates the sampling contract."""


class ModelMismatchError(AirylinkError):
    """An operation was asked to run under the wrong channel model.

    Raised e.g. when the free-space Green's-function channel is requested
    for a scenario that contains an obstacle; the caller should use the
    diffraction path instead.
    """


class SingularChannelError(AirylinkError):
    """Zero-forcing inversion hit a numerically singular Gram matrix."""

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = sigma_min


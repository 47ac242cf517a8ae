"""Exception types shared across the package."""

from __future__ import annotations


class FedmmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FedmmError):
    """Invalid configuration value, unknown option, or malformed config file."""


class DimensionError(FedmmError):
    """Array shapes incompatible with the requested operation."""


class ValidationError(FedmmError):
    """Input violates a documented precondition."""


class BatchSizeError(FedmmError):
    """Batch too small for an operation that needs cross-sample statistics."""


class StateError(FedmmError):
    """Operation requires state that has not been initialized."""


class NumericError(FedmmError):
    """Non-finite values or a failed matrix decomposition."""


class DataError(FedmmError):
    """Dataset generation or scenario construction failed."""


class FormatError(FedmmError):
    """Malformed binary file; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset

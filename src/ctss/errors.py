"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems and a fold worker
that died exit 2, numeric failures exit 3, file-format and I/O problems exit 4.
"""


class CtssError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CtssError):
    """A configuration value or input violates a documented precondition."""


class DimensionError(ValidationError):
    """Array shapes are incompatible with the requested operation."""


class NumericError(CtssError):
    """A computation produced NaN or infinity."""


class StateError(CtssError):
    """An object was used out of order (e.g. backward before forward)."""


class DataFormatError(CtssError):
    """A binary file failed magic, version, length, or checksum validation."""


class WorkerError(CtssError):
    """A fold worker process ended without a result: killed by a signal or the out-of-memory killer."""

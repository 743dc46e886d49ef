"""Exception hierarchy shared across the package."""


class WaveDetectError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(WaveDetectError):
    """Array dimensions are inconsistent with what an operation requires."""


class ConfigError(WaveDetectError):
    """A configuration value is out of range or internally inconsistent."""


class DataError(WaveDetectError):
    """Input data violates a documented precondition."""


class IngestError(DataError):
    """A file could not be parsed; the message names the offending line."""


class ContractError(WaveDetectError):
    """An API was called in a way its contract forbids."""


class CapabilityError(WaveDetectError):
    """A requested operation needs a model component that was not built."""

"""Exception hierarchy shared across the package, and the type checks its
configs and public calls share."""

import numbers


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


def require_integers(*named):
    """Raise ``ConfigError`` for the first ``(name, value)`` pair whose value
    is not an integer. A config checks this itself rather than leaving it to
    numpy or ``range``, which fail later with a bare error, or not at all.
    A ``bool`` is not taken for a number, here or in ``require_reals``."""
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_reals(*named):
    """Raise ``ConfigError`` for the first ``(name, value)`` pair whose value
    is not a real number, or is too large for a float. A config checks this
    before its range checks, whose comparisons would fail on a string or
    None with a bare ``TypeError``, and pass 10**400, which ``float()``
    then fails with a bare ``OverflowError``."""
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float, got {value!r}") from None


def require_instances(error, *named):
    """Raise ``error`` for the first ``(name, value, cls)`` triple whose value
    is not a ``cls`` (a class or a tuple of them), before an attribute read
    fails with a bare ``AttributeError``."""
    for name, value, cls in named:
        if not isinstance(value, cls):
            kinds = " or ".join("None" if c is type(None) else ("an " if c.__name__[0] in "AEIOU" else "a ")
                                + c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
            raise error(f"{name} must be {kinds}, got {type(value).__name__}")

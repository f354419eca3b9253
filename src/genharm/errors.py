"""Exception hierarchy shared by all genharm modules, and their argument checks.

Library errors are :class:`GenharmError` subclasses. Each order, count, index,
band cap, depth and segment start passes ``_integer``: an int, a numpy integer
or an integral float (``5.0`` is 5) in range is taken; a bool, a fraction, a
string or any other type is a :class:`ConfigurationError`, which is also a
``ValueError``. Each phase passes ``_real``, which takes a finite int or float,
numpy's included, and refuses a bool, a string or any other type the same way.
No tolerance is an argument: each is a constant of the module that applies it.
Each value a result or a basis member holds passes ``_number``, the same type
rule with finiteness left to the class, one by one unless it comes in a numeric
array (``_numbers``).
Each signal and result passes ``_typed``: anything but the class the function
takes is an :class:`InvalidSignalError` for a signal and a
:class:`ConfigurationError` for anything else.
"""

import math

import numpy as np

__all__ = [
    "GenharmError",
    "InvalidSignalError",
    "DimensionError",
    "AliasingError",
    "ConfigurationError",
    "AnalysisError",
    "IllConditionedBasisError",
]

# numpy counts and indexes in int64, so no integer argument can lie past it
_INT64_MAX = (1 << 63) - 1


class GenharmError(Exception):
    """Base class for all library errors."""


class InvalidSignalError(GenharmError):
    """A signal violates its invariants (wrong length, parity, or non-finite values)."""


class DimensionError(GenharmError):
    """Operands have incompatible sample counts or bands."""


class AliasingError(GenharmError):
    """A requested harmonic band exceeds what the sampling can represent."""


class ConfigurationError(GenharmError, ValueError):
    """An unknown kind, empty band, bad integer argument, or otherwise unusable configuration."""


class AnalysisError(GenharmError):
    """A decomposition cannot proceed (dependent basis, singular system)."""


class IllConditionedBasisError(AnalysisError):
    """The fundamental-coefficient system of a basis pair is numerically unsolvable."""


def _integer(value, name: str, low: float, high: float = _INT64_MAX) -> int:
    """value as an int in low..high; a bool or a non-integral number is refused, never truncated."""
    number = int(value) if isinstance(value, (float, np.floating)) and value.is_integer() else value
    if isinstance(number, bool) or not isinstance(number, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    number = int(number)
    if number < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {number}")
    if number > high:
        raise ConfigurationError(f"{name} must be <= {high}, got {number}")
    return number


def _number(value, name: str) -> float:
    """value as a float; a bool, a string or any other non-number is refused, never parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf


def _real(value, name: str) -> float:
    """value as a finite float by ``_number``; a non-finite one is refused too."""
    number = _number(value, name)
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return number


def _numbers(values, name: str) -> np.ndarray:
    """values as a fresh float array of their own shape, each value a number by ``_number``.

    A numeric array is taken as it is; anything else is read value by value,
    so a string or a bool among the values is refused, never parsed.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.array(values, dtype=float)
    try:
        cells = np.array(values, dtype=object)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be numbers") from exc
    return np.array([_number(v, name) for v in cells.ravel().tolist()]).reshape(cells.shape)


def _typed(value, kind: type, error: type = ConfigurationError):
    """value if it is a ``kind``; anything else is ``error``, before any attribute is read."""
    if not isinstance(value, kind):
        raise error(f"a {kind.__name__} is required, got {type(value).__name__}")
    return value

"""Exception types raised by this package, with their process exit codes,
and the integer and real-number checks that raise one."""

import math
import numbers

import numpy as np


class TomoError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class ValidationError(TomoError):
    """An argument or parameter value is invalid."""

    exit_code = 1


class CapacityError(TomoError):
    """A requested size exceeds a dense-storage guard."""

    exit_code = 2


class DataFormatError(TomoError):
    """A persisted file does not conform to its documented format."""

    exit_code = 3


class DegeneracyError(TomoError):
    """The ground level of the synthesis Hamiltonian is (near-)degenerate."""

    exit_code = 1


class DegenerateFitError(TomoError):
    """A fitted distribution carries no usable total mass."""

    exit_code = 4


class IntegrityError(TomoError):
    """Inputs that must be mutually consistent are not."""

    exit_code = 1


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int; ValidationError naming ``name`` unless it is a
    Python or numpy integer (numpy's unsigned ones wrap in arithmetic), not a
    bool, and at least ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float; ValidationError naming ``name`` for a bool, a complex
    number or a non-number. An int beyond the float range becomes an infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf

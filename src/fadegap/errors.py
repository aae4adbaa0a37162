"""Exception types shared across the package, and the integer check that
raises one."""

import operator

__all__ = ["ValidationError", "InternalConsistencyError"]


class ValidationError(ValueError):
    """Raised when user-supplied input violates a documented precondition."""


class InternalConsistencyError(RuntimeError):
    """Raised when two independent internal computations of the same quantity
    disagree beyond tolerance.  This signals an implementation bug, never bad
    input."""


def validated_index(what: str, name: str, value) -> int:
    """value as an int; a value operator.index refuses (a float, a str) is
    refused with a ValidationError naming what and the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} needs an integer {name}, got {name}={value!r}") from None

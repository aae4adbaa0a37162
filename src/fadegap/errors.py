"""Exception types shared across the package, the argument checks that
raise one, and the one way the stages make the objects they return."""

import operator
import sys

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


def validated_state_count(what: str, K) -> int:
    """K as an int; a non-integer K or one below 1 is refused, naming what."""
    K = validated_index(what, "K", K)
    if K < 1:
        raise ValidationError(f"{what} needs K >= 1, got {K}")
    return K


def check_real(name: str, value) -> float:
    """value as a float, by the package's one rule for a real number: a
    float (a subclass included) or a rational number whose float does not
    overflow, the types that meet a float exactly.  Anything else (a str,
    None, a Decimal, a numpy float32) is refused, naming it, before anything
    compares it.  A NaN or infinite float passes.  A float or an int is
    accepted at once; only another type needs :mod:`numbers`, which is
    imported then, so a float channel never loads it."""
    if not isinstance(value, (float, int)):
        import numbers

        if not isinstance(value, numbers.Rational):
            raise ValidationError(
                f"{name} must be a real number, got {value!r}, which is neither a float"
                " nor a rational number"
            )
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} lies beyond the double-precision range") from None


def is_fraction(value) -> bool:
    """Whether value is a :class:`fractions.Fraction`.  No Fraction exists
    before :mod:`fractions` is imported, so the test imports nothing and
    a float or int channel never loads it.  Its callers are
    ``optimal_allocation``, which types its unit budget by g_1 and tests
    ``isinstance(value, float)`` first, which spares a float the call, and
    the chain certificate, which checks a chain's breakpoint types."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def check_instance(what: str, name: str, value, cls) -> None:
    """Refuse a value that is not a cls, naming what and the argument."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(
            f"{what} needs {article} {cls.__name__}, got {type(value).__name__} for {name}"
        )


#: The stage that builds, and marks, each of the pipeline's objects.
_BUILDERS = {
    "PreparedChannel": "prepare",
    "MufChain": "build_chain",
    "PowerAllocation": "optimal_allocation",
}


def check_built(what: str, name: str, value, cls, source=None) -> None:
    """Refuse a value that is not a cls, as :func:`check_instance` does, one
    its stage did not mark (a ``dataclasses.replace`` copy, a hand-built one)
    and, given a source, one marked as built from neither it nor its equal."""
    mark = value._source if isinstance(value, cls) else None
    if mark is not None and (source is None or mark is source or mark == source):
        return
    check_instance(what, name, value, cls)
    builder = _BUILDERS[cls.__name__]
    if mark is None:
        raise ValidationError(
            f"{what} needs a {cls.__name__} that {builder}() returned, got a copy or a"
            f" hand-built one for {name}; build it with {builder}()"
        )
    raise ValidationError(
        f"{what} needs a {cls.__name__} built from the channel it is given;"
        f" build it with {builder}()"
    )


def _make(cls, /, **fields):
    """A cls, a frozen dataclass, made as pickle remakes one: every field,
    the mark included, filled in field order in one step, not one setattr
    each as __init__ does, with the same repr, ==, hash and pickle.  The
    stages make what they return, and set the mark, only here."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def validated_tuple(name: str, values) -> tuple:
    """values as a tuple; a value that is not iterable (an int, None) is
    refused with a ValidationError naming it."""
    try:
        it = iter(values)
    except TypeError:
        raise ValidationError(
            f"{name}: expected a sequence of numbers, got {type(values).__name__}"
        ) from None
    return tuple(it)

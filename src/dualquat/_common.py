"""Internal helpers shared by the value types."""

from __future__ import annotations

import math

from .errors import NonFiniteError

# Imaginary residue allowed in products that are real in exact arithmetic,
# scaled by the operand magnitudes.  Exceeding it means a broken product,
# not floating-point noise.
REALNESS_GUARD = 1e-12

CLOSE_REL = 1e-9   # relative tolerance for two routes to the same value
CLOSE_ABS = 1e-12  # absolute floor under the relative tolerance


class Value:
    """Base of the immutable values and result records.

    A subclass's fields are its ``__slots__``, and it stores each one once in
    its own short ``__init__``.  The value types store through slot
    descriptors cached at module level, the fastest store on their hot
    constructor paths; the records call ``object.__setattr__``.  ``Value``
    owns the rest: equality of same-class values with equal fields, the hash
    that agrees with it, the ``Name(field=value, ...)`` repr, and
    ``__reduce__``, through which pickle and copy rebuild a value with the
    constructor, which validates again.  Fields can be neither assigned nor
    deleted.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), _fields(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _fields(value: Value) -> tuple:
    return tuple([getattr(value, name) for name in value.__slots__])


def finite(value: float, label: str) -> float:
    """Coerce one scalar component to float, rejecting NaN and infinities.

    Negative zero is normalized to +0.0 so that exact sign tests and
    rendering never have to distinguish the two zeros.
    """
    out = float(value)
    if not math.isfinite(out):
        raise NonFiniteError(f"{label} must be finite, got {out!r}")
    return out + 0.0


def real_operand(value: object) -> float | None:
    """The float a real-scalar operand stands for, or None if it is not one.

    ``int`` and ``float`` embed as reals; ``bool`` is not a number here,
    although it subclasses ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def close(a: float, b: float) -> bool:
    """Whether two computed routes to one value agree within the tolerances."""
    return abs(a - b) <= max(CLOSE_ABS, CLOSE_REL * max(abs(a), abs(b)))

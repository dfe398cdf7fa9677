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
    """Base of the immutable value types, whose fields are their ``__slots__``.

    A subclass stores each field once, in its own ``__init__``, through the
    slot descriptor, and defines its own ``__eq__`` and ``__hash__``.  Pickle
    and copy rebuild a value through the constructor, which validates again.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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

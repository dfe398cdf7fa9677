"""Dual quaternions: ``std + inf*e`` with quaternion parts and ``e*e == 0``.

The dual unit commutes with the quaternion units, so products expand the
same way as for dual numbers, with the noncommutative quaternion product
inside each part.  A dual quaternion is appreciable when its standard part
is nonzero (exact test); only appreciable values are invertible.

The magnitude of a dual quaternion is a dual *number*: for an appreciable
value it is ``|std| + (std·inf / |std|) e``, where ``std·inf`` is the
componentwise dot product (half the mixed sum ``std inf* + inf std*``), and
for an infinitesimal one it is ``|inf| e``.  ``magnitude_via_sqrt`` reaches
the appreciable case independently as ``sqrt(q * q.conjugate())`` and exists
mainly so the two routes can be checked against each other.
"""

from __future__ import annotations

import math

from ._common import REALNESS_GUARD, Value, real_operand
from .dual import DualNumber
from .errors import ConsistencyError, NotAppreciableError, NotInvertibleError
from .quaternion import Quaternion

__all__ = ["DualQuaternion", "UnitCheck", "magnitude_parts"]


class DualQuaternion(Value):
    """The dual quaternion ``std + inf*e`` with quaternion parts."""

    __slots__ = ("std", "inf")
    __match_args__ = __slots__

    def __init__(self, std: Quaternion = Quaternion(), inf: Quaternion = Quaternion()):
        if not isinstance(std, Quaternion):
            raise TypeError(f"standard part must be a Quaternion, got {type(std).__name__}")
        if not isinstance(inf, Quaternion):
            raise TypeError(f"infinitesimal part must be a Quaternion, got {type(inf).__name__}")
        _set_std(self, std)
        _set_inf(self, inf)

    @classmethod
    def from_quaternion(cls, value: Quaternion) -> DualQuaternion:
        return cls(value, Quaternion())

    @classmethod
    def from_dual(cls, value: DualNumber) -> DualQuaternion:
        """Embed a dual number as a dual quaternion with real parts."""
        return cls(Quaternion(value.std), Quaternion(value.inf))

    @classmethod
    def from_real(cls, value: float) -> DualQuaternion:
        return cls(Quaternion(float(value)), Quaternion())

    @property
    def is_appreciable(self) -> bool:
        return not self.std.is_zero

    @property
    def is_zero(self) -> bool:
        return self.std.is_zero and self.inf.is_zero

    def __add__(self, other) -> DualQuaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualQuaternion(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __neg__(self) -> DualQuaternion:
        return DualQuaternion(-self.std, -self.inf)

    def __sub__(self, other) -> DualQuaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> DualQuaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> DualQuaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # e*e kills the inf*inf term; order matters in each product.
        return DualQuaternion(
            self.std * other.std,
            self.inf * other.std + self.std * other.inf,
        )

    def __rmul__(self, other) -> DualQuaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def conjugate(self) -> DualQuaternion:
        return DualQuaternion(self.std.conjugate(), self.inf.conjugate())

    def inverse(self) -> DualQuaternion:
        """Two-sided inverse; exists exactly for appreciable values."""
        if not self.is_appreciable:
            raise NotInvertibleError("infinitesimal dual quaternions have no inverse")
        std_inv = self.std.inverse()
        return DualQuaternion(std_inv, -(std_inv * self.inf * std_inv))

    def magnitude(self) -> DualNumber:
        return DualNumber(*magnitude_parts(self.std, self.inf))

    def magnitude_via_sqrt(self) -> DualNumber:
        """Magnitude computed as ``sqrt(q * q.conjugate())``.

        ``q * q.conjugate()`` is a real dual number whenever the identity
        algebra holds, so its quaternion parts are checked for vanishing
        imaginary components before taking the square root.  Only defined
        for appreciable values; the square root of an infinitesimal square
        magnitude is not representable.
        """
        if not self.is_appreciable:
            raise NotAppreciableError(
                "sqrt route to the magnitude needs an appreciable value"
            )
        product = self * self.conjugate()
        # The residue may reach REALNESS_GUARD * scale**2; dividing it by one
        # factor of the scale keeps a huge scale from overflowing that bound.
        scale = max(1.0, self.std.norm() + self.inf.norm())
        for part in (product.std, product.inf):
            if part.imaginary_magnitude() / scale > REALNESS_GUARD * scale:
                raise ConsistencyError(
                    f"q * q.conjugate() is not real: got {part} in {product}"
                )
        return DualNumber(product.std.w, product.inf.w).sqrt()

    def unit_check(self, tol: float = 1e-9) -> UnitCheck:
        """Test whether this is a unit dual quaternion.

        The characterization is exact in exact arithmetic: unit standard
        part and vanishing mixed sum.  Both residuals are reported and
        compared against ``tol``.
        """
        if tol < 0.0:
            raise ValueError("tolerance must be nonnegative")
        norm_residual = abs(self.std.norm() - 1.0)
        mixed_residual = abs(2.0 * self.std.dot(self.inf))
        return UnitCheck(
            passed=norm_residual <= tol and mixed_residual <= tol,
            norm_residual=norm_residual,
            mixed_residual=mixed_residual,
        )

    def is_unit(self, tol: float = 1e-9) -> bool:
        return self.unit_check(tol).passed

    def __str__(self) -> str:
        return f"({self.std})+({self.inf})e"


_set_std = DualQuaternion.std.__set__
_set_inf = DualQuaternion.inf.__set__


def magnitude_parts(std: Quaternion, inf: Quaternion) -> tuple[float, float]:
    """The standard and infinitesimal parts of the magnitude of ``std + inf*e``.

    The one definition of the magnitude rule: ``DualQuaternion.magnitude``
    and the vector norms, which must round exactly as it does, both evaluate
    it here.  The dot product is ``Quaternion.dot``'s, left to right.  No
    part is checked, so an overflow comes back as an infinity or a NaN.
    """
    w, x, y, z = std.w, std.x, std.y, std.z
    if w == 0.0 and x == 0.0 and y == 0.0 and z == 0.0:
        return 0.0, math.hypot(inf.w, inf.x, inf.y, inf.z)
    n = math.hypot(w, x, y, z)
    return n, (w * inf.w + x * inf.x + y * inf.y + z * inf.z) / n


class UnitCheck(Value):
    __slots__ = ("passed", "norm_residual", "mixed_residual")

    def __init__(self, passed: bool, norm_residual: float, mixed_residual: float):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "norm_residual", norm_residual)
        object.__setattr__(self, "mixed_residual", mixed_residual)

    def __bool__(self) -> bool:
        return self.passed


def _coerce(value: object) -> DualQuaternion | None:
    if isinstance(value, DualQuaternion):
        return value
    if isinstance(value, Quaternion):
        return DualQuaternion.from_quaternion(value)
    if isinstance(value, DualNumber):
        return DualQuaternion.from_dual(value)
    real = real_operand(value)
    return None if real is None else DualQuaternion.from_real(real)

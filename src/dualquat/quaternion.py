"""Quaternions over IEEE-754 doubles, scalar component first.

Multiplication follows the usual rules ``i*i == j*j == k*k == -1``,
``i*j == k == -j*i``, ``j*k == i == -k*j``, ``k*i == j == -i*k``; it is
associative but not commutative.  Conjugation negates the imaginary
components and reverses products: ``(p * q).conjugate()`` equals
``q.conjugate() * p.conjugate()``.
"""

from __future__ import annotations

import math

from ._common import REALNESS_GUARD, Value, finite, real_operand
from .errors import ConsistencyError, NotInvertibleError

__all__ = ["Quaternion", "mixed_sum", "product"]


class Quaternion(Value):
    """The quaternion ``w + x i + y j + z k``; all components are finite floats."""

    __slots__ = ("w", "x", "y", "z")
    __match_args__ = __slots__

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        _set_w(self, finite(w, "w component"))
        _set_x(self, finite(x, "x component"))
        _set_y(self, finite(y, "y component"))
        _set_z(self, finite(z, "z component"))

    @property
    def is_zero(self) -> bool:
        return self.w == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other: Quaternion | float) -> Quaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    __radd__ = __add__

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other: Quaternion | float) -> Quaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Quaternion | float) -> Quaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Quaternion | float) -> Quaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(
            *product(self.w, self.x, self.y, self.z, other.w, other.x, other.y, other.z)
        )

    def __rmul__(self, other: Quaternion | float) -> Quaternion:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def conjugate(self) -> Quaternion:
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: Quaternion) -> float:
        """Componentwise dot product of the two 4-tuples."""
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def norm_squared(self) -> float:
        return self.dot(self)

    def inverse(self) -> Quaternion:
        """Multiplicative inverse, ``conjugate / norm**2``."""
        if self.is_zero:
            raise NotInvertibleError("the zero quaternion has no inverse")
        n2 = self.norm_squared()
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def imaginary_magnitude(self) -> float:
        """Largest absolute imaginary component; zero iff the value is real."""
        return max(abs(self.x), abs(self.y), abs(self.z))

    def __str__(self) -> str:
        out = [repr(self.w)]
        for value, unit in ((self.x, "i"), (self.y, "j"), (self.z, "k")):
            sign = "-" if value < 0.0 else "+"
            out.append(f"{sign}{abs(value)!r}{unit}")
        return "".join(out)


_set_w = Quaternion.w.__set__
_set_x = Quaternion.x.__set__
_set_y = Quaternion.y.__set__
_set_z = Quaternion.z.__set__


def product(
    aw: float, ax: float, ay: float, az: float, bw: float, bx: float, by: float, bz: float
) -> tuple[float, float, float, float]:
    """The Hamilton product ``a * b`` of two quaternions given as components.

    The one definition of the product rule: ``Quaternion.__mul__`` and the
    fused loops that must round exactly as it does both evaluate it here.
    No component is checked, so an overflow comes back as an infinity.
    """
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _coerce(value: object) -> Quaternion | None:
    if isinstance(value, Quaternion):
        return value
    real = real_operand(value)
    return None if real is None else Quaternion(real, 0.0, 0.0, 0.0)


def mixed_sum(p: Quaternion, q: Quaternion) -> float:
    """The real number ``p*q.conjugate() + q*p.conjugate()``.

    The value equals twice the componentwise dot product, which is what is
    returned; the symmetrized product form is evaluated as well and checked
    against it, so a defect in the product or conjugate cannot go unnoticed.
    This is the cross-checked reference form, for tests and ``selfcheck``;
    the production paths use ``2.0 * p.dot(q)`` and stay off it.
    """
    direct = 2.0 * p.dot(q)
    symmetric = p * q.conjugate() + q * p.conjugate()
    scale = max(1.0, p.norm() * q.norm())
    if symmetric.imaginary_magnitude() > REALNESS_GUARD * scale:
        raise ConsistencyError(
            "mixed sum has a non-vanishing imaginary part: "
            f"{symmetric} from p={p}, q={q}"
        )
    if abs(symmetric.w - direct) > REALNESS_GUARD * scale:
        raise ConsistencyError(
            f"mixed sum disagrees with its dot form: {symmetric.w!r} vs {direct!r}"
        )
    return direct

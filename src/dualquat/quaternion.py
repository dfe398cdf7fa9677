"""Quaternions over IEEE-754 doubles, scalar component first.

Multiplication follows the usual rules ``i*i == j*j == k*k == -1``,
``i*j == k == -j*i``, ``j*k == i == -k*j``, ``k*i == j == -i*k``; it is
associative but not commutative.  Conjugation negates the imaginary
components and reverses products: ``(p * q).conjugate()`` equals
``q.conjugate() * p.conjugate()``.
"""

from __future__ import annotations

import math

from ._common import MIN_NORMAL, Value, all_finite, close, finite, real_operand, scale_exponent, times_power_of_two
from .errors import ConsistencyError, NotInvertibleError

__all__ = ["Quaternion", "mixed_sum", "product"]


class Quaternion(Value):
    """The quaternion ``w + x i + y j + z k``; all components are finite floats."""

    __slots__ = ("w", "x", "y", "z")
    __match_args__ = __slots__

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        # all_finite, inlined here and in _quaternion: a call costs as much as the test.
        if (
            w.__class__ is x.__class__ is y.__class__ is z.__class__ is float
            and (w - w) + (x - x) + (y - y) + (z - z) == 0.0
        ):
            _set_w(self, w + 0.0)
            _set_x(self, x + 0.0)
            _set_y(self, y + 0.0)
            _set_z(self, z + 0.0)
        else:
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
        return _quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    __radd__ = __add__

    def __neg__(self) -> Quaternion:
        return _quaternion(-self.w, -self.x, -self.y, -self.z)

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
        if isinstance(other, Quaternion):
            return _quaternion(
                *product(self.w, self.x, self.y, self.z, other.w, other.x, other.y, other.z)
            )
        return self.__rmul__(other)  # a real commutes with every quaternion

    def __rmul__(self, other: float) -> Quaternion:
        real = real_operand(other)
        if real is None:
            return NotImplemented
        return _scaled(self, real)

    def conjugate(self) -> Quaternion:
        return _quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: Quaternion) -> float:
        """Componentwise dot product of the two 4-tuples."""
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def norm_squared(self) -> float:
        return self.dot(self)

    def inverse(self) -> Quaternion:
        """Multiplicative inverse, ``conjugate / norm**2``.

        Where the squared norm is not a normal double, it is computed by the
        scaling rule of ``_common.scale_exponent``, and an inverse beyond the
        double range raises ``NonFiniteError``.
        """
        if self.is_zero:
            raise NotInvertibleError("the zero quaternion has no inverse")
        n2 = self.norm_squared()
        if MIN_NORMAL <= n2 < math.inf:  # a normal double; a sum of squares is never NaN
            return _quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)
        k = -scale_exponent(self.components())
        w, x, y, z = [times_power_of_two(c, k, "inverse", self) for c in self.components()]
        n2 = w * w + x * x + y * y + z * z
        # inverse(q 2**k) is inverse(q) 2**-k.  Four calls cost less than a comprehension.
        return _quaternion(
            times_power_of_two(w / n2, k, "inverse", self), times_power_of_two(-x / n2, k, "inverse", self),
            times_power_of_two(-y / n2, k, "inverse", self), times_power_of_two(-z / n2, k, "inverse", self),
        )

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
_new = object.__new__


def _quaternion(w: float, x: float, y: float, z: float) -> Quaternion:
    """``Quaternion(w, x, y, z)`` for floats that a kernel computed.

    Skips the public constructor's coercion, but not its finiteness test: a
    non-finite field goes through the public constructor, which raises the
    same ``NonFiniteError`` with the same text.
    """
    if (w - w) + (x - x) + (y - y) + (z - z) != 0.0:
        return Quaternion(w, x, y, z)  # raises
    q = _new(Quaternion)
    _set_w(q, w + 0.0)
    _set_x(q, x + 0.0)
    _set_y(q, y + 0.0)
    _set_z(q, z + 0.0)
    return q


def _scaled(q: Quaternion, real: float) -> Quaternion:
    """``q`` times a real, which commutes with every quaternion.

    The Hamilton product with the embedded ``Quaternion(real)``, from either
    side, adds only signed zeros to these four products, so after ``-0.0``
    is normalized it is bit-identical, overflow included.  A non-finite
    real raises as embedding it does.
    """
    if not all_finite(real):
        Quaternion(real)  # raises
    return _quaternion(q.w * real, q.x * real, q.y * real, q.z * real)


def product(
    aw: float, ax: float, ay: float, az: float, bw: float, bx: float, by: float, bz: float
) -> tuple[float, float, float, float]:
    """The Hamilton product ``a * b`` of two quaternions given as components.

    The one definition of the product rule, which ``Quaternion.__mul__``
    evaluates.  Two vector kernels write it out with the conjugation of the
    left factor folded into the signs, and must round as
    ``product(conjugate(a), b)`` does: the inner-product kernel, and the self
    form of the unit and basis checks' Gram kernel, which evaluates each
    product that repeats in ``conj(a) a`` once.  No component is checked, so
    an overflow comes back as an infinity.
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
    # Two sums of 4 products, within γ_5 of at most 2|p||q|; ``direct`` γ_4; each k +1 for the scale.
    scale = 2.0 * p.norm() * q.norm()
    if not (close(symmetric.imaginary_magnitude(), 0.0, scale, 6) and close(symmetric.w, direct, scale, 10)):
        raise ConsistencyError(f"mixed sum {symmetric} from p={p}, q={q} is not its dot form {direct!r}")
    return direct

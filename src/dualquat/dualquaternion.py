"""Dual quaternions: ``std + inf*e`` with quaternion parts and ``e*e == 0``.

The dual unit commutes with the quaternion units, so products expand the
same way as for dual numbers, with the noncommutative quaternion product
inside each part.  A dual quaternion is appreciable when its standard part
is nonzero (exact test); only appreciable values are invertible.

The magnitude of a dual quaternion is a dual *number*: for an appreciable
value it is ``|std| + (std·inf / |std|) e``, where ``std·inf`` is the
componentwise dot product (half the mixed sum ``std inf* + inf std*``), and
for an infinitesimal one it is ``|inf| e``: ``_common.dual_hypot`` of the
component pairs, which ``_magnitudes`` evaluates as a quotient where that
is proved as close.  ``_magnitudes`` is the one definition of the rule, over
a list of values: ``magnitude()`` takes it of a list of one, and the vector
norms of their entries.  The scale of its parts for ``close``, the rule over
the absolute components, is the list kernel ``_magnitude_scales``, built the
same way.  ``magnitude_via_sqrt`` reaches the appreciable
case independently as ``sqrt(q * q.conjugate())``, sharing neither, and
exists mainly so the two routes can be checked against each other.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._common import DOT_FLOOR, LARGEST, MIN_NORMAL, dual_hypot
from ._common import UNIT_TOL, Value, agree, check_tolerance, close, real_operand, scale_exponent, times_power_of_two
from .dual import DualNumber, _dual_number
from .errors import ConsistencyError, NotAppreciableError, NotInvertibleError
from .quaternion import Quaternion, _scaled

__all__ = ["DualQuaternion", "UnitCheck", "magnitude_routes_agree", "magnitude_scale"]


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
        return cls(Quaternion(value), Quaternion())

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
        return _dual_quaternion(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __neg__(self) -> DualQuaternion:
        return _dual_quaternion(-self.std, -self.inf)

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
        if not isinstance(other, DualQuaternion):
            real = real_operand(other)
            if real is not None:
                return _scaled_dual_quaternion(self, real)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # e*e kills the inf*inf term; order matters in each product.
        return _dual_quaternion(
            self.std * other.std,
            self.inf * other.std + self.std * other.inf,
        )

    def __rmul__(self, other) -> DualQuaternion:
        real = real_operand(other)
        if real is not None:
            return _scaled_dual_quaternion(self, real)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def conjugate(self) -> DualQuaternion:
        return _dual_quaternion(self.std.conjugate(), self.inf.conjugate())

    def inverse(self) -> DualQuaternion:
        """Two-sided inverse; exists exactly for appreciable values."""
        if not self.is_appreciable:
            raise NotInvertibleError("infinitesimal dual quaternions have no inverse")
        std_inv = self.std.inverse()
        return _dual_quaternion(std_inv, -(std_inv * self.inf * std_inv))

    def magnitude(self) -> DualNumber:
        return _dual_number(*_magnitudes((self,))[0])

    def magnitude_via_sqrt(self) -> DualNumber:
        """Magnitude computed as ``sqrt(q * q.conjugate())``.

        ``q * q.conjugate()`` is a real dual number whenever the identity
        algebra holds, so its quaternion parts are checked for vanishing
        imaginary components before taking the square root.  Only defined
        for appreciable values; the square root of an infinitesimal square
        magnitude is not representable.

        The route runs on ``std 2**-k + inf 2**-m e`` by the scaling rule of
        ``_common.scale_exponent``, one exponent per part since each part of
        the magnitude scales with its own, and a magnitude beyond the double
        range raises ``NonFiniteError``.  The parts are within γ_3 and γ_9 of ``magnitude_scale``:
        4 squares added, a root; two sums of 4 products added, a division.
        """
        if not self.is_appreciable:
            raise NotAppreciableError("sqrt route to the magnitude needs an appreciable value")
        # 2**-k stays a double: below 2**-1022 the largest component is
        # brought up only to [2**-52, 0.5), which squares to a normal double.
        # A zero infinitesimal part has exponent 0 and is left as it is.
        k, m = [max(scale_exponent(part.components()), -1022) for part in (self.std, self.inf)]
        scaled = _dual_quaternion(
            _scaled(self.std, times_power_of_two(1.0, -k, "magnitude", self)),
            _scaled(self.inf, times_power_of_two(1.0, -m, "magnitude", self)),
        )
        product = scaled * scaled.conjugate()
        # An imaginary part adds two sums of 4 products that cancel: within γ_5 of 2|std||inf| <= scale**2.
        scale = scaled.std.norm() + scaled.inf.norm()
        for part in (product.std, product.inf):
            if not close(part.imaginary_magnitude(), 0.0, scale * scale, 5):
                raise ConsistencyError(f"q * q.conjugate() is not real: got {part} in {product}")
        root = DualNumber(product.std.w, product.inf.w).sqrt()
        return _dual_number(
            times_power_of_two(root.std, k, "magnitude", self), times_power_of_two(root.inf, m, "magnitude", self)
        )

    def unit_check(self, tol: float = UNIT_TOL) -> UnitCheck:
        """Test whether this is a unit dual quaternion.

        The characterization is exact in exact arithmetic: unit standard
        part and vanishing mixed sum.  Both residuals are reported and
        compared against ``tol``.  The mixed residual ``|2 std.inf|`` is
        recomputed by the scaling rule of ``_common.scale_exponent`` when it
        overflows, and raises ``NonFiniteError`` beyond the double range.
        """
        check_tolerance(tol)
        norm_residual = abs(self.std.norm() - 1.0)
        mixed_residual = abs(2.0 * self.std.dot(self.inf))
        if not math.isfinite(mixed_residual):
            # The same dot product on parts scaled by their own exponents: as the
            # product overflowed, both are at least -2, so each factor 2**-k is a
            # double.  Exact but for negligible components; no scaled product reaches 1.
            k, m = [scale_exponent(part.components()) for part in (self.std, self.inf)]
            std = _scaled(self.std, times_power_of_two(1.0, -k, "mixed-sum residual", self))
            inf = _scaled(self.inf, times_power_of_two(1.0, -m, "mixed-sum residual", self))
            mixed_residual = times_power_of_two(abs(2.0 * std.dot(inf)), k + m, "mixed-sum residual", self)
        return UnitCheck(
            passed=norm_residual <= tol and mixed_residual <= tol,
            norm_residual=norm_residual,
            mixed_residual=mixed_residual,
        )

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return self.unit_check(tol).passed

    def __str__(self) -> str:
        return f"({self.std})+({self.inf})e"


_set_std = DualQuaternion.std.__set__
_set_inf = DualQuaternion.inf.__set__
_new = object.__new__


def _dual_quaternion(std: Quaternion, inf: Quaternion) -> DualQuaternion:
    """``DualQuaternion(std, inf)`` for parts that a kernel computed.

    Skips the public constructor's type checks: the callers pass the
    ``Quaternion`` results of quaternion operators or constructors.
    """
    value = _new(DualQuaternion)
    _set_std(value, std)
    _set_inf(value, inf)
    return value


def _scaled_dual_quaternion(value: DualQuaternion, real: float) -> DualQuaternion:
    """``value`` times a real: each part as ``_scaled`` computes it."""
    return _dual_quaternion(_scaled(value.std, real), _scaled(value.inf, real))


def _magnitudes(entries: Iterable[DualQuaternion]) -> list[tuple[float, float]]:
    """The parts of the magnitude of each entry, in entry order, unchecked: the one definition of the rule.

    ``DualQuaternion.magnitude`` takes it of a list of one, and the vector
    norms reduce it over their entries with no call per entry.  An
    appreciable entry ``p + f e`` gives ``n = hypot(p)`` and ``d / n``, with
    ``d`` the dot product ``Quaternion.dot`` forms, left to right, where
    ``_common.dual_hypot`` proves that quotient within its bounds, and
    ``dual_hypot`` of the four component pairs elsewhere.  A zero standard
    part gives ``(0.0, hypot(f))``, ``dual_hypot``'s value there.  Each pair
    depends on its entry alone.  ``vectors._self_parts`` holds one copy,
    bit-identical to it, over the ``d`` its self inner product has formed; a
    change here must change it too, and
    ``test_self_form_magnitudes_are_magnitude_parts`` fails until it does.  No
    part is checked, so a magnitude beyond the double range comes back as an
    infinity.  The parts are within γ_2 and γ_7 of ``magnitude_scale``: one
    ``hypot``; 4 products added, divided, or 4 weights times ``inf``, added.
    """
    magnitudes = []
    for e in entries:
        p, f = e.std, e.inf
        w, x = p.w, p.x
        y, z = p.y, p.z
        if w == 0.0 and x == 0.0 and y == 0.0 and z == 0.0:
            magnitudes.append((0.0, math.hypot(f.w, f.x, f.y, f.z)))
        else:
            n = math.hypot(w, x, y, z)
            d = w * f.w + x * f.x + y * f.y + z * f.z
            if (n >= 0.5 and abs(d) <= LARGEST or n >= MIN_NORMAL and DOT_FLOOR <= abs(d) <= LARGEST
                    or not (f.w or f.x or f.y or f.z)):
                magnitudes.append((n, d / n))
            else:
                magnitudes.append(dual_hypot(((w, f.w), (x, f.x), (y, f.y), (z, f.z))))
    return magnitudes


def _magnitude_scales(entries: Iterable[DualQuaternion]) -> list[tuple[float, float]]:
    """The scales of the magnitude's parts for ``close``, for each entry in entry order: the rule of ``_magnitudes``
    over the absolute components.

    Built as ``_magnitudes`` is, with ``d`` the sum of the ``|p_i f_i|`` and ``dual_hypot`` of the absolute pairs
    where the guard fails.  A zero standard part gives ``(0.0, hypot(f))``, which is ``dual_hypot``'s value there,
    as ``hypot`` ignores signs.  ``magnitude_scale`` takes it of a list of one, and ``vectors.norm_scales`` of a
    vector's entries."""
    scales = []
    for e in entries:
        p, f = e.std, e.inf
        w, x = p.w, p.x
        y, z = p.y, p.z
        if w == 0.0 and x == 0.0 and y == 0.0 and z == 0.0:
            scales.append((0.0, math.hypot(f.w, f.x, f.y, f.z)))
        else:
            n = math.hypot(w, x, y, z)
            d = abs(w * f.w) + abs(x * f.x) + abs(y * f.y) + abs(z * f.z)
            if (n >= 0.5 and abs(d) <= LARGEST or n >= MIN_NORMAL and DOT_FLOOR <= abs(d) <= LARGEST
                    or not (f.w or f.x or f.y or f.z)):
                scales.append((n, d / n))
            else:
                scales.append(dual_hypot(((abs(w), abs(f.w)), (abs(x), abs(f.x)), (abs(y), abs(f.y)), (abs(z), abs(f.z)))))
    return scales


def magnitude_scale(std: Quaternion, inf: Quaternion) -> tuple[float, float]:
    """The scales of the magnitude's parts of ``std + inf e`` for ``close``: ``_magnitude_scales`` of a list of one."""
    return _magnitude_scales((_dual_quaternion(std, inf),))[0]


def magnitude_routes_agree(q: DualQuaternion, magnitude: DualNumber, via_sqrt: DualNumber) -> tuple[bool, float]:
    """Whether ``q.magnitude()`` and ``q.magnitude_via_sqrt()`` agree, and their largest difference.

    Against ``magnitude_scale``, ``magnitude()`` is within γ_2 and γ_7 of the exact parts, on the
    quotient's path and on ``dual_hypot``'s alike, and ``magnitude_via_sqrt()`` within γ_3 and γ_9,
    so the two are close at k = 16, part by part.
    """
    return agree(via_sqrt, magnitude, _magnitude_scales((q,))[0], 16)


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

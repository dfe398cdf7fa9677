"""Dual numbers: values of the form ``std + inf*e`` where ``e*e == 0``.

The two float components are the standard part and the infinitesimal part.
A dual number is *appreciable* when its standard part is nonzero and
*infinitesimal* otherwise; both tests are exact, never tolerance-based.
Comparisons use the total order that ranks by standard part first and
breaks ties on the infinitesimal part, so every pair of values is ordered.

Arithmetic follows from ``e*e == 0``:

* ``(a + b e) + (c + d e) == (a + c) + (b + d) e``
* ``(a + b e) * (c + d e) == a c + (a d + b c) e``
* ``(a + b e) ** k        == a**k + k a**(k-1) b e``

Every operation returns a new value; nothing here mutates.  Components are
IEEE-754 doubles, and any operation whose result component would be NaN or
infinite raises :class:`~dualquat.errors.NonFiniteError` instead of letting
non-finite values poison the order relation.
"""

from __future__ import annotations

import enum
import math
import operator

from ._common import Value, finite, real_operand
from .errors import (
    NegativeArgumentError,
    NonFiniteError,
    NotInvertibleError,
    NotRepresentableError,
)

__all__ = [
    "DualNumber",
    "Ordering",
    "DualInterval",
    "NoRootReport",
    "EPSILON",
    "ORDER_SLACK",
    "sgn",
    "le_defect",
    "no_root_witness",
]

ORDER_SLACK = 1e-12  # slack on the deciding component of an order check


def sgn(value: float) -> float:
    """Sign of a real number: -1.0, 0.0, or 1.0."""
    if value > 0.0:
        return 1.0
    if value < 0.0:
        return -1.0
    return 0.0


def _order(relation):
    """An order dunder applying ``relation`` to the ``(std, inf)`` keys."""

    def method(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return relation((self.std, self.inf), (other.std, other.inf))

    return method


class Ordering(enum.Enum):
    """Outcome of comparing two values under the total order."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


class DualNumber(Value):
    """The dual number ``std + inf*e``; both parts are finite floats."""

    __slots__ = ("std", "inf")  # standard part, infinitesimal part
    __match_args__ = __slots__

    def __init__(self, std: float = 0.0, inf: float = 0.0):
        _set_std(self, finite(std, "standard part"))
        _set_inf(self, finite(inf, "infinitesimal part"))

    @property
    def is_appreciable(self) -> bool:
        return self.std != 0.0

    @property
    def is_infinitesimal(self) -> bool:
        return self.std == 0.0

    @property
    def is_zero(self) -> bool:
        return self.std == 0.0 and self.inf == 0.0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __neg__(self) -> DualNumber:
        return DualNumber(-self.std, -self.inf)

    def __sub__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # The e*e cross term vanishes.
        return DualNumber(
            self.std * other.std,
            self.std * other.inf + self.inf * other.std,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> DualNumber:
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 1:
            raise ValueError("exponent must be a positive integer")
        try:
            std = self.std**exponent
            inf = exponent * self.std ** (exponent - 1) * self.inf
        except OverflowError:
            raise NonFiniteError(f"a power of {self} overflows") from None
        return DualNumber(std, inf)

    def inverse(self) -> DualNumber:
        """Multiplicative inverse; defined only for appreciable values."""
        if self.std == 0.0:
            raise NotInvertibleError("infinitesimal dual numbers have no inverse")
        # Scale by 1/std before squaring, so that std*std cannot under- or
        # overflow where the infinitesimal part of the result is representable.
        inv = 1.0 / self.std
        return DualNumber(inv, -self.inf * inv * inv)

    def __truediv__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: DualNumber | float) -> DualNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def sqrt(self) -> DualNumber:
        """Square root.

        Defined for appreciable positive values and for exact zero.  A
        positive infinitesimal has no square root among dual numbers (its
        square would need a nonzero e**2 coefficient), so that case raises
        NotRepresentableError; anything below zero in the total order
        raises NegativeArgumentError.
        """
        if self.std < 0.0 or (self.std == 0.0 and self.inf < 0.0):
            raise NegativeArgumentError("square root of a negative dual number")
        if self.std == 0.0:
            if self.inf == 0.0:
                return DualNumber(0.0, 0.0)
            raise NotRepresentableError(
                "a positive infinitesimal has no dual-number square root"
            )
        root = math.sqrt(self.std)
        return DualNumber(root, self.inf / (2.0 * root))

    def __abs__(self) -> DualNumber:
        # For an appreciable value the standard part fixes the sign of the
        # whole number; for an infinitesimal one only the inf part matters.
        if self.std != 0.0:
            return DualNumber(abs(self.std), sgn(self.std) * self.inf)
        return DualNumber(0.0, abs(self.inf))

    # -- order --------------------------------------------------------

    def compare(self, other: DualNumber | float) -> Ordering:
        """Total order: by standard part, ties broken by infinitesimal part."""
        coerced = _coerce(other)
        if coerced is None:
            raise TypeError(f"cannot compare DualNumber with {type(other).__name__}")
        mine, theirs = (self.std, self.inf), (coerced.std, coerced.inf)
        if mine < theirs:
            return Ordering.LESS
        if mine == theirs:
            return Ordering.EQUAL
        return Ordering.GREATER

    def __eq__(self, other: object) -> bool:
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.std == coerced.std and self.inf == coerced.inf

    def __hash__(self) -> int:
        # Duals that equal a plain real must hash like that real.
        if self.inf == 0.0:
            return hash(self.std)
        return hash((self.std, self.inf))

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __str__(self) -> str:
        if self.inf < 0.0:
            return f"{self.std!r}-{-self.inf!r}e"
        return f"{self.std!r}+{self.inf!r}e"


_set_std = DualNumber.std.__set__
_set_inf = DualNumber.inf.__set__


def _coerce(value: object) -> DualNumber | None:
    if isinstance(value, DualNumber):
        return value
    real = real_operand(value)
    return None if real is None else DualNumber(real, 0.0)


EPSILON = DualNumber(0.0, 1.0)


def le_defect(a: DualNumber, b: DualNumber) -> float:
    """How much ``a <= b`` fails by, 0.0 when it holds within ``ORDER_SLACK``.

    Standard parts within the slack count as tied; the comparison then
    falls to the infinitesimal parts with the same slack.
    """
    delta = a.std - b.std
    if abs(delta) > ORDER_SLACK:
        return max(0.0, delta)
    return max(0.0, a.inf - b.inf - ORDER_SLACK)


class DualInterval(Value):
    """An interval of dual numbers under the total order, closed by default.

    A missing bound means the interval is unbounded on that side; the
    corresponding ``*_closed`` flag is then ignored.  Membership is exact:
    no tolerances are applied at the endpoints.
    """

    __slots__ = ("lower", "upper", "lower_closed", "upper_closed")

    def __init__(
        self,
        lower: DualNumber | None = None,
        upper: DualNumber | None = None,
        lower_closed: bool = True,
        upper_closed: bool = True,
    ):
        if lower is not None and upper is not None:
            if lower_closed and upper_closed:
                if lower > upper:
                    raise ValueError("closed interval needs lower <= upper")
            elif lower >= upper:
                raise ValueError("interval with an open end needs lower < upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower_closed", lower_closed)
        object.__setattr__(self, "upper_closed", upper_closed)

    def contains(self, value: DualNumber | float) -> bool:
        candidate = _coerce(value)
        if candidate is None:
            raise TypeError("interval membership needs a DualNumber or real")
        if self.lower is not None:
            if self.lower_closed:
                if candidate < self.lower:
                    return False
            elif candidate <= self.lower:
                return False
        if self.upper is not None:
            if self.upper_closed:
                if candidate > self.upper:
                    return False
            elif candidate >= self.upper:
                return False
        return True

    def __contains__(self, value: DualNumber | float) -> bool:
        return self.contains(value)


class NoRootReport(Value):
    """Evidence that ``f(x) = x*x - e`` changes sign on [0, 1] without a root.

    ``f`` is negative at 0 and positive at 1, yet has no root anywhere: the
    intermediate value property fails for dual-valued polynomials.
    """

    __slots__ = (
        "value_at_zero",
        "sign_at_zero",
        "value_at_one",
        "sign_at_one",
        "interval",
        "root_exists",
    )

    def __init__(
        self,
        value_at_zero: DualNumber,
        sign_at_zero: Ordering,
        value_at_one: DualNumber,
        sign_at_one: Ordering,
        interval: DualInterval,
        root_exists: bool,
    ):
        object.__setattr__(self, "value_at_zero", value_at_zero)
        object.__setattr__(self, "sign_at_zero", sign_at_zero)
        object.__setattr__(self, "value_at_one", value_at_one)
        object.__setattr__(self, "sign_at_one", sign_at_one)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "root_exists", root_exists)


def no_root_witness() -> NoRootReport:
    """Evaluate ``f(x) = x*x - e`` at the interval ends and solve for a root.

    A root would need both component equations to hold:

    * standard part:       ``x.std ** 2 == 0``
    * infinitesimal part:  ``2 * x.std * x.inf == 1``

    The first forces ``x.std == 0``, which zeroes the coefficient of
    ``x.inf`` in the second, leaving ``0 == 1``.  The report records the
    endpoint values, their signs, and the (non-)existence of a root.
    """

    def f(x: DualNumber) -> DualNumber:
        return x * x - EPSILON

    zero = DualNumber(0.0, 0.0)
    at_zero = f(zero)
    at_one = f(DualNumber(1.0, 0.0))
    forced_std = 0.0  # the only real whose square is zero
    inf_coefficient = 2.0 * forced_std
    # 'inf_coefficient * x.inf == 1' is solvable only for a nonzero coefficient.
    root_exists = inf_coefficient != 0.0
    return NoRootReport(
        value_at_zero=at_zero,
        sign_at_zero=at_zero.compare(zero),
        value_at_one=at_one,
        sign_at_one=at_one.compare(zero),
        interval=DualInterval(zero, DualNumber(1.0, 0.0)),
        root_exists=root_exists,
    )

"""Exact references in rational arithmetic, for the rounding-error bounds of ``dualquat``.

Every finite double is exactly a ``fractions.Fraction``, so sums, products
and quotients of components are exact here.  A square root is irrational in
general: ``sqrt_bracket`` encloses it between two rationals whose squares
enclose the radicand, 2**-200 apart relative to the root, far inside any
bound a double can meet.  A result is judged against a bracket by
``within``, the rule of ``dualquat._common.close`` in exact arithmetic.
"""

import math
import sys
from fractions import Fraction

BITS = 200
U = Fraction(1, 2**53)
TINY = Fraction(2) ** -1074  # the smallest subnormal
LARGEST = Fraction(sys.float_info.max)

Bracket = tuple[Fraction, Fraction]


def sqrt_bracket(x: Fraction) -> Bracket:
    """``(lo, hi)`` with ``lo**2 <= x <= hi**2``, for ``x >= 0``."""
    # sqrt(n/d) = sqrt(n d) / d, and isqrt(n d 4**BITS) = floor(2**BITS sqrt(n d)).
    n, d = x.numerator, x.denominator
    root = math.isqrt((n * d) << (2 * BITS))
    return Fraction(root, d << BITS), Fraction(root + 1, d << BITS)


def magnitude(std, inf) -> tuple[Bracket, Bracket]:
    """Brackets of the standard and infinitesimal parts of the magnitude of ``std + inf e``, for two
    equally long sequences of real components: a dual quaternion's, or a vector's real embedding,
    whose magnitude is the vector's 2-norm."""
    s, i = [tuple(map(Fraction, part)) for part in (std, inf)]
    squares = sum(c * c for c in s)
    if squares == 0:
        return (Fraction(0), Fraction(0)), sqrt_bracket(sum(c * c for c in i))
    lo, hi = sqrt_bracket(squares)
    dot = sum(a * b for a, b in zip(s, i))
    return (lo, hi), tuple(sorted((dot / hi, dot / lo)))


def within(value: float, bracket: Bracket, scale: float, k: int) -> bool:
    """Whether ``value`` is within ``γ_k·scale + k·5e-324`` of every point of ``bracket``.

    A scale that is not finite, a sum of absolute terms beyond the double range, admits anything, as
    an infinite one does in ``close``.
    """
    if not scale < math.inf:
        return True
    bound = _bound(scale, k)
    value = Fraction(value)
    return value - bracket[0] <= bound and bracket[1] - value <= bound


def may_overflow(bracket: Bracket, scale: float, k: int) -> bool:
    """Whether a value within ``γ_k·scale + k·5e-324`` of a point of ``bracket`` may lie beyond the largest double."""
    return not scale < math.inf or max(map(abs, bracket)) + _bound(scale, k) > LARGEST


def _bound(scale: float, k: int) -> Fraction:
    return k * U / (1 - k * U) * Fraction(scale) + k * TINY

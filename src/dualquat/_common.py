"""Internal helpers shared by the value types, and the one rounding-error rule.

``close`` is Higham's forward-error model (*Accuracy and Stability of
Numerical Algorithms*, 2nd ed., §3.1): a value computed with ``k``
roundings lies within ``γ_k·scale`` of its exact value, ``γ_k = k·u/(1 − k·u)``,
where ``scale`` sums the absolute terms behind it.  A dual value has one
scale per part, since its two parts scale independently.  ``agree`` is the
one rule that two routes to a value agree: ``close`` part by part.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import NonFiniteError

u = 2.0**-53  # unit roundoff of IEEE double precision
MIN_NORMAL = 2.0**-1022  # the smallest normal double: a quotient below it keeps fewer bits
LARGEST = math.nextafter(math.inf, 0.0)  # the largest double: abs(v) <= LARGEST exactly when v is finite
DOT_FLOOR = 2.0**-960  # a dot product this large hides its underflowed products in γ_k: see dual_hypot
UNIT_TOL = 1e-9  # default residual tolerance of the unit and orthonormality checks: not a rounding bound


def check_tolerance(tol: float) -> None:
    """Reject a check tolerance that is not finite and ``>= 0.0``: a negative one, an infinity or NaN;
    and a ``bool``, which is not a number here, as ``real_operand`` says."""
    if tol.__class__ is bool:
        raise TypeError("tolerance must be a number, got bool")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def close(a: float, b: float, scale: float, k: int) -> bool:
    """Whether ``|a − b| <= γ_k·scale + k·5e-324``: each rounding may also underflow by 5e-324.

    Values within ``γ_i·scale`` and ``γ_j·scale`` of one exact value are close at ``k = i + j``."""
    return abs(a - b) <= k * u / (1.0 - k * u) * scale + k * 5e-324


def agree(a, b, scale, k: int) -> tuple[bool, float]:
    """Whether two routes to one float, quaternion, dual number or dual quaternion agree, and the
    largest componentwise difference.  They agree when that difference is ``close`` to 0.0 at ``k``:
    a scale is a float, or a (standard, infinitesimal) pair for a dual value, each part at its own."""
    if scale.__class__ is tuple:
        (std_ok, std), (inf_ok, inf) = agree(a.std, b.std, scale[0], k), agree(a.inf, b.inf, scale[1], k)
        return std_ok and inf_ok, max(std, inf)
    diff = abs(a - b) if a.__class__ is float else max(abs(a.w - b.w), abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
    return close(diff, 0.0, scale, k), diff


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
    out = _float(value)
    if not math.isfinite(out):
        raise NonFiniteError(f"{label} must be finite, got {out!r}")
    return out + 0.0


def all_finite(w: float, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> bool:
    """Whether every one of up to four floats is finite, in one test.

    ``v - v`` is 0.0 for a finite float and NaN for an infinity or a NaN, so
    the sum is 0.0 exactly when all are finite; it cannot overflow.  The
    constructors of ``Quaternion`` and ``DualNumber`` and their trusted
    counterparts ``_quaternion`` and ``_dual_number`` inline this test on
    their fields.  They store an all-finite float ``v`` as ``v + 0.0``, which
    is what ``finite`` returns for it, and take ``finite`` per field
    otherwise, for its coercion and its error text.
    """
    return (w - w) + (x - x) + (y - y) + (z - z) == 0.0


def scale_exponent(values: Iterable[float]) -> int:
    """The exponent ``k`` of the largest ``|v|``, as ``math.frexp`` gives it; 0 when all are zero.

    The one power-of-two scaling rule for formulas that square components
    (Blue, ACM TOMS 4(1), 1978): times ``2**-k`` the largest lies in [0.5, 1),
    so no square overflows, and ``times_power_of_two`` scales back.  Scaling
    by a power of two is exact unless the value leaves the normal range, so
    wherever the unscaled formula stays inside it, the two agree bit for bit.
    """
    return math.frexp(max(map(abs, values)))[1]


def times_power_of_two(value: float, k: int, what: str, subject: object) -> float:
    """``value * 2**k`` by ``math.ldexp``; beyond the double range, ``NonFiniteError``.

    The error's text, "the {what} of {subject} overflows", is formatted only then.
    """
    try:
        return math.ldexp(value, k)
    except OverflowError:
        raise NonFiniteError(f"the {what} of {subject} overflows") from None


def dual_hypot(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The hypot of the dual numbers ``a_i + b_i e`` of ``pairs``, unchecked: ``N = hypot(a_1, ..., a_k)``
    and ``sum((a_i / N) * b_i)`` in order, or ``(0.0, hypot(b_1, ..., b_k))`` when ``N == 0``.

    The one kernel of the magnitude rule ``|a| + (a·b / |a|) e``: over the component pairs of a
    dual quaternion it is the magnitude, over their absolute values its scale, over a vector's
    entry magnitudes the 2-norm and over its flattened real embeddings the closed form.  It forms no
    square and no product ``a_i·b_i`` (Blue, ACM TOMS 4(1), 1978), so it overflows only where the
    result does.  A subnormal ``N`` or weight ``a_i / N`` would keep few bits, so it is formed from the
    ``a_i`` times 2**1022.  A term with ``a_i == 0`` is 0 exactly whatever ``b_i`` is, so it is skipped:
    as ``+0.0`` or ``-0.0`` added to a sum that started at ``+0.0`` it never changed the result.
    Against the kernel over the absolute pairs, the parts are within γ_2 (a hypot) and γ_(k+3)
    (a weight within γ_3, times ``b_i``, then k − 1 additions), with the underflows in the
    ``(k + 3)·5e-324`` of ``close``: a term is off by 2**-1075 at most, and only a weight below 2**-2044,
    beside an ``N`` above 2**970, can cost its term up to 5·2**-1075.  The magnitude and the closed
    form call this with such an ``N`` only when ``d`` below has overflowed, so their scale is then at
    least 1/(4k), whose γ_(k+3) covers that.

    Its callers first try ``d / N``, with ``d = a·b`` summed left to right, and call this only where
    a guard does not prove that quotient within the same bounds.  It does when ``d`` is finite, so
    no product overflowed, and either ``N >= 0.5`` or ``|d| >= DOT_FLOOR`` with a normal ``N``; and
    when every ``b_i`` is zero, where the quotient is exact.  The k products underflow by k·2**-1075
    at most.  Divided by ``N >= 0.5`` and with the quotient's own underflow, that is inside
    ``(k + 3)·5e-324``; beside ``|d| >= 2**-960`` it is at most k·2**-115 of the sum of the
    ``|a_i b_i|``, inside the second-order slack of γ_(k+3) over k + 3 roundings, which is at least 21u².
    """
    norm = math.hypot(*[a for a, _ in pairs])
    if norm == 0.0:
        return 0.0, math.hypot(*[b for _, b in pairs])
    if norm < MIN_NORMAL:
        norm, inf = dual_hypot([(a / MIN_NORMAL, b) for a, b in pairs])
        return norm * MIN_NORMAL, inf
    inf, floor = 0.0, norm * MIN_NORMAL  # a_i / N is normal where |a_i| >= floor
    for a, b in pairs:
        if not a:
            continue
        if a >= floor or -a >= floor:
            inf += a / norm * b
        else:
            inf += a / MIN_NORMAL / norm * b * MIN_NORMAL
    return norm, inf


def real_operand(value: object) -> float | None:
    """The float a real-scalar operand stands for, or None if it is not one.

    ``int`` and ``float`` embed as reals; ``bool`` is not a number here,
    although it subclasses ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return _float(value)


def _float(value) -> float:
    """``float(value)``, but a number beyond the double range gives the infinity of its sign.

    ``float`` raises ``OverflowError`` there; the infinity makes the callers
    raise ``NonFiniteError`` instead, with their own texts.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf

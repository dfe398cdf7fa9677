"""The power-of-two scaling rule, against the formulas it replaced, across the double range.

``Quaternion.inverse``, ``DualQuaternion.magnitude_via_sqrt`` and the
overflow branch of ``DualQuaternion.unit_check`` each scale by
``_common.scale_exponent`` and ``_common.times_power_of_two``.  The
references below write out each site's scaling by hand, with ``math.frexp``,
``math.ldexp`` and its own ``OverflowError`` handler, as the sites did before
the rule existed.  Every result must match its reference in ``repr``, and
every error in class and exact text.
"""

import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from dualquat import (
    ConsistencyError,
    DualNumber,
    DualQuatError,
    DualQuaternion,
    NonFiniteError,
    NotAppreciableError,
    NotInvertibleError,
    Quaternion,
    UnitCheck,
)
from dualquat._common import UNIT_TOL, close, scale_exponent, times_power_of_two

MAX = sys.float_info.max

# m 2**e over every binary exponent; below e = -1021 the product is
# subnormal, and m = 0.0 gives zeros.
exponents = st.integers(-1074, 1023)
mantissas = st.floats(-1.0, 1.0)
components = st.one_of(
    st.builds(math.ldexp, mantissas, exponents),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, MAX, -MAX)),
)
# All four components at one scale, where the squared norm leaves the
# normal range for the whole quaternion at once.
one_scale = st.builds(
    lambda e, ms: Quaternion(*[math.ldexp(m, e) for m in ms]), exponents, st.tuples(*[mantissas] * 4)
)
quaternions = st.one_of(st.builds(Quaternion, *[components] * 4), one_scale)
dual_quaternions = st.builds(DualQuaternion, quaternions, quaternions)


def test_the_rule_is_frexp_of_the_largest_and_ldexp_with_the_callers_text():
    assert scale_exponent((0.0, -0.75, 0.5, 0.0)) == 0
    assert scale_exponent((3.0, -4.0)) == 3
    assert scale_exponent((5e-324, -0.0)) == -1073
    assert scale_exponent((MAX,)) == 1024
    assert scale_exponent((0.0, -0.0)) == 0
    assert times_power_of_two(-0.5, 1024, "value", 1) == -(2.0**1023)
    assert times_power_of_two(0.75, -1074, "value", 1) == 5e-324  # rounded to nearest
    assert times_power_of_two(0.5, -1074, "value", 1) == 0.0  # a tie, rounded to even
    with pytest.raises(NonFiniteError) as err:
        times_power_of_two(1.0, 1024, "value", Quaternion(2.0))
    assert str(err.value) == "the value of 2.0+0.0i+0.0j+0.0k overflows"

    class Unformattable:
        def __str__(self):
            raise AssertionError("the text was formatted without an error")

    assert times_power_of_two(1.0, 3, "value", Unformattable()) == 8.0


def outcome(f, *args):
    """``repr`` of the result, or the error's class and exact text."""
    try:
        return repr(f(*args))
    except DualQuatError as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_inverse(q):
    if q.is_zero:
        raise NotInvertibleError("the zero quaternion has no inverse")
    n2 = q.norm_squared()
    if 2.2250738585072014e-308 <= n2 <= 1.7976931348623157e308:
        return Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)
    k = -math.frexp(max(map(abs, q.components())))[1]
    w, x, y, z = [math.ldexp(c, k) for c in q.components()]
    n2 = w * w + x * x + y * y + z * z
    try:
        return Quaternion(*[math.ldexp(c / n2, k) for c in (w, -x, -y, -z)])
    except OverflowError:
        raise NonFiniteError(f"the inverse of {q} overflows") from None


def reference_magnitude_via_sqrt(q):
    if not q.is_appreciable:
        raise NotAppreciableError("sqrt route to the magnitude needs an appreciable value")
    k, m = [max(math.frexp(max(map(abs, part.components())))[1], -1022) for part in (q.std, q.inf)]
    scaled = DualQuaternion(q.std * math.ldexp(1.0, -k), q.inf * math.ldexp(1.0, -m))
    product = scaled * scaled.conjugate()
    scale = scaled.std.norm() + scaled.inf.norm()
    for part in (product.std, product.inf):
        if not close(part.imaginary_magnitude(), 0.0, scale * scale, 5):
            raise ConsistencyError(f"q * q.conjugate() is not real: got {part} in {product}")
    root = DualNumber(product.std.w, product.inf.w).sqrt()
    try:
        return DualNumber(math.ldexp(root.std, k), math.ldexp(root.inf, m))
    except OverflowError:
        raise NonFiniteError(f"the magnitude of {q} overflows") from None


def reference_unit_check(q):
    norm_residual = abs(q.std.norm() - 1.0)
    mixed_residual = abs(2.0 * q.std.dot(q.inf))
    if not math.isfinite(mixed_residual):
        std_exp = math.frexp(max(map(abs, q.std.components())))[1]
        inf_exp = math.frexp(max(map(abs, q.inf.components())))[1]
        scaled = sum(
            math.ldexp(a, -std_exp) * math.ldexp(b, -inf_exp)
            for a, b in zip(q.std.components(), q.inf.components())
        )
        try:
            mixed_residual = math.ldexp(abs(2.0 * scaled), std_exp + inf_exp)
        except OverflowError:
            raise NonFiniteError(f"the mixed-sum residual of {q} overflows") from None
    passed = norm_residual <= UNIT_TOL and mixed_residual <= UNIT_TOL
    return UnitCheck(passed=passed, norm_residual=norm_residual, mixed_residual=mixed_residual)


@given(quaternions)
@example(Quaternion(1e-170))  # the squared norm underflows: scaled
@example(Quaternion(1e200, -1e200, 1e200, 1e200))  # it overflows: scaled
@example(Quaternion(5e-324, -5e-324))  # the inverse overflows
@example(Quaternion())  # not invertible
def test_inverse_is_the_hand_scaled_formula(q):
    assert outcome(Quaternion.inverse, q) == outcome(reference_inverse, q)


@given(dual_quaternions)
@example(DualQuaternion(Quaternion(1e-300, 5e-324), Quaternion(0.0, 1e300)))  # parts at two scales
@example(DualQuaternion(Quaternion(MAX, MAX)))  # the magnitude overflows
@example(DualQuaternion(Quaternion(), Quaternion(1.0)))  # not appreciable
# The scaling leaves the small standard component subnormal, so the
# infinitesimal part depends on the exact exponent.
@example(DualQuaternion(Quaternion(-5.0984751092188913e-157, -6.449642815857126e165), Quaternion(3.190147189883798e37)))
def test_magnitude_via_sqrt_is_the_hand_scaled_formula(q):
    assert outcome(DualQuaternion.magnitude_via_sqrt, q) == outcome(reference_magnitude_via_sqrt, q)


@given(dual_quaternions)
@example(DualQuaternion(Quaternion(1e300, 1e300), Quaternion(1e300, -1e300)))  # inf - inf, rescued
@example(DualQuaternion(Quaternion(1e154, 1e154, 1e154), Quaternion(9e153, 9e153, -9.5e153)))  # 1.7e308
@example(DualQuaternion(Quaternion(1e300), Quaternion(1e300)))  # the residual overflows
def test_unit_check_is_the_hand_scaled_formula(q):
    assert outcome(DualQuaternion.unit_check, q) == outcome(reference_unit_check, q)

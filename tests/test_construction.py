"""The construction fast paths give what the per-field rule gives.

``Quaternion`` and ``DualNumber`` test all their fields for finiteness at
once when every argument is a float, and kernels build their results with
the trusted constructors ``_quaternion`` and ``_dual_number``.  Both must
store the fields that ``finite`` stores, -0.0 normalized, or raise the
``NonFiniteError`` that ``finite`` raises for the first bad field, with the
same text.  Products with a real scale the components directly; they must
be bit-identical to the full product with the embedded real, overflow
errors included.
"""

import math

import pytest
from hypothesis import given, strategies as st

from dualquat import DQVector, DualNumber, DualQuaternion, NonFiniteError, Quaternion
from dualquat._common import all_finite, finite
from dualquat.dual import _dual_number
from dualquat.quaternion import _quaternion

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, math.inf, -math.inf, math.nan]

# Signed m * 10**e from the subnormals to past the top of the double range,
# where the text rounds to an infinity.
scaled_floats = st.builds(
    lambda sign, m, e: float(f"{sign}{m:.6f}e{e}"),
    st.sampled_from("+-"), st.floats(0.0, 10.0), st.integers(-330, 308),
)
fields = st.one_of(st.sampled_from(SPECIAL), scaled_floats, st.floats())
finite_fields = fields.filter(math.isfinite)

QUATERNION_LABELS = ("w component", "x component", "y component", "z component")
DUAL_LABELS = ("standard part", "infinitesimal part")


def outcome(build, *args):
    """The repr of what ``build`` returns, or the class and text of what it raises."""
    try:
        return repr(build(*args))
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)


def per_field(values, labels):
    """The fields ``finite`` gives one by one, or its error for the first bad one."""
    try:
        return tuple(repr(finite(v, label)) for v, label in zip(values, labels))
    except NonFiniteError as exc:
        return "NonFiniteError", str(exc)


def built(build, values):
    """The fields ``build`` stores, or the class and text of its error."""
    try:
        value = build(*values)
    except NonFiniteError as exc:
        return "NonFiniteError", str(exc)
    return tuple(repr(getattr(value, name)) for name in value.__slots__)


@given(st.tuples(fields, fields, fields, fields))
def test_quaternion_constructors_agree_with_the_per_field_rule(values):
    want = per_field(values, QUATERNION_LABELS)
    assert built(Quaternion, values) == want
    assert built(_quaternion, values) == want


@given(st.tuples(fields, fields))
def test_dual_number_constructors_agree_with_the_per_field_rule(values):
    want = per_field(values, DUAL_LABELS)
    assert built(DualNumber, values) == want
    assert built(_dual_number, values) == want


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", range(4))
def test_each_field_position_is_tested(bad, position):
    values = [1.0, -0.0, 5e-324, 1e308]
    values[position] = bad
    text = f"{QUATERNION_LABELS[position]} must be finite, got {bad!r}"
    for build in (Quaternion, _quaternion):
        assert outcome(build, *values) == ("NonFiniteError", text)
    if position < 2:
        text = f"{DUAL_LABELS[position]} must be finite, got {bad!r}"
        for build in (DualNumber, _dual_number):
            assert outcome(build, *values[:2]) == ("NonFiniteError", text)


def test_all_finite_is_the_rule():
    assert all_finite(1e308, 1e308, -1e308, 5e-324)
    assert all_finite(-0.0)
    for bad in (math.inf, -math.inf, math.nan):
        for position in range(4):
            values = [0.0] * 4
            values[position] = bad
            assert not all_finite(*values)


class FloatSubclass(float):
    pass


@pytest.mark.parametrize(
    "std,inf,want",
    [
        (True, False, "(1.0, 0.0)"),
        (3, -0.0, "(3.0, 0.0)"),
        (FloatSubclass(2.5), 1, "(2.5, 1.0)"),
        (-0.0, -0.0, "(0.0, 0.0)"),
    ],
)
def test_other_arguments_take_the_per_field_path(std, inf, want):
    # bool, int and float subclasses are coerced by finite, as before.
    for value in (DualNumber(std, inf), Quaternion(std, inf)):
        assert str(tuple(getattr(value, name) for name in value.__slots__[:2])) == want
        assert all(type(getattr(value, name)) is float for name in value.__slots__)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "build",
    [
        DualNumber,
        lambda r: DualNumber(0.0, r),
        Quaternion,
        lambda r: Quaternion(0.0, 0.0, 0.0, r),
        DualQuaternion.from_real,
        lambda r: DualNumber(1.0) + r,
        lambda r: r * DualNumber(1.0),
        lambda r: DualNumber(1.0) / r,
        lambda r: DualNumber(1.0) <= r,
        lambda r: Quaternion(1.0) - r,
        lambda r: r * Quaternion(1.0),
        lambda r: DualQuaternion.from_real(1.0) + r,
        lambda r: DualQuaternion.from_real(1.0) * r,
        lambda r: r * DQVector([DualQuaternion.from_real(1.0)]),
    ],
    ids=[
        "DualNumber", "DualNumber-infinitesimal", "Quaternion", "Quaternion-z", "from_real",
        "dual-add", "dual-rmul", "dual-div", "dual-order", "quaternion-sub",
        "quaternion-rmul", "dual-quaternion-add", "dual-quaternion-mul", "vector-rmul",
    ],
)
def test_oversized_int_raises_as_the_infinity_of_its_sign(build, sign):
    # float() of an int beyond the double range raises OverflowError.
    raised = outcome(build, sign * 10**400)
    assert raised[0] == "NonFiniteError"
    assert raised == outcome(build, sign * math.inf)


# -- products with a real ---------------------------------------------------------

reals = st.one_of(fields, st.integers(-(10**6), 10**6))
quaternions = st.builds(Quaternion, finite_fields, finite_fields, finite_fields, finite_fields)
dual_quaternions = st.builds(DualQuaternion, quaternions, quaternions)


@given(reals, quaternions)
def test_real_times_quaternion_matches_the_embedded_product(r, q):
    # Quaternion(r) * q runs the full Hamilton product.
    embedded = outcome(lambda: Quaternion(r) * q)
    assert outcome(lambda: r * q) == embedded
    assert outcome(lambda: q * r) == outcome(lambda: q * Quaternion(r))


@given(reals, dual_quaternions)
def test_real_times_dual_quaternion_matches_the_embedded_product(r, dq):
    embedded = lambda: DualQuaternion.from_real(r)  # noqa: E731
    assert outcome(lambda: r * dq) == outcome(lambda: embedded() * dq)
    assert outcome(lambda: dq * r) == outcome(lambda: dq * embedded())


@given(reals, st.builds(DualNumber, finite_fields, finite_fields))
def test_real_times_dual_number_matches_the_embedded_product(r, d):
    assert outcome(lambda: r * d) == outcome(lambda: DualNumber(r) * d)


@given(reals, st.lists(dual_quaternions, min_size=1, max_size=4).map(DQVector))
def test_real_times_vector_matches_the_embedded_product(r, v):
    assert outcome(lambda: r * v) == outcome(lambda: DualQuaternion.from_real(r) * v)


@pytest.mark.parametrize("r", [1e300, -1e300, 5e-324, -0.0, 0.0, math.inf, math.nan, 3])
def test_real_products_at_the_edges(r):
    q = Quaternion(1e10, -0.0, 5e-324, -1e-10)
    dq = DualQuaternion(q, Quaternion(-1e10, 2.0, 0.0, -0.0))
    v = DQVector([dq, DualQuaternion(Quaternion(1e300), q)])
    assert outcome(lambda: r * q) == outcome(lambda: Quaternion(r) * q)
    assert outcome(lambda: q * r) == outcome(lambda: q * Quaternion(r))
    assert outcome(lambda: r * dq) == outcome(lambda: DualQuaternion.from_real(r) * dq)
    assert outcome(lambda: dq * r) == outcome(lambda: dq * DualQuaternion.from_real(r))
    assert outcome(lambda: r * v) == outcome(lambda: DualQuaternion.from_real(r) * v)

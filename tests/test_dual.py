"""Dual number arithmetic, ordering, absolute value, and the root witness."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from dualquat import (
    EPSILON,
    DQVector,
    DualInterval,
    DualNumber,
    DualQuaternion,
    NegativeArgumentError,
    NonFiniteError,
    NotInvertibleError,
    NotRepresentableError,
    Ordering,
    Quaternion,
    no_root_witness,
    sgn,
)
from dualquat.dual import ORDER_SLACK, le_defect

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def duals(draw_std=finite, draw_inf=finite):
    return st.builds(DualNumber, draw_std, draw_inf)


# -- construction and basic classification -----------------------------------

def test_default_is_zero():
    q = DualNumber()
    assert q.std == 0.0 and q.inf == 0.0
    assert q.is_zero and q.is_infinitesimal and not q.is_appreciable


def test_appreciable_iff_nonzero_std():
    assert DualNumber(1e-300, 0.0).is_appreciable
    assert not DualNumber(0.0, 5.0).is_appreciable
    assert DualNumber(0.0, 5.0).is_infinitesimal


def test_nonfinite_components_rejected():
    with pytest.raises(NonFiniteError):
        DualNumber(float("nan"), 0.0)
    with pytest.raises(NonFiniteError):
        DualNumber(1.0, float("inf"))
    with pytest.raises(NonFiniteError):
        DualNumber(float("-inf"), 0.0)


def test_negative_zero_is_normalized():
    q = DualNumber(-0.0, -0.0)
    assert math.copysign(1.0, q.std) == 1.0
    assert math.copysign(1.0, q.inf) == 1.0


def test_equality_promotes_reals():
    assert DualNumber(2.0, 0.0) == 2.0
    assert DualNumber(2.0, 0.0) == 2
    assert DualNumber(2.0, 1.0) != 2.0
    assert hash(DualNumber(2.0, 0.0)) == hash(2.0)


@pytest.mark.parametrize(
    "value",
    [
        DualNumber(1.0),
        Quaternion(1.0),
        DualQuaternion.from_real(1.0),
        DQVector((DualQuaternion.from_real(1.0),)),
    ],
    ids=["DualNumber", "Quaternion", "DualQuaternion", "DQVector"],
)
def test_booleans_are_not_numbers(value):
    with pytest.raises(TypeError):
        value + True
    with pytest.raises(TypeError):
        True * value


# -- arithmetic ---------------------------------------------------------------

def test_product_drops_epsilon_squared():
    # (3 + 4e)(2 - e): std 6, inf 3*(-1) + 4*2 = 5
    assert (DualNumber(3, 4) * DualNumber(2, -1)) == DualNumber(6, 5)


def test_epsilon_squares_to_zero():
    assert (EPSILON * EPSILON).is_zero
    assert EPSILON > DualNumber()


def test_power_oracle_values():
    q = DualNumber(2, 3)
    assert q**1 == q
    assert q**2 == DualNumber(4, 12)
    assert q**3 == DualNumber(8, 36)


def test_power_rejects_bad_exponents():
    q = DualNumber(2, 3)
    with pytest.raises(ValueError):
        q**0
    with pytest.raises(ValueError):
        q ** (-1)
    with pytest.raises(TypeError):
        q**1.5
    with pytest.raises(TypeError):
        q**True


def test_power_overflow_is_nonfinite():
    # float ** int raises OverflowError where a product would give inf.
    with pytest.raises(NonFiniteError):
        DualNumber(1e200) ** 2
    with pytest.raises(NonFiniteError):
        DualNumber(1.0, 1.0) ** (10**400)
    with pytest.raises(NonFiniteError):
        DualNumber(2.0) ** (10**5000)
    assert DualNumber(2.0**500, 1.0) ** 2 == DualNumber(2.0**1000, 2.0**501)


def test_inverse_oracle_and_errors():
    assert DualNumber(2, 4).inverse() == DualNumber(0.5, -1.0)
    with pytest.raises(NotInvertibleError):
        DualNumber(0.0, 3.0).inverse()
    with pytest.raises(NotInvertibleError):
        DualNumber().inverse()


def test_inverse_scales_before_squaring():
    # std*std underflows to 0 here, and the exact inf part, -1e400, is out of range.
    with pytest.raises(NonFiniteError):
        DualNumber(1e-200, 1.0).inverse()
    # std*std overflows here, although the exact inf part, -1e-200, is in range.
    assert DualNumber(1e200, 1e200).inverse() == DualNumber(1e-200, -1e-200)
    assert DualNumber(1e-200, 1e-300).inverse() == DualNumber(1e200, -1e100)


def test_division_uses_inverse():
    assert DualNumber(6, 5) / DualNumber(2, -1) == DualNumber(3, 4)
    assert 1.0 / DualNumber(2, 4) == DualNumber(0.5, -1.0)


def test_mixed_real_arithmetic():
    q = DualNumber(1, 2)
    assert q + 1 == DualNumber(2, 2)
    assert 1 - q == DualNumber(0, -2)
    assert 3 * q == DualNumber(3, 6)
    assert -q == DualNumber(-1, -2)


@given(duals(), duals(), duals())
def test_multiplication_is_associative_and_commutative(p, q, r):
    assert p * q == q * p
    left = (p * q) * r
    right = p * (q * r)
    assert math.isclose(left.std, right.std, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(left.inf, right.inf, rel_tol=1e-9, abs_tol=1e-9)


@given(duals(), duals(), duals())
def test_distributive_law(p, q, r):
    left = p * (q + r)
    right = p * q + p * r
    assert math.isclose(left.std, right.std, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(left.inf, right.inf, rel_tol=1e-9, abs_tol=1e-9)


# -- square root ---------------------------------------------------------------

def test_sqrt_oracle_values():
    assert DualNumber(4, 4).sqrt() == DualNumber(2, 1)
    assert DualNumber(9, -12).sqrt() == DualNumber(3, -2)
    assert DualNumber().sqrt() == DualNumber()


def test_sqrt_error_cases():
    with pytest.raises(NegativeArgumentError):
        DualNumber(-1, 0).sqrt()
    with pytest.raises(NegativeArgumentError):
        DualNumber(0, -2).sqrt()
    # positive infinitesimal: square root exists in no dual number
    with pytest.raises(NotRepresentableError):
        EPSILON.sqrt()


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
def test_sqrt_roundtrip(std, inf):
    q = DualNumber(std, inf)
    root = q.sqrt()
    back = root * root
    assert math.isclose(back.std, q.std, rel_tol=1e-9)
    assert math.isclose(back.inf, q.inf, rel_tol=1e-9, abs_tol=1e-9)


# -- total order ----------------------------------------------------------------

def test_order_is_lexicographic():
    assert DualNumber(-1, 100) < DualNumber(0, -100)
    assert DualNumber() < EPSILON
    assert DualNumber(2, -50) < DualNumber(2, 0)
    assert DualNumber(2, 0) < DualNumber(2, 1)
    assert DualNumber(1, 5) <= DualNumber(1, 5)


def test_compare_returns_ordering():
    assert DualNumber(1, 2).compare(DualNumber(1, 3)) is Ordering.LESS
    assert DualNumber(1, 2).compare(DualNumber(1, 2)) is Ordering.EQUAL
    assert DualNumber(2, 0).compare(1) is Ordering.GREATER
    with pytest.raises(TypeError):
        DualNumber(1).compare("zero")


def test_sgn_matches_order():
    assert sgn(3.0) == 1 and sgn(-0.5) == -1 and sgn(0.0) == 0


@given(duals(), duals())
def test_trichotomy(p, q):
    assert (p < q) + (p == q) + (p > q) == 1


@given(duals(), duals(), duals())
def test_transitivity_via_sorting(p, q, r):
    lo, mid, hi = sorted([p, q, r])
    assert lo <= mid <= hi
    assert lo <= hi


def test_le_defect_standard_parts_beyond_the_slack_decide_alone():
    # The infinitesimal parts point the other way and are ignored.
    assert le_defect(DualNumber(3.0, -100.0), DualNumber(2.0, 100.0)) == 1.0
    assert le_defect(DualNumber(2.0, 100.0), DualNumber(3.0, -100.0)) == 0.0
    just_over = 2 * ORDER_SLACK
    assert le_defect(DualNumber(just_over, -1.0), DualNumber(0.0, 0.0)) == just_over


def test_le_defect_ties_within_the_slack_fall_to_the_infinitesimal_parts():
    half = ORDER_SLACK / 2
    assert le_defect(DualNumber(half, 3.0), DualNumber(0.0, 1.0)) == 3.0 - 1.0 - ORDER_SLACK
    assert le_defect(DualNumber(0.0, 3.0), DualNumber(half, 1.0)) == 3.0 - 1.0 - ORDER_SLACK
    # The infinitesimal parts get the same slack.
    assert le_defect(DualNumber(half, 1.0 + half), DualNumber(0.0, 1.0)) == 0.0
    assert le_defect(DualNumber(half, 1.0 + 2 * ORDER_SLACK), DualNumber(0.0, 1.0)) > 0.0


def test_le_defect_is_zero_when_the_order_holds_exactly():
    assert le_defect(DualNumber(1.0, 2.0), DualNumber(1.0, 2.0)) == 0.0
    assert le_defect(DualNumber(1.0, 2.0), DualNumber(1.0, 3.0)) == 0.0
    assert le_defect(DualNumber(-1.0, 9.0), DualNumber(1.0, -9.0)) == 0.0


# -- absolute value --------------------------------------------------------------

def test_abs_oracle_values():
    assert abs(DualNumber(-3, 5)) == DualNumber(3, -5)
    assert abs(DualNumber(2, -9)) == DualNumber(2, -9)
    assert abs(DualNumber(0, -7)) == DualNumber(0, 7)
    assert abs(DualNumber()) == DualNumber()


@given(duals())
def test_abs_zero_iff_zero(q):
    assert abs(q).is_zero == q.is_zero


@given(duals())
def test_abs_dominates(q):
    if q >= DualNumber():
        assert abs(q) == q
    else:
        assert abs(q) > q


@given(duals(), duals())
def test_abs_is_multiplicative(p, q):
    lhs = abs(p * q)
    rhs = abs(p) * abs(q)
    assert math.isclose(lhs.std, rhs.std, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(lhs.inf, rhs.inf, rel_tol=1e-9, abs_tol=1e-12)


@given(duals(), duals())
def test_abs_triangle(p, q):
    lhs = abs(p + q)
    rhs = abs(p) + abs(q)
    scale = max(1.0, abs(p.std), abs(q.std))
    if p.std == 0.0 or q.std == 0.0 or (p.std > 0) == (q.std > 0):
        # real parts agree exactly, so the bound is decided infinitesimally
        assert lhs.std == rhs.std
        assert lhs.inf <= rhs.inf + 1e-12 * scale
    else:
        # opposite signs: the real parts already satisfy a strict inequality
        assert lhs.std <= rhs.std + 1e-12 * scale


def test_abs_of_square_matches_on_appreciable():
    rng = random.Random(11)
    for _ in range(500):
        q = DualNumber(rng.uniform(0.1, 10) * rng.choice([-1, 1]), rng.uniform(-10, 10))
        root = (q**2).sqrt()
        expected = abs(q)
        assert math.isclose(root.std, expected.std, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(root.inf, expected.inf, rel_tol=0, abs_tol=1e-12)


# -- intervals --------------------------------------------------------------------

def test_interval_membership_endpoints():
    box = DualInterval(DualNumber(0), DualNumber(1))
    assert DualNumber(0) in box and DualNumber(1) in box
    assert DualNumber(0.5, -3) in box
    assert DualNumber(1, 1) not in box
    assert DualNumber(0, -1) not in box

    gap = DualInterval(DualNumber(0), DualNumber(1), lower_closed=False, upper_closed=False)
    assert DualNumber(0) not in gap and DualNumber(1) not in gap
    assert EPSILON in gap  # 0 < e < 1 lexicographically


def test_interval_unbounded_sides():
    ray = DualInterval(lower=DualNumber(2))
    assert DualNumber(2) in ray and DualNumber(1e9) in ray
    assert DualNumber(2, -1) not in ray
    low = DualInterval(upper=DualNumber(0), upper_closed=False)
    assert DualNumber(-1, 50) in low and DualNumber(0) not in low


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        DualInterval(DualNumber(1), DualNumber(0))
    with pytest.raises(ValueError):
        DualInterval(DualNumber(1), DualNumber(1), lower_closed=False, upper_closed=False)


# -- the no-root witness ------------------------------------------------------------

def test_no_root_witness_report():
    report = no_root_witness()
    assert report.value_at_zero == DualNumber(0, -1)
    assert report.sign_at_zero is Ordering.LESS
    assert report.value_at_one == DualNumber(1, -1)
    assert report.sign_at_one is Ordering.GREATER
    assert report.root_exists is False
    assert DualNumber(0) in report.interval and DualNumber(1) in report.interval


def test_no_root_witness_probes():
    # x^2 - e has a sign change on [0, 1] yet no dual root anywhere in it
    rng = random.Random(5)
    for _ in range(2000):
        x = DualNumber(rng.uniform(0, 1), rng.uniform(-50, 50))
        assert not (x * x - EPSILON).is_zero


def test_str_rendering():
    assert str(DualNumber(1.5, -2)) == "1.5-2.0e"
    assert str(DualNumber(0, 1)) == "0.0+1.0e"
    assert str(EPSILON * 3) == "0.0+3.0e"

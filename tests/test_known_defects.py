"""Finite, well-formed inputs that got, or still get, a wrong answer or a false error.

Each test asserts the right answer.  One that still fails is marked
``xfail(strict=True)`` with the failure seen today, naming its entry under
ROADMAP Open item 1 ("Still reproduces").  The fix for an entry removes its
mark, and the test stays as a plain one; a fix that lands without doing so
turns the test into an unexpected pass, which fails.
"""

import math

import pytest

from dualquat import DQVector, DualNumber, DualQuaternion, Quaternion
from dualquat.dualquaternion import magnitude_routes_agree, magnitude_scale
from dualquat.vectors import norm2_closed_form_agrees, norm_scales


def _dq(std: float, inf: float) -> DualQuaternion:
    """``dq{ std: std, inf: inf }``: real standard and infinitesimal parts."""
    return DualQuaternion(Quaternion(std), Quaternion(inf))


# ROADMAP item 1's norm2 entries, fixed by the hypot route: the squared
# standard part 1e-400 underflowed to 0 (and with inf: -1 left a negative
# radicand), n**2 overflowed above about 1.34e154, and a squared magnitude of
# 1.3e-541 underflowed, so an appreciable vector got the norm 0.0+0.0e.
def test_norm2_of_a_tiny_standard_part_with_a_positive_infinitesimal_part():
    assert DQVector((_dq(1e-200, 1.0),)).norm2() == DualNumber(1e-200, 1.0)


def test_norm2_of_a_tiny_standard_part_with_a_negative_infinitesimal_part():
    assert DQVector((_dq(1e-200, -1.0),)).norm2() == DualNumber(1e-200, -1.0)


def test_norm2_of_a_huge_standard_part():
    assert DQVector((_dq(1e160, 1.0),)).norm2() == DualNumber(1e160, 1.0)


def test_norm2_of_an_entry_whose_squared_magnitude_underflows():
    vector = DQVector((DualQuaternion(Quaternion(0.0, 0.0, -3.595529e-271, 0.0)),))
    assert str(vector.norm2()) == "3.595529e-271+0.0e"


# ROADMAP item 1's magnitude entries, fixed by _common.dual_hypot, which weighs each inf_i by
# std_i / |std| and forms no product std_i·inf_i: that product overflowed for the huge parts, and
# underflowed to 0.0 beside std = 5e-324, and the quotient of a subnormal |std| kept few bits.
def test_magnitude_of_huge_parts():
    assert _dq(1e200, 1e200).magnitude() == DualNumber(1e200, 1e200)


def test_norm2_closed_form_of_huge_parts():
    vector = DQVector((_dq(1e200, 1e200),))
    assert vector.norm2_closed_form() == vector.norm2() == DualNumber(1e200, 1e200)


def test_magnitude_keeps_an_infinitesimal_part_when_std_times_inf_underflows():
    assert _dq(5e-324, 1e-300).magnitude() == DualNumber(5e-324, 1e-300)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, magnitude_via_sqrt: scaling makes the small standard component "
                          "subnormal, and the infinitesimal part comes back 8% off")
def test_magnitude_via_sqrt_keeps_the_infinitesimal_part_when_scaling_makes_a_component_subnormal():
    value = DualQuaternion(
        Quaternion(-5.0984751092188913e-157, -6.449642815857126e165, 0.0, 0.0),
        Quaternion(3.190147189883798e37),
    )
    assert value.magnitude_via_sqrt().inf == -2.5218274107177224e-285  # the exact value, rounded


def test_norm2_keeps_the_infinitesimal_part_when_the_standard_norm_is_subnormal():
    # Both copies of the magnitude rule, _magnitudes and _self_parts, take its weighted sum here too.
    vector = DQVector((DualQuaternion(
        Quaternion(-9.56133958527554e-324, 2.6713221290536615e-324, 7.305276594359864e-324, 0.0),
        Quaternion(-6.002611355451369e176, 6.489234250275337e176, 1.492776453921583e176, 0.0),
    ),))
    norm2 = vector.norm2()
    assert norm2.std == 1e-323
    assert math.isclose(norm2.inf, 8.159753872816633e176, rel_tol=1e-12)  # the exact value, rounded


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, magnitude_via_sqrt scales the infinitesimal part by its largest "
                          "component, which flushes the small ones to zero: the infinitesimal part comes back "
                          "as 0.0, and dualq magnitude exits 1")
def test_magnitude_via_sqrt_keeps_small_infinitesimal_components_beside_a_huge_one():
    value = DualQuaternion(Quaternion(-8.276646e-146), Quaternion(-6.972993e-142, 2.018e293, 0.0, 0.0))
    assert math.isclose(value.magnitude_via_sqrt().inf, 6.972993e-142, rel_tol=1e-12)  # the exact value


# dq{ std: 1e300 + 1e300i + 0j + 0k, inf: 1e8 - 1e8i + 0j + 0k }: the magnitude, 1.414e300+0.0e, is
# right.  magnitude_scale summed |std_i inf_i| = 1e308 + 1e308 before it divided by n, so the
# infinitesimal scale overflowed to inf, and close then admitted any infinitesimal difference: the
# route checks of dualq magnitude and dualq norms passed these documents and could not have failed.
_HUGE_PARTS = DualQuaternion(Quaternion(1e300, 1e300, 0.0, 0.0), Quaternion(1e8, -1e8, 0.0, 0.0))


def test_magnitude_scale_is_finite_where_the_magnitude_is():
    std, inf = magnitude_scale(_HUGE_PARTS.std, _HUGE_PARTS.inf)
    assert std == 1.4142135623730952e300
    assert math.isclose(inf, 1.4142135623730951e8, rel_tol=1e-12)  # the exact scale, 2e308 / std


def test_the_magnitude_route_check_rejects_a_wrong_infinitesimal_part_of_huge_parts():
    magnitude = _HUGE_PARTS.magnitude()
    assert magnitude == DualNumber(1.4142135623730952e300)
    assert magnitude_routes_agree(_HUGE_PARTS, magnitude, _HUGE_PARTS.magnitude_via_sqrt())[0]
    assert magnitude_routes_agree(_HUGE_PARTS, magnitude, DualNumber(magnitude.std, 1e200)) == (False, 1e200)


def test_the_closed_form_check_rejects_a_wrong_infinitesimal_part_of_huge_parts():
    vector = DQVector((_HUGE_PARTS,))
    scales, closed = norm_scales(vector), vector.norm2_closed_form()
    assert norm2_closed_form_agrees(vector, scales, vector.norm2(), closed)[0]
    assert norm2_closed_form_agrees(vector, scales, DualNumber(closed.std, 1e200), closed) == (False, 1e200)


# OVERFLOWING_INFINITESIMAL of tests/test_vectors.py: entries 1 and (1.7e308 + 1.7e308i)e.  x . x is
# 1 + 0e exactly, and so is the 2-norm, although the second entry's magnitude overflows to inf e:
# the 2-norm kernel weighed it by 0 / 1, which gave NaN, and dualq check-unit exited 2 on a unit vector.
_OVERFLOWING_INFINITESIMAL = DQVector((_dq(1.0, 0.0), DualQuaternion(Quaternion(), Quaternion(1.7e308, 1.7e308))))


def test_norm2_of_a_unit_vector_with_an_overflowing_infinitesimal_entry():
    assert _OVERFLOWING_INFINITESIMAL.norm2() == DualNumber(1.0)


def test_unit_check_passes_a_unit_vector_with_an_overflowing_infinitesimal_entry():
    check = _OVERFLOWING_INFINITESIMAL.unit_check()
    assert (check.passed, check.gram_residual, check.norm_residual) == (True, 0.0, 0.0)

"""Finite, well-formed inputs that got, or still get, a wrong answer or a false error.

Each test asserts the right answer.  One that still fails is marked
``xfail(strict=True)`` with the failure seen today, naming its entry under
ROADMAP Open item 1 ("Still reproduces").  The fix for an entry removes its
mark, and the test stays as a plain one; a fix that lands without doing so
turns the test into an unexpected pass, which fails.
"""

import math

import pytest

from dualquat import DQVector, DualNumber, DualQuaternion, NonFiniteError, Quaternion


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


@pytest.mark.xfail(strict=True, raises=NonFiniteError,
                   reason="ROADMAP item 1, magnitude of Quaternion(1e200) parts: std . inf overflows")
def test_magnitude_of_huge_parts():
    assert _dq(1e200, 1e200).magnitude() == DualNumber(1e200, 1e200)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, magnitude of std: 5e-324, inf: 1e-300: "
                          "std . inf underflows and the infinitesimal part comes back as 0.0")
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, magnitude_parts divides std . inf by a subnormal hypot, which keeps "
                          "few bits: norm2 gets 9.99e176 as its infinitesimal part, and dualq norms exits 1")
def test_norm2_keeps_the_infinitesimal_part_when_the_standard_norm_is_subnormal():
    # Both copies of the magnitude rule, _magnitudes and _self_parts, divide as it does.
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

"""Dual quaternions: product, inverse, the dual-valued magnitude, unit checks."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dualquat import (
    DualNumber,
    DualQuaternion,
    NonFiniteError,
    NotAppreciableError,
    NotInvertibleError,
    Quaternion,
)
from dualquat._common import DOT_FLOOR, MIN_NORMAL, dual_hypot
from dualquat.dualquaternion import _magnitudes

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def rand_quat(rng):
    return Quaternion(*(rng.uniform(-10, 10) for _ in range(4)))


def rand_dq(rng, appreciable=True):
    std = rand_quat(rng) if appreciable else Quaternion()
    return DualQuaternion(std, rand_quat(rng))


def dq_diff(a, b):
    parts = zip(
        a.std.components() + a.inf.components(),
        b.std.components() + b.inf.components(),
    )
    return max(abs(x - y) for x, y in parts)


# -- construction ----------------------------------------------------------------

def test_constructors():
    q = DualQuaternion.from_quaternion(I)
    assert q.std == I and q.inf == Quaternion()
    d = DualQuaternion.from_dual(DualNumber(2, 3))
    assert d.std == Quaternion(2) and d.inf == Quaternion(3)
    r = DualQuaternion.from_real(1.5)
    assert r.std == Quaternion(1.5) and r.inf == Quaternion()


def test_appreciability():
    assert DualQuaternion(I, J).is_appreciable
    assert not DualQuaternion(Quaternion(), J).is_appreciable
    assert DualQuaternion().is_zero


# -- arithmetic -------------------------------------------------------------------

def test_product_drops_epsilon_squared():
    # epsilon-epsilon cross terms vanish
    p = DualQuaternion(Quaternion(), I)
    q = DualQuaternion(Quaternion(), J)
    assert (p * q).is_zero


def test_product_embeds_quaternions():
    p = DualQuaternion.from_quaternion(I)
    q = DualQuaternion.from_quaternion(J)
    assert p * q == DualQuaternion.from_quaternion(K)


def test_product_oracle():
    # ((1+i) + j e)((1-i) + k e) = 2 + 2k e
    p = DualQuaternion(Quaternion(1, 1, 0, 0), J)
    q = DualQuaternion(Quaternion(1, -1, 0, 0), K)
    assert p * q == DualQuaternion(Quaternion(2), Quaternion(0, 0, 0, 2))


def test_product_rule_matches_parts():
    rng = random.Random(7)
    for _ in range(300):
        p, q = rand_dq(rng), rand_dq(rng)
        d = p * q
        assert d.std == p.std * q.std
        assert d.inf == p.inf * q.std + p.std * q.inf


def test_addition_and_scalars():
    p = DualQuaternion(Quaternion(1), I)
    q = DualQuaternion(I, J)
    assert p + q == DualQuaternion(Quaternion(1, 1, 0, 0), I + J)
    assert p - p == DualQuaternion()
    assert 2 * p == DualQuaternion(Quaternion(2), 2 * I)
    assert DualNumber(0, 1) * p == DualQuaternion(Quaternion(), Quaternion(1))


def test_conjugate_is_partwise():
    q = DualQuaternion(Quaternion(1, 1, 0, 0), J)
    assert q.conjugate() == DualQuaternion(Quaternion(1, -1, 0, 0), -J)
    assert q.conjugate().conjugate() == q


# -- inverse -----------------------------------------------------------------------

def test_inverse_oracle():
    q = DualQuaternion(Quaternion(1), I)
    assert q.inverse() == DualQuaternion(Quaternion(1), -I)
    assert DualQuaternion.from_real(2.0).inverse() == DualQuaternion.from_real(0.5)


def test_inverse_requires_appreciable():
    with pytest.raises(NotInvertibleError):
        DualQuaternion(Quaternion(), I).inverse()


def test_inverse_beyond_the_double_range_raises_non_finite():
    # The standard part inverts to 1e170; the exact infinitesimal part, -1e340, overflows.
    with pytest.raises(NonFiniteError):
        DualQuaternion(Quaternion(1e-170), Quaternion(1)).inverse()


def test_inverse_roundtrip():
    rng = random.Random(13)
    one = DualQuaternion.from_real(1.0)
    for _ in range(400):
        q = rand_dq(rng)
        if q.std.norm() < 0.5:
            continue
        assert dq_diff(q * q.inverse(), one) <= 1e-12 * max(1.0, q.inf.norm() ** 2)
        assert dq_diff(q.inverse() * q, one) <= 1e-12 * max(1.0, q.inf.norm() ** 2)


# -- magnitude ----------------------------------------------------------------------

def test_magnitude_oracles():
    # std part 1+2i+2j has norm 3; mixed sum with 0.5i is 2; 2/(2*3) = 1/3
    q = DualQuaternion(Quaternion(1, 2, 2, 0), Quaternion(0, 0.5, 0, 0))
    assert q.magnitude() == DualNumber(3, 1 / 3)

    assert DualQuaternion(Quaternion(1), I).magnitude() == DualNumber(1, 0)
    assert DualQuaternion(Quaternion(), 2 * I).magnitude() == DualNumber(0, 2)
    assert DualQuaternion().magnitude() == DualNumber()


def test_magnitude_worked_example():
    # |(1+i) + 1e| = sqrt(2) + (1/sqrt(2)) e
    q = DualQuaternion(Quaternion(1, 1, 0, 0), Quaternion(1))
    m = q.magnitude()
    assert math.isclose(m.std, math.sqrt(2), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(m.inf, 1 / math.sqrt(2), rel_tol=0, abs_tol=1e-15)


def test_magnitude_and_unit_check_survive_huge_parts():
    # std*inf is 0, but the products p q* of the symmetrized mixed sum
    # overflow; neither the magnitude nor the unit check may form them.
    q = DualQuaternion(Quaternion(1e200), Quaternion(0.0, 1e200))
    assert q.magnitude() == DualNumber(1e200, 0.0)
    assert q.unit_check().mixed_residual == 0.0
    with pytest.raises(NonFiniteError):
        q.std * q.inf.conjugate()


# Floats of one scale, whose dot products round differently when summed in
# another order, and floats of every finite scale, some of which overflow.
quaternions = st.builds(
    Quaternion,
    *[st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))] * 4,
)


@settings(max_examples=300)
@given(st.one_of(st.just(Quaternion()), quaternions), quaternions)
# A zero std, the branch of every infinitesimal magnitude(): a hypot that
# overflows, and one of subnormal components.
@example(Quaternion(), Quaternion(1e308, 1e308, 0.0, 0.0))
@example(Quaternion(), Quaternion(5e-324, -1e-310, 2.5e-320, 0.0))
def test_magnitude_parts_are_the_norm_and_dot_of_the_quaternions(std, inf):
    # The quotient where the guard proves it within its bound; elsewhere, a zero std
    # included, the weighted sum over the component pairs.
    n, d = std.norm(), std.dot(inf)
    if math.isfinite(d) and (n >= 0.5 or n >= MIN_NORMAL and abs(d) >= DOT_FLOOR) or n and inf.is_zero:
        expected = (n, d / n)
    else:
        expected = dual_hypot(list(zip(std.components(), inf.components())))
    # repr, so that an infinity from an overflow compares equal to itself.
    assert repr(_magnitudes((DualQuaternion(std, inf),))[0]) == repr(expected)


def test_magnitude_parts_of_parts_whose_dot_product_overflows():
    # std·inf = 1.798e308 is beyond the double range; the magnitude 2 + 8.99e307e is not.
    value = DualQuaternion(Quaternion(0, 0, 0, 2), Quaternion(0, 0, 0, 8.99e307))
    assert _magnitudes((value,))[0] == (2.0, 8.99e307)


def test_magnitude_via_sqrt_agrees():
    rng = random.Random(17)
    for _ in range(500):
        q = rand_dq(rng)
        direct = q.magnitude()
        via = q.magnitude_via_sqrt()
        assert abs(direct.std - via.std) <= 1e-12 * max(1.0, direct.std)
        assert abs(direct.inf - via.inf) <= 1e-12 * max(1.0, abs(direct.inf))


@pytest.mark.parametrize(
    "std, inf",
    [
        (1e-170, 0.0),  # the unscaled square underflowed to 0.0
        (1e200, 0.0),  # the unscaled square overflowed
        (1e-170, 1.0),  # the unscaled square left a positive infinitesimal
        (1e-300, 1e10),  # the infinitesimal part is scaled by its own power of two
    ],
)
def test_magnitude_via_sqrt_across_the_double_range(std, inf):
    q = DualQuaternion(Quaternion(std), Quaternion(inf))
    assert q.magnitude_via_sqrt() == q.magnitude() == DualNumber(std, inf)


def test_magnitude_via_sqrt_beyond_the_double_range_raises_non_finite():
    with pytest.raises(NonFiniteError) as err:
        DualQuaternion(Quaternion(1.7e308, 1.7e308)).magnitude_via_sqrt()
    assert str(err.value) == "the magnitude of (1.7e+308+1.7e+308i+0.0j+0.0k)+(0.0+0.0i+0.0j+0.0k)e overflows"


def test_magnitude_via_sqrt_needs_appreciable():
    with pytest.raises(NotAppreciableError):
        DualQuaternion(Quaternion(), I).magnitude_via_sqrt()


def test_magnitude_reduces_to_dual_abs():
    rng = random.Random(19)
    for _ in range(300):
        d = DualNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = DualQuaternion.from_dual(d).magnitude()
        want = abs(d)
        assert got.std == want.std
        assert math.isclose(got.inf, want.inf, rel_tol=1e-14, abs_tol=1e-14)


def test_magnitude_reduces_to_quaternion_norm():
    rng = random.Random(29)
    for _ in range(300):
        q = rand_quat(rng)
        assert DualQuaternion.from_quaternion(q).magnitude() == DualNumber(q.norm())


def test_magnitude_multiplicative_all_strata():
    rng = random.Random(37)
    for index in range(800):
        p = rand_dq(rng, appreciable=index % 2 == 0)
        q = rand_dq(rng, appreciable=index % 4 < 2)
        lhs = (p * q).magnitude()
        rhs = p.magnitude() * q.magnitude()
        scale = max(1.0, abs(lhs.std), abs(lhs.inf), abs(rhs.std), abs(rhs.inf))
        assert abs(lhs.std - rhs.std) <= 1e-9 * scale
        assert abs(lhs.inf - rhs.inf) <= 1e-9 * scale


def test_magnitude_triangle_all_strata():
    rng = random.Random(41)
    for index in range(800):
        p = rand_dq(rng, appreciable=index % 2 == 0)
        q = rand_dq(rng, appreciable=index % 4 < 2)
        lhs = (p + q).magnitude()
        rhs = p.magnitude() + q.magnitude()
        if abs(lhs.std - rhs.std) > 1e-12:
            assert lhs.std < rhs.std
        else:
            assert lhs.inf <= rhs.inf + 1e-12


def test_self_conjugate_product_commutes():
    rng = random.Random(43)
    for _ in range(300):
        q = rand_dq(rng)
        assert dq_diff(q * q.conjugate(), q.conjugate() * q) <= 1e-12 * max(
            1.0, (q.std.norm() + q.inf.norm()) ** 2
        )


def test_conjugate_fixes_magnitude():
    rng = random.Random(47)
    for index in range(300):
        q = rand_dq(rng, appreciable=index % 2 == 0)
        assert q.magnitude() == q.conjugate().magnitude()


# -- unit checks -----------------------------------------------------------------------

def test_unit_check_oracles():
    unit = DualQuaternion(Quaternion(1), I)
    verdict = unit.unit_check(0.0)
    assert verdict.passed and bool(verdict)
    assert verdict.norm_residual == 0.0 and verdict.mixed_residual == 0.0

    two = DualQuaternion.from_real(2.0)
    verdict = two.unit_check(0.0)
    assert not verdict.passed
    assert verdict.norm_residual == 1.0 and verdict.mixed_residual == 0.0

    drift = DualQuaternion(Quaternion(1), Quaternion(1))
    verdict = drift.unit_check(0.0)
    assert not verdict.passed
    assert verdict.norm_residual == 0.0 and verdict.mixed_residual == 2.0


def test_unit_check_beyond_the_double_range_raises_non_finite():
    # 2 std.inf is 2e600; the scaled recomputation overflows as well.
    with pytest.raises(NonFiniteError) as err:
        DualQuaternion(Quaternion(1e300), Quaternion(1e300)).unit_check()
    assert str(err.value) == "the mixed-sum residual of (1e+300+0.0i+0.0j+0.0k)+(1e+300+0.0i+0.0j+0.0k)e overflows"


def test_unit_check_rejects_negative_tolerance():
    for tol in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DualQuaternion.from_real(1.0).unit_check(tol)


def test_is_unit_constructed_units():
    rng = random.Random(53)
    for _ in range(300):
        raw = rand_quat(rng)
        if raw.norm() < 0.5:
            continue
        std = (1.0 / raw.norm()) * raw
        seed_inf = rand_quat(rng)
        inf = seed_inf - std.dot(seed_inf) * std  # zero the mixed sum
        q = DualQuaternion(std, inf)
        assert q.is_unit(1e-9)
        m = q.magnitude()
        assert abs(m.std - 1.0) <= 1e-12 and abs(m.inf) <= 1e-12


def test_str_rendering():
    q = DualQuaternion(Quaternion(1), I)
    assert str(q) == "(1.0+0.0i+0.0j+0.0k)+(0.0+1.0i+0.0j+0.0k)e"

"""Quaternion arithmetic: Hamilton product, conjugate, norm, the mixed sum."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from dualquat import NonFiniteError, NotInvertibleError, Quaternion, mixed_sum

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1)


def test_unit_table():
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE
    assert (I * J) * K == -ONE


def test_product_oracle():
    p = Quaternion(1, 2, 3, 4)
    q = Quaternion(5, 6, 7, 8)
    assert p * q == Quaternion(-60, 12, 30, 24)
    assert q * p == Quaternion(-60, 20, 14, 32)
    assert p * q != q * p


def test_real_scalars_embed():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == Quaternion(2, 4, 6, 8)
    assert q * 2 == 2 * q
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert q - q == Quaternion()


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        Quaternion(float("nan"))
    with pytest.raises(NonFiniteError):
        Quaternion(0, float("inf"), 0, 0)


def test_norm_and_conjugate_oracles():
    q = Quaternion(1, 2, 2, 0)
    assert q.norm() == 3.0
    assert q.conjugate() == Quaternion(1, -2, -2, 0)
    assert q.norm_squared() == 9.0
    assert Quaternion().norm() == 0.0


def test_dot_oracle():
    assert Quaternion(1, 2, 3, 4).dot(Quaternion(5, 6, 7, 8)) == 70.0


def test_inverse_oracle_and_error():
    assert Quaternion(0, 3, 0, 0).inverse() == Quaternion(0, -1 / 3, 0, 0)
    assert Quaternion(2).inverse() == Quaternion(0.5)
    with pytest.raises(NotInvertibleError):
        Quaternion().inverse()


def test_inverse_across_the_double_range():
    # The squared norms 1e-340 and 1e400 are not representable, and 1e-320 is
    # subnormal, with three significant digits; the inverses are normal.
    assert Quaternion(1e-170).inverse() == Quaternion(1e170)
    assert Quaternion(1e-160).inverse() == Quaternion(1e160)
    assert Quaternion(1e200).inverse() == Quaternion(1e-200)
    got = Quaternion(0, 1e300, 0, -1e300).inverse().components()
    assert all(math.isclose(a, b, rel_tol=1e-15) for a, b in zip(got, (0.0, -5e-301, 0.0, 5e-301)))
    # The inverse of a subnormal lies beyond the double range.
    with pytest.raises(NonFiniteError) as err:
        Quaternion(5e-324).inverse()
    assert str(err.value) == "the inverse of 5e-324+0.0i+0.0j+0.0k overflows"


@given(quats)
def test_self_conjugate_product_is_norm_squared(q):
    s = q * q.conjugate()
    assert s.imaginary_magnitude() <= 1e-12 * max(1.0, s.w)
    assert math.isclose(s.w, q.norm() ** 2, rel_tol=1e-12, abs_tol=1e-12)


@given(quats, quats)
def test_norm_is_multiplicative(p, q):
    assert math.isclose((p * q).norm(), p.norm() * q.norm(), rel_tol=1e-9, abs_tol=1e-12)


@given(quats, quats)
def test_triangle(p, q):
    assert (p + q).norm() <= p.norm() + q.norm() + 1e-9


@given(quats, quats)
def test_conjugate_reverses_products(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    for a, b in zip(lhs.components(), rhs.components()):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def test_mixed_sum_is_twice_dot():
    rng = random.Random(23)
    for _ in range(1000):
        p = Quaternion(*(rng.uniform(-10, 10) for _ in range(4)))
        q = Quaternion(*(rng.uniform(-10, 10) for _ in range(4)))
        direct = mixed_sum(p, q)
        assert direct == 2.0 * p.dot(q)
        # both symbolic forms stay real and agree
        left = p * q.conjugate() + q * p.conjugate()
        right = p.conjugate() * q + q.conjugate() * p
        assert left.imaginary_magnitude() <= 1e-12
        assert right.imaginary_magnitude() <= 1e-12
        assert math.isclose(left.w, direct, rel_tol=0, abs_tol=1e-12 * max(1.0, abs(direct)))
        assert math.isclose(right.w, direct, rel_tol=0, abs_tol=1e-12 * max(1.0, abs(direct)))


def test_mixed_sum_oracle():
    assert mixed_sum(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)) == 140.0
    assert mixed_sum(I, J) == 0.0
    assert mixed_sum(I, I) == 2.0


def test_inverse_roundtrip_random():
    rng = random.Random(31)
    for _ in range(500):
        q = Quaternion(*(rng.uniform(-10, 10) for _ in range(4)))
        if q.norm() < 0.5:
            continue
        for product in (q * q.inverse(), q.inverse() * q):
            for got, want in zip(product.components(), ONE.components()):
                assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)


def test_str_rendering():
    assert str(Quaternion(1, -2, 0, 4)) == "1.0-2.0i+0.0j+4.0k"

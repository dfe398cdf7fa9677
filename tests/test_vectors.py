"""Vector norms, the real embedding, inner products, and basis checks."""

import functools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dualquat import (
    BasisCheck,
    DQVector,
    DualNumber,
    DualQuaternion,
    DualQuatError,
    EmptyVectorError,
    LengthMismatchError,
    NonFiniteError,
    NotAppreciableError,
    Quaternion,
    VectorUnitCheck,
    basis_check,
    embed_real,
)
from dualquat.dual import _dual_number
from dualquat.dualquaternion import _magnitudes
from dualquat.vectors import _gram_parts, _inner_result, _self_parts, norm_chain_defect, norm_scales, norms

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def dq(std=None, inf=None):
    return DualQuaternion(std or Quaternion(), inf or Quaternion())


def rand_quat(rng):
    return Quaternion(*(rng.uniform(-10, 10) for _ in range(4)))


def rand_vector(rng, n=None, infinitesimal_rate=0.3):
    n = n or rng.randint(1, 8)
    entries = []
    for _ in range(n):
        if rng.random() < infinitesimal_rate:
            entries.append(DualQuaternion(Quaternion(), rand_quat(rng)))
        else:
            entries.append(DualQuaternion(rand_quat(rng), rand_quat(rng)))
    return DQVector(tuple(entries))


def le_with_slack(a, b, slack=1e-12):
    if abs(a.std - b.std) > slack:
        return a.std < b.std
    return a.inf <= b.inf + slack


# -- construction -------------------------------------------------------------

def test_empty_vector_rejected():
    with pytest.raises(EmptyVectorError):
        DQVector(())


def test_entries_must_be_dual_quaternions():
    with pytest.raises(TypeError):
        DQVector((1.0,))


def test_from_quaternions():
    v = DQVector.from_quaternions((I, J))
    assert len(v) == 2
    assert v[0] == DualQuaternion.from_quaternion(I)
    assert v.inf_part() == (Quaternion(), Quaternion())


# -- embedding ----------------------------------------------------------------

def test_embed_real_order():
    assert embed_real((Quaternion(1, 2, 3, 4),)) == (1, 2, 3, 4)
    assert embed_real((Quaternion(1), I)) == (1, 0, 0, 0, 0, 1, 0, 0)


def test_embedding_isometry():
    values = (Quaternion(3), Quaternion(0, 4, 0, 0))
    assert math.hypot(*embed_real(values)) == 5.0
    v = DQVector.from_quaternions(values)
    assert v.norm2() == DualNumber(5, 0)


# -- inner products --------------------------------------------------------------

def test_inner_oracles():
    x = DQVector.from_quaternions((Quaternion(1), I))
    assert x.inner(x) == DualQuaternion.from_real(2.0)

    single_i = DQVector.from_quaternions((I,))
    single_j = DQVector.from_quaternions((J,))
    # conj(i) j = -(ij) = -k
    assert single_i.inner(single_j) == DualQuaternion.from_quaternion(-K)

    y = DQVector.from_quaternions((I, Quaternion(1)))
    assert x.inner(y) == DualQuaternion()


def test_inner_conjugate_symmetry():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 6)
        x, y = rand_vector(rng, n), rand_vector(rng, n)
        lhs = x.inner(y).conjugate()
        rhs = y.inner(x)
        for a, b in zip(
            lhs.std.components() + lhs.inf.components(),
            rhs.std.components() + rhs.inf.components(),
        ):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# Signed zeros, subnormals, and decimal exponents up to +-200, so that some
# products underflow and some overflow; plus values of one scale, whose sums
# round differently when they are associated differently.
components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-200, 200)),
    st.floats(-10.0, 10.0),
)


def entries_of(component):
    """Dual quaternions, half of them infinitesimal."""
    parts = st.builds(Quaternion, *[component] * 4)
    return st.builds(DualQuaternion, st.one_of(st.just(Quaternion()), parts), parts)


def vectors_of_length(n):
    return st.lists(entries_of(components), min_size=n, max_size=n).map(tuple).map(DQVector)


vector_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(vectors_of_length(n), vectors_of_length(n))
)


def reference_inner(x, y):
    """The inner product through the DualQuaternion operators, left to right."""
    return functools.reduce(
        lambda total, ab: total + ab[0].conjugate() * ab[1], zip(x, y), DualQuaternion()
    )


# Explicit cases of the folded kernel: conj(a) b forms inf - inf (as
# 1e308*1e308 + (1e308*-1e308) and, in the operators, 1e308*1e308 -
# (-1e308*-1e308)), so both sides raise; -0.0 given for the left argument's
# imaginary components, among zero products of both signs, where the folded
# signs and the operators' conjugate reach zeros of opposite sign on the way;
# and one object on both sides.
FOLDED_INF_MINUS_INF = (
    DQVector((DualQuaternion(Quaternion(1e308, 1e308)), DualQuaternion())),
    DQVector((DualQuaternion(Quaternion(1e308, -1e308)), DualQuaternion())),
)
NEGATIVE_ZERO_LEFT = (
    DQVector((DualQuaternion(Quaternion(-1.5, -0.0, -0.0, -0.0), Quaternion(-0.0, -0.0, -0.0, -0.0)),)),
    DQVector((DualQuaternion(Quaternion(-0.0, 2.0, -0.0, 3.0), Quaternion(0.0, -0.0, 1e-320, -0.0)),)),
)
SAME_OBJECT = DQVector(
    (DualQuaternion(Quaternion(0.1, -0.2, 0.3, -0.4), Quaternion(1e-300, 0.5, -7.0, 1e200)),)
)

# Explicit cases of the kernel's skips, where a standard part is zero and only
# conj(f) q or conj(p) g is added: conj(f) q is inf - inf on an infinitesimal
# left entry; conj(p) g overflows on an appreciable left entry against an
# infinitesimal right one; two infinitesimal sides with parts of 1e308 beside
# an appreciable pair; and standard parts of -0.0 on both sides.
INFINITESIMAL_INF_MINUS_INF = (
    DQVector((DualQuaternion(Quaternion(), Quaternion(1e308, 1e308)),)),
    DQVector((DualQuaternion(Quaternion(1e308, -1e308), Quaternion(2.0)),)),
)
OVERFLOWING_AGAINST_INFINITESIMAL = (
    DQVector((DualQuaternion(Quaternion(1e308, 1e308), Quaternion(0.5)),)),
    DQVector((DualQuaternion(Quaternion(), Quaternion(1e308, 1e308)),)),
)
BOTH_INFINITESIMAL = (
    DQVector((
        DualQuaternion(Quaternion(), Quaternion(1e308, 1e308, -1e308, 1e308)),
        DualQuaternion(Quaternion(0.3, -1.1), Quaternion(2.5, 0.0, 7.0)),
    )),
    DQVector((
        DualQuaternion(Quaternion(), Quaternion(-1e308, 1e308, 1e308, 1e308)),
        DualQuaternion(Quaternion(-4.0, 0.0, 0.7), Quaternion(0.1, -0.2, 0.3)),
    )),
)
NEGATIVE_ZERO_STANDARD = (
    DQVector((
        DualQuaternion(Quaternion(-0.0, -0.0, -0.0, -0.0), Quaternion(1.5, -2.0, -0.0, 3.0)),
        DualQuaternion(Quaternion(-0.0, -0.0, -0.0, -0.0), Quaternion(-0.0, -0.0, -0.0, -0.0)),
        DualQuaternion(Quaternion(2.0, -0.0, 1e-320, -0.0), Quaternion(-0.0, 0.5)),
    )),
    DQVector((
        DualQuaternion(Quaternion(-1.0, 0.0, -0.0, 0.25), Quaternion(-0.0, 0.0, 4.0)),
        DualQuaternion(Quaternion(-0.0, 0.0, -0.0, -0.0), Quaternion(0.0, -6.0)),
        DualQuaternion(Quaternion(-0.0, -0.0, 0.0, -0.0), Quaternion(-0.0, -0.0, -0.0, -0.0)),
    )),
)


@settings(max_examples=400)
@given(vector_pairs)
@example(FOLDED_INF_MINUS_INF)
@example(NEGATIVE_ZERO_LEFT)
@example((SAME_OBJECT, SAME_OBJECT))
@example(INFINITESIMAL_INF_MINUS_INF)
@example(OVERFLOWING_AGAINST_INFINITESIMAL)
@example(BOTH_INFINITESIMAL)
@example(NEGATIVE_ZERO_STANDARD)
def test_inner_rounds_exactly_as_the_operators(pair):
    x, y = pair
    try:
        expected = reference_inner(x, y)
    except NonFiniteError:
        with pytest.raises(NonFiniteError):
            x.inner(y)
    else:
        assert repr(x.inner(y)) == repr(expected)


# Near the top of the double range, so that magnitudes overflow in hypot, and
# 2-norms in the hypot over two or more entry magnitudes.
huge = st.builds(
    lambda m, sign: sign * m, st.floats(1e307, 1.7976931348623157e308), st.sampled_from([1.0, -1.0])
)


# Each vector takes all of its components from one source: the mix of the
# inner-product test; floats of one scale only, so that three or more
# magnitudes of one size meet in a sum and a re-associated sum rounds
# differently; the mix with huge values added; or floats of one scale with
# about half of the entries the zero dual quaternion, which the Gram kernel
# skips.
entry_sources = st.sampled_from(
    [
        entries_of(components),
        entries_of(st.floats(-10.0, 10.0)),
        entries_of(st.one_of(components, huge)),
        st.one_of(st.just(DualQuaternion()), entries_of(st.floats(-10.0, 10.0))),
    ]
)


def dq_vectors(n, entries):
    return st.lists(entries, min_size=n, max_size=n).map(tuple).map(DQVector)


def permutation_basis(positions, entries):
    """Row ``r`` is zero except for ``entries[r]`` at ``positions[r]``, as in the benchmark's bases."""
    n = len(positions)
    return [
        DQVector(tuple(entries[r] if k == positions[r] else DualQuaternion() for k in range(n)))
        for r in range(n)
    ]


wide_vectors = st.tuples(st.integers(1, 6), entry_sources).flatmap(lambda n_e: dq_vectors(*n_e))
wide_bases = st.one_of(
    st.tuples(st.integers(1, 3), entry_sources).flatmap(
        lambda n_e: st.lists(dq_vectors(*n_e), min_size=n_e[0], max_size=n_e[0])
    ),
    st.integers(1, 6).flatmap(
        lambda n: st.builds(
            permutation_basis,
            st.permutations(range(n)),
            st.lists(entries_of(st.one_of(components, huge)), min_size=n, max_size=n),
        )
    ),
)

# An infinitesimal entry whose magnitude overflows in a vector with an
# appreciable one, and a non-finite magnitude on an entry that is not the
# largest: norm1 raises on both, and norm_inf on neither, since a larger
# standard part decides the order whatever the losing entry's magnitude is.
OVERFLOWING_INFINITESIMAL = DQVector(
    (DualQuaternion(Quaternion(1.0)), DualQuaternion(Quaternion(), Quaternion(1.7e308, 1.7e308)))
)
OVERFLOWING_RUNNER_UP = DQVector(
    (DualQuaternion(Quaternion(1.7e308)), DualQuaternion(Quaternion(1e308), Quaternion(10.0)))
)

# Explicit cases of the Gram kernel's self form: a square that overflows, where
# the operators' standard x part is inf - inf, a NaN, and the kernel's is 0.0,
# but both raise on the infinite w part first; and an entry whose standard y
# part rounds to 1.1e-15 rather than 0.0, and the same entry scaled to unit
# norm, whose y part (-7.9e-18) is then the whole of the Gram residual.
OVERFLOWING_SQUARE = DQVector((DualQuaternion(Quaternion(1e200, 1e200)),))
ROUNDING_CROSS_TERMS = DQVector((DualQuaternion(Quaternion(3.0, 0.1, 7.0, 0.3)),))
UNIT_ROUNDING_CROSS_TERMS = DQVector(
    (DualQuaternion(Quaternion(*[c / math.sqrt(58.1) for c in (3.0, 0.1, 7.0, 0.3)])),)
)


# The 2-norm's two quotients below the normal range: the weight n_i / N =
# 5e-318 of the second entry, and N = hypot(1.5e-323, 1.5e-323), of which a
# quotient would keep 3 bits or fewer.
SUBNORMAL_WEIGHT = DQVector((
    DualQuaternion(Quaternion(0.0, 0.0, 0.0, 2e137)),
    DualQuaternion(Quaternion(0.0, 0.0, 1e-180), Quaternion(0.0, 0.0, 1e10)),
))
SUBNORMAL_NORM = DQVector((DualQuaternion(Quaternion(1.5e-323), Quaternion(1.0)),) * 2)
# A subnormal |x_std| whose dot product with x_inf underflows to 0.0: the closed form takes the
# weighted sum, which gives the exact 3.6402871348056e-309 as the infinitesimal part.
UNDERFLOWING_DOT = DQVector((
    DualQuaternion(Quaternion(0.0, 0.0, 0.0, 1.600542364872352e-308), Quaternion(0.0, 0.0, 0.0, 3.6402871348056e-309)),
))


def _unit_row(n, k, entry=DualQuaternion(Quaternion(1.0))):
    return DQVector(tuple(entry if i == k else DualQuaternion() for i in range(n)))


# A basis of 5 vectors in which two off-diagonal products overflow, with
# different messages: x_0 . x_2 is inf + -inf in the standard w part, a NaN,
# and x_0 . x_4 is inf; the diagonals of x_2 and x_4 overflow too, later in
# row-major order.
TWO_OVERFLOWING_PAIRS = [
    _unit_row(5, 0, DualQuaternion(Quaternion(1e100, 1e100))),
    _unit_row(5, 1),
    _unit_row(5, 0, DualQuaternion(Quaternion(1e250, -1e250))),
    _unit_row(5, 3),
    _unit_row(5, 0, DualQuaternion(Quaternion(1e250, 1e250))),
]

# Zero entries, which the Gram kernel skips: a canonical basis whose squares
# overflow on the diagonal while no two vectors share a position; a basis with
# an all-zero vector; and a vector that is zero but for its last entry, beside
# two full ones whose sums round differently when their terms are reversed.
HUGE_CANONICAL = [
    _unit_row(3, k, DualQuaternion(Quaternion(c))) for k, c in enumerate((1.7e308, -1.7e308, 1.7e308))
]
ZERO_VECTOR = [_unit_row(3, 0), DQVector((DualQuaternion(),) * 3), _unit_row(3, 2)]
LAST_ENTRY_ONLY = [
    DQVector((
        DualQuaternion(),
        DualQuaternion(),
        DualQuaternion(Quaternion(0.5, -1.5, 2.5, 0.1), Quaternion(-3.0, 0.7)),
    )),
    DQVector((
        DualQuaternion(Quaternion(7.1, -2.2, -0.7, 0.4), Quaternion(2.6, 1.7, 1.1, 2.2)),
        DualQuaternion(Quaternion(7.9, 0.1, -1.2, 4.0), Quaternion(-4.7, -3.6, 8.6, 0.4)),
        DualQuaternion(Quaternion(0.9, -8.8, -1.5, 1.4), Quaternion(-8.6, 2.1, 2.4, -7.9)),
    )),
    DQVector((
        DualQuaternion(Quaternion(2.3, -0.6, 3.2, -2.7), Quaternion(3.7, 4.3, -8.6, -7.9)),
        DualQuaternion(Quaternion(3.2, 8.3, -4.5, -0.8), Quaternion(1.7, -3.2, -2.4, -3.4)),
        DualQuaternion(Quaternion(-2.4, 1.7, -3.6, -2.2), Quaternion(4.9, -8.5, 1.2, 4.2)),
    )),
]

# A 2x2 basis whose one shared position pairs the infinitesimal entry
# dq{ std: 0, inf: 1 } with the appreciable 1: x_0 . x_1 is 1e, so a support
# taken from the standard parts alone would drop the position and give 0.
INFINITESIMAL_IN_SUPPORT = [
    DQVector((DualQuaternion(Quaternion(), Quaternion(1.0)), DualQuaternion(Quaternion(1.0)))),
    DQVector((DualQuaternion(Quaternion(1.0)), DualQuaternion())),
]


def outcome(compute, *args):
    """The ``repr`` of the result, or the class of the DualQuatError raised."""
    try:
        return repr(compute(*args))
    except DualQuatError as exc:
        return type(exc)


def reference_norm1(x):
    return functools.reduce(lambda total, e: total + e.magnitude(), x, DualNumber())


def reference_dual_hypot(pairs):
    """``N``, the ``hypot`` of the ``a_i`` of ``pairs``, and the ``b_i`` weighted by ``a_i / N`` and added in
    order; with ``N == 0``, the ``hypot`` of the ``b_i``.  A subnormal ``N`` comes from the ``a_i`` times
    2**1022, scaled back; so does a weight below 2**-1022 in size.  A pair with ``a_i == 0`` adds nothing,
    even where its ``b_i`` overflowed, so only the result is checked."""
    norm = math.hypot(*[a for a, _ in pairs])
    if norm == 0.0:
        return DualNumber(0.0, math.hypot(*[b for _, b in pairs]))
    up = 1.0 if norm >= 2.0**-1022 else 2.0**1022
    norm = math.hypot(*[a * up for a, _ in pairs])

    def weighted(a, b):
        if a == 0.0:
            return 0.0
        if abs(a * up) >= norm * 2.0**-1022:
            return a * up / norm * b
        return a * up * 2.0**1022 / norm * b * 2.0**-1022

    return DualNumber(norm / up, functools.reduce(lambda total, ab: total + weighted(*ab), pairs, 0.0))


def reference_norm2(x):
    """``reference_dual_hypot`` of the entry magnitudes, which come unchecked from the magnitude rule."""
    return reference_dual_hypot([_magnitudes((e,))[0] for e in x])


def reference_norm2_closed_form(x):
    """The closed form over the two real embeddings: their dot product, added left to right, over
    ``|x_std|`` where the magnitude rule's guard proves that quotient within its bound, and
    ``reference_dual_hypot`` of the flattened pairs elsewhere."""
    std_flat, inf_flat = embed_real(x.std_part()), embed_real(x.inf_part())
    norm = math.hypot(*std_flat)
    if norm == 0.0:
        raise NotAppreciableError("closed-form 2-norm needs an appreciable standard part")
    dot = 0.0
    for a, b in zip(std_flat, inf_flat):
        dot += a * b
    if norm >= 0.5 and math.isfinite(dot) or norm >= 2.0**-1022 and 2.0**-960 <= abs(dot) < math.inf:
        return DualNumber(norm, dot / norm)
    return reference_dual_hypot(list(zip(std_flat, inf_flat)))


def reference_norm_inf_index(x):
    """The lowest index of the largest entry magnitude under the total order: the standard parts
    ``e.std.norm()`` decide, and ``.magnitude()`` is taken only of the entries whose standard part
    is the largest, so a losing entry's magnitude cannot raise."""
    stds = [e.std.norm() for e in x]
    top = max(stds)
    tied = [i for i, n in enumerate(stds) if n == top]
    magnitudes = [x[i].magnitude() for i in tied]
    return tied[magnitudes.index(max(magnitudes))]


def reference_norm_inf(x):
    return x[reference_norm_inf_index(x)].magnitude()


def reference_defect(x, y, target):
    """Largest absolute component of ``x.inner(y) - target``, through the operators."""
    defect = reference_inner(x, y) - target
    return max(abs(c) for part in (defect.std, defect.inf) for c in part.components())


def reference_unit_check(x, tol=1e-9):
    gram_residual = reference_defect(x, x, 1.0)
    n2 = reference_norm2(x)
    norm_residual = max(abs(n2.std - 1.0), abs(n2.inf))
    return VectorUnitCheck(
        passed=gram_residual <= tol and norm_residual <= tol,
        gram_residual=gram_residual,
        norm_residual=norm_residual,
    )


def reference_basis_check(vectors, tol=1e-9):
    rows = tuple(
        tuple(reference_defect(x, y, 1.0 if i == j else 0.0) for j, y in enumerate(vectors))
        for i, x in enumerate(vectors)
    )
    return BasisCheck(passed=all(r <= tol for row in rows for r in row), residuals=rows)


FUSED_AND_REFERENCE = (
    (DQVector.norm1, reference_norm1),
    (DQVector.norm2, reference_norm2),
    (DQVector.norm_inf, reference_norm_inf),
    (DQVector.norm_inf_index, reference_norm_inf_index),
    (DQVector.norm2_closed_form, reference_norm2_closed_form),
    (DQVector.unit_check, reference_unit_check),
)

# A vector with no appreciable entry, on which the closed form raises
# NotAppreciableError, beside an entry that is zero as a whole.
ALL_INFINITESIMAL = DQVector((
    DualQuaternion(Quaternion(), Quaternion(0.5, -2.0, 0.0, 1e-300)),
    DualQuaternion(),
    DualQuaternion(Quaternion(-0.0, 0.0, -0.0, 0.0), Quaternion(-3.0)),
))


@settings(max_examples=400)
@given(wide_vectors)
@example(OVERFLOWING_INFINITESIMAL)
@example(OVERFLOWING_RUNNER_UP)
@example(OVERFLOWING_SQUARE)
@example(ROUNDING_CROSS_TERMS)
@example(UNIT_ROUNDING_CROSS_TERMS)
@example(SUBNORMAL_WEIGHT)
@example(SUBNORMAL_NORM)
@example(UNDERFLOWING_DOT)
@example(ALL_INFINITESIMAL)
def test_norms_and_unit_check_round_exactly_as_the_operators(x):
    for fused, reference in FUSED_AND_REFERENCE:
        assert outcome(fused, x) == outcome(reference, x), fused.__name__


@settings(max_examples=300)
@given(wide_bases)
@example(list(FOLDED_INF_MINUS_INF))
@example([NEGATIVE_ZERO_LEFT[0]])
@example([SAME_OBJECT])
@example([OVERFLOWING_SQUARE])
@example([ROUNDING_CROSS_TERMS])
@example([UNIT_ROUNDING_CROSS_TERMS])
@example(TWO_OVERFLOWING_PAIRS)
@example(HUGE_CANONICAL)
@example(ZERO_VECTOR)
@example(LAST_ENTRY_ONLY)
@example(INFINITESIMAL_IN_SUPPORT)
def test_basis_check_rounds_exactly_as_the_operators(vectors):
    assert outcome(basis_check, vectors) == outcome(reference_basis_check, vectors)


def exact_outcome(compute):
    """The ``repr`` of the result, or the class and text of the DualQuatError raised."""
    try:
        return repr(compute())
    except DualQuatError as exc:
        return f"{type(exc).__name__}: {exc}"


def first_error(*computations):
    """The text of the first DualQuatError that the computations raise, in order, or None."""
    for compute in computations:
        try:
            compute()
        except DualQuatError as exc:
            return str(exc)
    return None


@settings(max_examples=300)
@given(wide_bases)
@example(TWO_OVERFLOWING_PAIRS)
@example([OVERFLOWING_SQUARE])
@example([ROUNDING_CROSS_TERMS])
@example(HUGE_CANONICAL)
@example(ZERO_VECTOR)
@example(LAST_ENTRY_ONLY)
@example(INFINITESIMAL_IN_SUPPORT)
def test_gram_kernel_gives_every_inner_product_exactly(vectors):
    # All eight components of every x_i . x_j, where the residuals of the
    # checks show only the largest.
    gram = _gram_parts([v.entries for v in vectors])
    for i, x in enumerate(vectors):
        for j, y in enumerate(vectors):
            assert exact_outcome(lambda: _inner_result(gram[i][j])) == exact_outcome(lambda: x.inner(y)), (i, j)


@settings(max_examples=400)
@given(wide_vectors)
@example(OVERFLOWING_INFINITESIMAL)
@example(OVERFLOWING_RUNNER_UP)
@example(OVERFLOWING_SQUARE)
@example(SUBNORMAL_WEIGHT)
@example(SUBNORMAL_NORM)
@example(ALL_INFINITESIMAL)
def test_self_form_magnitudes_are_magnitude_parts(x):
    # unit_check takes its 2-norm from the self form's copy of the magnitude
    # rule, and the norms theirs from the rule, _magnitudes.  A norm or a
    # residual can hide an entry's infinitesimal part that differs, so each
    # entry's two floats are compared, by repr.
    expected = _magnitudes(x.entries)
    _, magnitudes = _self_parts(x.entries)
    assert repr(magnitudes) == repr(expected)
    # The list form carries nothing from one entry to the next: each entry's
    # magnitude(), the rule over a list of one, is its pair in the whole list.
    for e, pair in zip(x, expected):
        assert exact_outcome(e.magnitude) == exact_outcome(lambda: _dual_number(*pair))


@settings(max_examples=200)
@given(wide_vectors)
@example(OVERFLOWING_INFINITESIMAL)
@example(OVERFLOWING_RUNNER_UP)
@example(OVERFLOWING_SQUARE)
@example(SUBNORMAL_NORM)
@example(ALL_INFINITESIMAL)
def test_norms_gives_the_methods_results_from_one_list(x):
    # dualq norms and the selfcheck norm suites take their norms from norms():
    # the four results of the methods, or the error the first of them raises.
    methods = (x.norm1, x.norm_inf, x.norm2, x.norm_inf_index)
    error = first_error(*methods)
    if error is None:
        assert repr(norms(x)) == repr(tuple(method() for method in methods))
    else:
        assert first_error(lambda: norms(x)) == error


@settings(max_examples=200)
@given(wide_bases)
@example(TWO_OVERFLOWING_PAIRS)
@example([OVERFLOWING_SQUARE])
@example(HUGE_CANONICAL)
def test_unit_and_basis_checks_raise_the_messages_of_the_inner_products(vectors):
    for x in vectors:
        assert first_error(x.unit_check) == first_error(lambda: x.inner(x), x.norm2)
    pairs = [functools.partial(x.inner, y) for x in vectors for y in vectors]  # row-major
    assert first_error(lambda: basis_check(vectors)) == first_error(*pairs)


def test_basis_check_reads_only_the_nonzero_entries_of_a_permutation_basis():
    # The tests above see results, not the work behind them, so they cannot
    # see a skip that has been lost.  The self forms read the std and inf of
    # every entry once, 2n**2 reads; every other pair of vectors reads them
    # again at each position where both are nonzero, 8 reads for its two
    # inner products, about 4n**3 in all for a dense basis.
    reads = 0

    class Counting(DualQuaternion):
        __slots__ = ()

        @property
        def std(self):
            nonlocal reads
            reads += 1
            return DualQuaternion.std.__get__(self)

        @property
        def inf(self):
            nonlocal reads
            reads += 1
            return DualQuaternion.inf.__get__(self)

    n = 24
    unit, zero = Counting(Quaternion(0.6, 0.8), Quaternion(0.0, 0.0, 3.0)), Counting()
    permutation = [DQVector(unit if k == 7 * r % n else zero for k in range(n)) for r in range(n)]
    assert basis_check(permutation).passed
    assert reads <= 4 * n * n
    # Rows r and r + 1 of a bidiagonal basis share position r + 1.
    bidiagonal = [DQVector(unit if k in (r, r + 1) else zero for k in range(n)) for r in range(n)]
    reads = 0
    basis_check(bidiagonal)
    assert reads <= 2 * n * n + 8 * (n - 1)
    reads = 0
    basis_check([DQVector([unit] * n)] * n)
    assert reads > n**3


def test_unit_check_reads_each_entry_once():
    # Both residuals come from one pass: the self form reads the std and inf
    # of each entry once, 2n reads, where x . x and then norm2 read them 4n
    # times.  The tests above see results, not the passes behind them.
    reads = 0

    class Counting(DualQuaternion):
        __slots__ = ()

        @property
        def std(self):
            nonlocal reads
            reads += 1
            return DualQuaternion.std.__get__(self)

        @property
        def inf(self):
            nonlocal reads
            reads += 1
            return DualQuaternion.inf.__get__(self)

    n = 32
    kinds = (
        Counting(Quaternion(0.6, 0.0, 0.8), Quaternion(0.0, -1.5, 2.0)),
        Counting(Quaternion(), Quaternion(1.0, 2.0)),
        Counting(),
    )
    x = DQVector(kinds[k % 3] for k in range(n))
    assert x.unit_check().norm_residual > 0.0
    assert reads == 2 * n


def test_inner_reads_no_infinitesimal_part_that_meets_a_zero_standard_part():
    # Against an infinitesimal entry f e, an entry p + g e adds conj(f) p on the
    # right and conj(p) f on the left, and its own g is never multiplied.  A
    # kernel that has lost the skip reads it and passes the tests above.
    reads = 0

    class Counting(DualQuaternion):
        __slots__ = ()

        @property
        def inf(self):
            nonlocal reads
            reads += 1
            return DualQuaternion.inf.__get__(self)

    n = 16
    x = DQVector(DualQuaternion(Quaternion(), Quaternion(0.5, -1.0, 2.0, k)) for k in range(n))
    y = DQVector(Counting(Quaternion(1.0, 0.0, -0.5, k), Quaternion(3.0, -1.0, k)) for k in range(n))
    x.inner(y)
    y.inner(x)
    assert reads == 0
    y.inner(y)
    assert reads == 2 * n


def test_inner_length_mismatch():
    x = DQVector.from_quaternions((I,))
    y = DQVector.from_quaternions((I, J))
    with pytest.raises(LengthMismatchError):
        x.inner(y)
    with pytest.raises(LengthMismatchError):
        x + y


def test_quaternion_vector_cauchy_schwarz():
    # for zero-infinitesimal vectors the mixed inner sum is a real scalar
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(1, 6)
        xq = tuple(rand_quat(rng) for _ in range(n))
        yq = tuple(rand_quat(rng) for _ in range(n))
        x, y = DQVector.from_quaternions(xq), DQVector.from_quaternions(yq)
        s = x.inner(y) + y.inner(x)
        assert s.inf.norm() == 0.0
        assert s.std.imaginary_magnitude() <= 1e-12
        dot = sum(a * b for a, b in zip(embed_real(xq), embed_real(yq)))
        assert math.isclose(s.std.w, 2 * dot, rel_tol=1e-12, abs_tol=1e-9)
        bound = 2 * math.hypot(*embed_real(xq)) * math.hypot(*embed_real(yq))
        assert s.std.w <= bound + 1e-9 * max(1.0, bound)


# -- norms -------------------------------------------------------------------------

def test_norm_oracles_real_pair():
    x = DQVector.from_quaternions((Quaternion(1), I))
    assert x.norm1() == DualNumber(2, 0)
    assert x.norm_inf() == DualNumber(1, 0)
    assert x.norm2() == DualNumber(math.sqrt(2), 0)


def test_norm_oracles_infinitesimal_pair():
    x = DQVector((dq(inf=I), dq(inf=J)))
    assert x.norm1() == DualNumber(0, 2)
    assert x.norm_inf() == DualNumber(0, 1)
    assert x.norm2() == DualNumber(0, math.sqrt(2))
    with pytest.raises(NotAppreciableError):
        x.norm2_closed_form()


def test_norm_oracles_three_four():
    x = DQVector.from_quaternions((Quaternion(3), 4 * I))
    assert x.norm1() == DualNumber(7, 0)
    assert x.norm_inf() == DualNumber(4, 0)
    assert x.norm_inf_index() == 1
    assert x.norm2() == DualNumber(5, 0)
    assert x.norm2_closed_form() == DualNumber(5, 0)


def test_norm2_mixed_oracle():
    # appreciable entry squares to 1 + 2e; infinitesimal entry contributes zero
    x = DQVector((dq(std=Quaternion(1), inf=Quaternion(1)), dq(inf=I)))
    assert x.norm2() == DualNumber(1, 1)
    assert x.norm2_closed_form() == DualNumber(1, 1)


def test_norm_inf_is_decided_where_a_losing_entrys_magnitude_overflows():
    assert OVERFLOWING_RUNNER_UP.norm_inf() == DualNumber(1.7e308)
    assert OVERFLOWING_RUNNER_UP.norm_inf_index() == 0
    for compute in (OVERFLOWING_RUNNER_UP.norm1, lambda: norms(OVERFLOWING_RUNNER_UP)):
        with pytest.raises(NonFiniteError, match=r"^standard part must be finite, got inf$"):
            compute()
    assert OVERFLOWING_INFINITESIMAL.norm_inf() == DualNumber(1.0)
    with pytest.raises(NonFiniteError):
        OVERFLOWING_INFINITESIMAL.norm1()


def test_norm_inf_reads_infinitesimal_parts_only_where_they_can_break_a_tie():
    # The infinitesimal parts decide only among the entries whose standard
    # part is the largest.  The tests above see results, not the work behind
    # them, so they cannot see a lost skip: a pass that forms every entry's
    # magnitude gives the same results wherever those magnitudes are finite.
    read = set()

    class Counting(DualQuaternion):
        __slots__ = ()

        @property
        def inf(self):
            read.add(id(self))
            return DualQuaternion.inf.__get__(self)

    def vector(stds):
        return DQVector(Counting(Quaternion(*s), Quaternion(k, -2.0, 1.0)) for k, s in enumerate(stds))

    # The three-way tie at 5 goes to the last entry, whose infinitesimal part is the largest.
    distinct = vector([(3.0,), (0.0, -5.0), (4.0, 1.0), (), (1.0,)])
    three_way = vector([(5.0,), (1.0,), (0.0, 0.0, -5.0), (3.0, 3.9), (0.0, 3.0), (5.0,)])
    none_appreciable = vector([()] * 6)
    for x, k, index in ((distinct, 1, 1), (three_way, 3, 5), (none_appreciable, 6, 5)):
        for method in (x.norm_inf, x.norm_inf_index):
            read.clear()
            method()
            assert len(read) == k, method.__name__
        assert x.norm_inf_index() == index
        assert x.norm_inf() == x[index].magnitude()


def test_norm_inf_tie_takes_lowest_index():
    x = DQVector((dq(std=Quaternion(1), inf=I), dq(std=Quaternion(1))))
    assert x.norm_inf() == DualNumber(1, 0)  # mixed sum of entry 0 is 0
    assert x.norm_inf_index() == 0

    y = DQVector((dq(inf=3 * I), dq(inf=2 * J)))
    assert y.norm_inf() == DualNumber(0, 3)
    assert y.norm_inf_index() == 0


def test_norms_of_zero_vector():
    z = DQVector((dq(), dq(), dq()))
    assert z.norm1().is_zero and z.norm_inf().is_zero and z.norm2().is_zero


def test_norm_definiteness_random():
    rng = random.Random(71)
    zero = DualNumber()
    for _ in range(300):
        v = rand_vector(rng)
        assert v.norm1() > zero and v.norm_inf() > zero and v.norm2() > zero


def test_norm_homogeneity_strata():
    rng = random.Random(73)
    for index in range(400):
        x = rand_vector(rng)
        if index % 3 == 0:
            scalar = DualQuaternion(rand_quat(rng), rand_quat(rng))
        elif index % 3 == 1:
            scalar = DualQuaternion(Quaternion(), rand_quat(rng))
        else:
            raw = rand_quat(rng)
            if raw.norm() < 0.5:
                continue
            std = (1.0 / raw.norm()) * raw
            seed_inf = rand_quat(rng)
            scalar = DualQuaternion(std, seed_inf - std.dot(seed_inf) * std)
        factor = scalar.magnitude()
        scaled = scalar * x
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            lhs, rhs = norm(scaled), factor * norm(x)
            scale = max(1.0, abs(lhs.std), abs(lhs.inf), abs(rhs.std), abs(rhs.inf))
            assert abs(lhs.std - rhs.std) <= 1e-9 * scale
            assert abs(lhs.inf - rhs.inf) <= 1e-9 * scale


def test_norm_triangle_including_parallel_std():
    rng = random.Random(79)
    for index in range(400):
        n = rng.randint(1, 6)
        x = rand_vector(rng, n)
        variant = index % 5
        if variant < 2:
            y = rand_vector(rng, n)
        elif variant == 2:
            y = DQVector(tuple(DualQuaternion(Quaternion(), rand_quat(rng)) for _ in range(n)))
        else:
            t = (0.5, 2.0)[variant - 3]
            y = DQVector(tuple(DualQuaternion(t * e.std, rand_quat(rng)) for e in x))
        total = x + y
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            assert le_with_slack(norm(total), norm(x) + norm(y))


def test_norm_chain_random():
    rng = random.Random(83)
    for index in range(400):
        if index % 3 == 0:
            v = DQVector(tuple(DualQuaternion(Quaternion(), rand_quat(rng)) for _ in range(rng.randint(1, 6))))
        else:
            v = rand_vector(rng)
        assert le_with_slack(v.norm_inf(), v.norm2())
        assert le_with_slack(v.norm2(), v.norm1())


def test_the_norm_chain_judges_an_infinitesimal_part_where_at_most_one_entry_is_appreciable():
    # The exact standard parts of the three norms are then equal, so a tie falls to the
    # infinitesimal parts: here a norm2 whose infinitesimal part is 1 above norm1's.
    for vector in (DQVector((dq(Quaternion(1.0)), dq(None, Quaternion(1.0)))), DQVector((dq(None, Quaternion(1.0)),) * 2)):
        norm_inf, norm1 = vector.norm_inf(), vector.norm1()
        assert norm_chain_defect(vector, norm_scales(vector), norm_inf, vector.norm2(), norm1) == 0.0
        assert norm_chain_defect(vector, norm_scales(vector), norm_inf, DualNumber(norm1.std, norm1.inf + 1.0), norm1) == 1.0


def test_the_norm_chain_lets_tied_standard_parts_decide_alone_where_two_entries_are_appreciable():
    # The exact standard parts are strictly ordered, 1 < hypot(1, 1e-20) < 1 + 1e-20, though each
    # rounds to 1.0; the infinitesimal parts, 0, -1e-20 and -1, are out of order and do not count.
    vector = DQVector((dq(Quaternion(1.0)), dq(Quaternion(1e-20), Quaternion(-1.0))))
    norm_inf, norm2, norm1 = vector.norm_inf(), vector.norm2(), vector.norm1()
    assert (norm_inf, norm2, norm1) == (DualNumber(1.0), DualNumber(1.0, -1e-20), DualNumber(1.0, -1.0))
    assert norm_chain_defect(vector, norm_scales(vector), norm_inf, norm2, norm1) == 0.0


def test_norm2_closed_form_agreement_and_bound():
    rng = random.Random(89)
    for _ in range(300):
        v = rand_vector(rng)
        if not v.has_appreciable_entry:
            continue
        direct, closed = v.norm2(), v.norm2_closed_form()
        scale = max(1.0, abs(direct.std), abs(direct.inf))
        assert abs(direct.std - closed.std) <= 1e-9 * scale
        assert abs(direct.inf - closed.inf) <= 1e-9 * scale
        bound = DualNumber(
            math.hypot(*embed_real(v.std_part())),
            math.hypot(*embed_real(v.inf_part())),
        )
        assert le_with_slack(closed, bound)


# -- unit and basis checks ------------------------------------------------------------

def test_unit_vector_check_oracles():
    h = 1 / math.sqrt(2)
    x = DQVector.from_quaternions((Quaternion(h), h * I))
    verdict = x.unit_check(1e-9)
    assert verdict.passed
    assert verdict.gram_residual <= 1e-15 and verdict.norm_residual <= 1e-15

    unit_dq = DQVector((dq(std=Quaternion(1), inf=I),))
    assert unit_dq.unit_check(1e-9).passed

    assert not DQVector.from_quaternions((Quaternion(2),)).unit_check(1e-9).passed


def test_unit_check_rejects_negative_tolerance():
    for tol in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DQVector.from_quaternions((Quaternion(1),)).unit_check(tol)


# Each check on a value that is far from passing, so a tolerance that admits
# everything would show as a pass.
_TOLERANCE_CHECKS = {
    "DualQuaternion.unit_check": lambda tol: DualQuaternion(Quaternion(5.0), Quaternion(3.0)).unit_check(tol),
    "DQVector.unit_check": lambda tol: DQVector.from_quaternions((Quaternion(5.0),)).unit_check(tol),
    "basis_check": lambda tol: basis_check([DQVector.from_quaternions((Quaternion(5.0),))], tol),
}


@pytest.mark.parametrize("entry_point", sorted(_TOLERANCE_CHECKS))
@pytest.mark.parametrize("tol", [math.inf, -math.inf, -1e-9, math.nan])
def test_every_check_admits_only_a_finite_nonnegative_tolerance(entry_point, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        _TOLERANCE_CHECKS[entry_point](tol)


@pytest.mark.parametrize("entry_point", sorted(_TOLERANCE_CHECKS))
@pytest.mark.parametrize("tol", [True, False])
def test_every_check_refuses_a_bool_tolerance(entry_point, tol):
    # A bool is not a number here, as in DualNumber(1.0) + True: True would
    # otherwise read as the tolerance 1.0.
    with pytest.raises(TypeError, match="tolerance must be a number, got bool"):
        _TOLERANCE_CHECKS[entry_point](tol)


def test_unit_iff_margin():
    # both residual routes agree with a wide margin on pass and fail instances
    rng = random.Random(97)
    for _ in range(100):
        raw = [rand_quat(rng) for _ in range(3)]
        scale = math.hypot(*embed_real(raw))
        if scale < 0.5:
            continue
        std = [(1.0 / scale) * q for q in raw]
        infs = [rand_quat(rng) for _ in range(3)]
        overlap = sum(s.dot(i) for s, i in zip(std, infs))
        unit = DQVector(tuple(DualQuaternion(s, i - overlap * s) for s, i in zip(std, infs)))
        good = unit.unit_check(1e-9)
        assert good.passed
        assert max(good.gram_residual, good.norm_residual) <= 1e-10  # 10x margin

        bad = DQVector(tuple(DualQuaternion(e.std, e.inf + 0.01 * e.std) for e in unit))
        verdict = bad.unit_check(1e-9)
        assert not verdict.passed
        assert max(verdict.gram_residual, verdict.norm_residual) >= 1e-8  # 10x margin


def test_orthonormal_basis_oracles():
    e1 = DQVector((dq(std=Quaternion(1)), dq()))
    e2 = DQVector((dq(), dq(std=Quaternion(1))))
    verdict = basis_check([e1, e2], 1e-9)
    assert verdict.passed
    assert all(r == 0.0 for row in verdict.residuals for r in row)

    repeated = basis_check([e1, e1], 1e-9)
    assert not repeated.passed
    assert repeated.residuals[0][1] == 1.0

    decorated = DQVector((dq(std=Quaternion(1), inf=I), dq()))
    assert basis_check([decorated, e2], 1e-9).passed


def test_basis_check_validates_shape():
    e1 = DQVector((dq(std=Quaternion(1)), dq()))
    short = DQVector((dq(std=Quaternion(1)),))
    with pytest.raises(LengthMismatchError):
        basis_check([e1, short], 1e-9)
    with pytest.raises(ValueError):
        basis_check([], 1e-9)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            basis_check([e1, e1], tol)
    with pytest.raises(TypeError):
        basis_check([e1, tuple(e1)], 1e-9)


def test_scalar_action_is_left_multiplication():
    x = DQVector.from_quaternions((J,))
    scaled = DualQuaternion(Quaternion(), I) * x
    # i j = k lands in the infinitesimal slot
    assert scaled[0] == DualQuaternion(Quaternion(), K)
    x = DQVector((dq(J, K), dq(Quaternion(2.0, 1.0), I), dq(inf=J)))
    for scalar in (Quaternion(1, 2, 3, 4), DualNumber(2.0, -3.0), 3, 0.5):
        assert list(scalar * x) == [scalar * e for e in x]
    with pytest.raises(TypeError):
        "a" * x


def test_vector_iteration_and_negation():
    v = DQVector.from_quaternions((I, J))
    assert list(v) == [DualQuaternion.from_quaternion(I), DualQuaternion.from_quaternion(J)]
    assert (-v)[1] == DualQuaternion.from_quaternion(-J)

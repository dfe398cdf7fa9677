"""Randomized verification suites behind ``dualq selfcheck``.

Each suite draws instances from a seeded generator and checks one algebraic
fact on a recorder, through one of three kinds of check, each of which turns
a comparison into a verdict and a residual: ``within(residual, tol)`` for an
identity that is exact in reals, against an absolute tolerance (``EQ_TOL``
by default); ``holds(defect)`` for an order relation, whose defect under the
total order (:func:`dualquat.dual.le_defect`, with a slack of
``ORDER_SLACK`` on the component that decides the comparison) must be zero;
and ``agree(a, b)`` for two routes to one float, dual number, quaternion or
dual quaternion, which must be componentwise :func:`dualquat._common.close`
(a relative tolerance with a small absolute floor), with their largest
componentwise difference as the residual.  Plain facts go through ``check``.
A suite's worst residual shows the observed floating-point margins.

Everything is driven by one ``random.Random(seed)`` consumed in a fixed
suite order, so a run is fully determined by ``(seed, cases)``.  The suites
are the ``_suite_<name>(rng, rec)`` functions, run in definition order.
``run_all`` owns the recorders: one per suite, made with the case count and
turned into that suite's result.
"""

from __future__ import annotations

import math
import random
from operator import sub

from ._common import UNIT_TOL, Value, close
from .dual import EPSILON, ORDER_SLACK, DualNumber, Ordering, le_defect, no_root_witness
from .dualquaternion import DualQuaternion
from .quaternion import Quaternion, mixed_sum
from .vectors import DQVector, basis_check, embed_real

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CASES",
    "SuiteResult",
    "run_all",
]

DEFAULT_SEED = 2718281828
DEFAULT_CASES = 10000

EQ_TOL = 1e-12  # absolute tolerance for identities that are exact in reals


class SuiteResult(Value):
    __slots__ = ("name", "cases", "failures", "worst_residual")

    def __init__(self, name: str, cases: int, failures: int, worst_residual: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "worst_residual", worst_residual)

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    __slots__ = ("cases", "failures", "worst")

    def __init__(self, cases: int):
        self.cases = cases
        self.failures = 0
        self.worst = 0.0

    def check(self, ok: bool, residual: float | None = None):
        if residual is None:
            residual = 0.0 if ok else 1.0
        if residual > self.worst:
            self.worst = residual
        if not ok:
            self.failures += 1

    def within(self, residual: float, tol: float = EQ_TOL):
        self.check(residual <= tol, residual)

    def holds(self, defect: float):
        self.check(defect == 0.0, defect)

    def agree(self, a, b):
        self.check(all(map(close, _parts(a), _parts(b))), _diff(a, b))

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, self.cases, self.failures, self.worst)


# -- comparison helpers -----------------------------------------------------

def _nonneg_defect(a: DualNumber) -> float:
    """How much ``0 <= a`` fails by, for values that are exact squares.

    Exact algebra on dual numbers only produces a zero standard part
    exactly, so the infinitesimal part is consulted only then.  A tiny
    nonzero standard part is a rounding survivor of a quantity that is
    nonnegative in exact arithmetic (an even power or a square), and its
    infinitesimal part is unconstrained, so only the sign of the standard
    part is judged, with the usual slack.
    """
    if a.std != 0.0:
        return max(0.0, -a.std - ORDER_SLACK)
    return max(0.0, -a.inf - ORDER_SLACK)


def _parts(value: float | DualNumber | Quaternion | DualQuaternion) -> tuple[float, ...]:
    cls = value.__class__
    if cls is DualNumber:
        return (value.std, value.inf)
    if cls is DualQuaternion:
        return value.std.components() + value.inf.components()
    if cls is Quaternion:
        return value.components()
    return (value,)


def _diff(a, b) -> float:
    """The largest componentwise absolute difference of two values of one kind."""
    return max(map(abs, map(sub, _parts(a), _parts(b))))


# -- generators --------------------------------------------------------------

def _real(rng: random.Random) -> float:
    return rng.uniform(-10.0, 10.0)


def _dual(rng: random.Random, zero_std_rate: float = 0.2) -> DualNumber:
    std = 0.0 if rng.random() < zero_std_rate else _real(rng)
    return DualNumber(std, _real(rng))


def _appreciable_dual(rng: random.Random) -> DualNumber:
    while True:
        q = _dual(rng, zero_std_rate=0.0)
        if q.is_appreciable:
            return q


def _quat(rng: random.Random) -> Quaternion:
    return Quaternion(_real(rng), _real(rng), _real(rng), _real(rng))


def _quat_nonzero(rng: random.Random) -> Quaternion:
    while True:
        q = _quat(rng)
        if not q.is_zero:
            return q


def _unit_quat(rng: random.Random) -> Quaternion:
    while True:
        q = _quat(rng)
        n = q.norm()
        if n >= 0.5:
            return (1.0 / n) * q


def _dquat(rng: random.Random, kind: str) -> DualQuaternion:
    # kind: "A" appreciable, "I" infinitesimal, "Z" zero
    if kind == "A":
        return DualQuaternion(_quat_nonzero(rng), _quat(rng))
    if kind == "I":
        return DualQuaternion(Quaternion(), _quat(rng))
    return DualQuaternion()


_PAIR_STRATA = (("A", "A"), ("A", "I"), ("I", "A"), ("I", "I"))


def _unit_dquat(rng: random.Random) -> DualQuaternion:
    std = _unit_quat(rng)
    raw = _quat(rng)
    # Remove the component of the infinitesimal part along the standard
    # part; that zeroes the mixed sum, which is the unit condition.
    inf = raw - std.dot(raw) * std
    return DualQuaternion(std, inf)


def _vector(rng: random.Random, length: int | None = None, profile: str = "general") -> DQVector:
    n = length if length is not None else rng.randint(1, 8)
    entries = []
    for _ in range(n):
        if profile == "infinitesimal":
            kind = "I"
        elif profile == "appreciable":
            kind = "A"
        else:
            kind = "A" if rng.random() < 0.7 else "I"
        entries.append(_dquat(rng, kind))
    return DQVector(tuple(entries))


def _vector_with_appreciable(rng: random.Random, length: int | None = None) -> DQVector:
    while True:
        v = _vector(rng, length, "general")
        if v.has_appreciable_entry:
            return v


def _unit_vector(rng: random.Random, n: int) -> DQVector:
    while True:
        raw = [_quat(rng) for _ in range(n)]
        scale = math.hypot(*embed_real(raw))
        if scale >= 0.5:
            break
    std = [(1.0 / scale) * q for q in raw]
    inf = [_quat(rng) for _ in range(n)]
    # Project the flattened infinitesimal part off the standard part so
    # the inner product of the vector with itself is exactly one.
    overlap = 0.0
    for s, i in zip(std, inf):
        overlap += s.dot(i)
    entries = tuple(
        DualQuaternion(s, i - overlap * s) for s, i in zip(std, inf)
    )
    return DQVector(entries)


# -- dual number suites -------------------------------------------------------

def _suite_dual_order_total(rng, rec):
    for index in range(rec.cases):
        p, q, r = _dual(rng), _dual(rng), _dual(rng)
        if index % 5 == 0:
            q = DualNumber(p.std, q.inf)  # force a standard-part tie
        if index % 7 == 0:
            r = p  # force an equality
        rec.check((p < q) + (p == q) + (p > q) == 1)
        rec.check((p <= q) == (p < q or p == q))
        rec.check((p < q) == (q > p))
        lo, mid, hi = sorted([p, q, r])
        rec.check(lo <= mid and mid <= hi and lo <= hi)
        if p <= q and q <= p:
            rec.check(p == q)


def _suite_dual_even_power_nonneg(rng, rec):
    for index in range(rec.cases):
        q = _dual(rng)
        k = 1 + index % 3
        rec.holds(_nonneg_defect(q ** (2 * k)))


def _suite_dual_square_expansion_nonneg(rng, rec):
    for _ in range(rec.cases):
        p, q = _dual(rng), _dual(rng)
        rec.holds(_nonneg_defect(p**2 + q**2 - 2 * (p * q)))


def _suite_dual_product_of_nonnegatives(rng, rec):
    for _ in range(rec.cases):
        p, q = abs(_dual(rng)), abs(_dual(rng))
        rec.holds(_nonneg_defect(p * q))


def _suite_dual_product_of_positives(rng, rec):
    zero = DualNumber()
    for index in range(rec.cases):
        p = abs(_appreciable_dual(rng))  # appreciable and positive
        q = abs(_dual(rng, zero_std_rate=0.5))
        if q.is_zero:
            q = EPSILON
        if index % 2:
            p, q = q, p
        rec.check(p * q > zero)


def _suite_dual_abs_zero_iff_zero(rng, rec):
    zero = DualNumber()
    rec.check(abs(zero).is_zero)
    for _ in range(rec.cases):
        q = _dual(rng)
        rec.check(abs(q).is_zero == q.is_zero)


def _suite_dual_abs_dominates(rng, rec):
    zero = DualNumber()
    for _ in range(rec.cases):
        q = _dual(rng)
        if q >= zero:
            rec.check(abs(q) == q)
        else:
            rec.check(abs(q) > q)


def _suite_dual_abs_sqrt_of_square(rng, rec):
    for _ in range(rec.cases):
        q = _appreciable_dual(rng)
        rec.within(_diff(abs(q), (q**2).sqrt()))


def _suite_dual_abs_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = _dual(rng), _dual(rng)
        rec.agree(abs(p * q), abs(p) * abs(q))


def _suite_dual_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = _dual(rng), _dual(rng)
        rec.holds(le_defect(abs(p + q), abs(p) + abs(q)))


def _suite_dual_inverse_roundtrip(rng, rec):
    one = DualNumber(1.0)
    for _ in range(rec.cases):
        while True:
            q = _appreciable_dual(rng)
            if abs(q.std) >= 1e-3:  # keep the roundtrip well conditioned
                break
        rec.within(_diff(q * q.inverse(), one), 1e-9)
        rec.agree(q.inverse().inverse(), q)


def _suite_dual_sqrt_roundtrip(rng, rec):
    for _ in range(rec.cases):
        q = abs(_appreciable_dual(rng))
        root = q.sqrt()
        rec.agree(root * root, q)


def _suite_dual_pow_repeated_mul(rng, rec):
    for index in range(rec.cases):
        q = _dual(rng)
        k = 2 + index % 4
        acc = q
        for _ in range(k - 1):
            acc = acc * q
        rec.agree(q**k, acc)


def _suite_dual_no_root_witness(rng, rec):
    report = no_root_witness()
    rec.check(report.value_at_zero == DualNumber(0.0, -1.0))
    rec.check(report.sign_at_zero is Ordering.LESS)
    rec.check(report.value_at_one == DualNumber(1.0, -1.0))
    rec.check(report.sign_at_one is Ordering.GREATER)
    rec.check(not report.root_exists)
    rec.check(report.interval.contains(DualNumber()) and report.interval.contains(DualNumber(1.0)))
    for _ in range(rec.cases):
        x = DualNumber(rng.uniform(0.0, 1.0), _real(rng))
        rec.check(not (x * x - EPSILON).is_zero)


# -- quaternion suites --------------------------------------------------------

def _suite_quat_conjugate_fixes_norm(rng, rec):
    for _ in range(rec.cases):
        q = _quat(rng)
        rec.within(abs(q.conjugate().norm() - q.norm()))


def _suite_quat_self_product_is_norm_squared(rng, rec):
    for _ in range(rec.cases):
        q = _quat(rng)
        n2 = q.norm() ** 2
        for product in (q * q.conjugate(), q.conjugate() * q):
            rec.within(max(product.imaginary_magnitude(), abs(product.w - n2)))


def _suite_quat_norm_zero_iff_zero(rng, rec):
    rec.holds(Quaternion().norm())
    for _ in range(rec.cases):
        q = _quat(rng)
        rec.check((q.norm() == 0.0) == q.is_zero)


def _suite_quat_norm_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = _quat(rng), _quat(rng)
        rec.holds(max(0.0, (p + q).norm() - (p.norm() + q.norm()) - ORDER_SLACK))


def _suite_quat_norm_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = _quat(rng), _quat(rng)
        rec.agree((p * q).norm(), p.norm() * q.norm())


def _suite_quat_conjugate_antihomomorphism(rng, rec):
    for _ in range(rec.cases):
        p, q = _quat(rng), _quat(rng)
        rec.within(_diff((p * q).conjugate(), q.conjugate() * p.conjugate()))


def _suite_quat_mixed_sum_forms(rng, rec):
    for _ in range(rec.cases):
        p, q = _quat(rng), _quat(rng)
        two_dot = 2.0 * p.dot(q)
        left = p * q.conjugate() + q * p.conjugate()
        right = p.conjugate() * q + q.conjugate() * p
        rec.within(max(
            left.imaginary_magnitude(),
            right.imaginary_magnitude(),
            abs(left.w - two_dot),
            abs(right.w - two_dot),
        ))
        rec.check(mixed_sum(p, q) == two_dot)


def _suite_quat_product_associative(rng, rec):
    for _ in range(rec.cases):
        p, q, r = _quat(rng), _quat(rng), _quat(rng)
        rec.agree((p * q) * r, p * (q * r))


def _suite_quat_inverse_roundtrip(rng, rec):
    one = Quaternion(1.0)
    for _ in range(rec.cases):
        while True:
            q = _quat(rng)
            if q.norm() >= 0.5:
                break
        for product in (q * q.inverse(), q.inverse() * q):
            rec.within(_diff(product, one))


def _suite_quat_noncommutativity_witness(rng, rec):
    rec.cases = 1  # one fixed witness, whatever the case count
    i, j, k = Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1)
    rec.check(i * j == k)
    rec.check(j * i == -k)
    rec.check(i * j != j * i)
    rec.check(j * k == i and k * j == -i)
    rec.check(k * i == j and i * k == -j)
    rec.check(i * i == Quaternion(-1) and j * j == Quaternion(-1) and k * k == Quaternion(-1))
    rec.check((i * j) * k == Quaternion(-1))


# -- dual quaternion suites ----------------------------------------------------

def _suite_dq_self_conjugate_product_commutes(rng, rec):
    for index in range(rec.cases):
        q = _dquat(rng, "AI"[index % 2])
        rec.within(_diff(q * q.conjugate(), q.conjugate() * q))


def _suite_dq_conjugate_fixes_magnitude(rng, rec):
    for index in range(rec.cases):
        q = _dquat(rng, "AI"[index % 2])
        rec.within(_diff(q.magnitude(), q.conjugate().magnitude()))


def _suite_dq_magnitude_nonneg_definite(rng, rec):
    zero = DualNumber()
    rec.check(DualQuaternion().magnitude().is_zero)
    for index in range(rec.cases):
        q = _dquat(rng, "AI"[index % 2])
        if q.is_zero:
            rec.check(q.magnitude().is_zero)
        else:
            rec.check(q.magnitude() > zero)


def _suite_dq_magnitude_multiplicative(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = _dquat(rng, kinds[0]), _dquat(rng, kinds[1])
        rec.agree((p * q).magnitude(), p.magnitude() * q.magnitude())


def _suite_dq_magnitude_triangle(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = _dquat(rng, kinds[0]), _dquat(rng, kinds[1])
        rec.holds(le_defect((p + q).magnitude(), p.magnitude() + q.magnitude()))


def _suite_dq_sqrt_route_agrees(rng, rec):
    for _ in range(rec.cases):
        q = _dquat(rng, "A")
        rec.within(_diff(q.magnitude_via_sqrt(), q.magnitude()))


def _suite_dq_inverse_roundtrip(rng, rec):
    one = DualQuaternion.from_real(1.0)
    for _ in range(rec.cases):
        # Standard part of norm 1..10 keeps the inverse well conditioned.
        std = rng.uniform(1.0, 10.0) * _unit_quat(rng)
        q = DualQuaternion(std, _quat(rng))
        for product in (q * q.inverse(), q.inverse() * q):
            rec.within(_diff(product, one), 1e-9)
        rec.agree(q.inverse().inverse(), q)


def _suite_dq_embedding_consistent(rng, rec):
    for _ in range(rec.cases):
        d1, d2 = _dual(rng), _dual(rng)
        q = _quat(rng)
        lifted = DualQuaternion.from_dual(d1)
        rec.within(_diff(lifted.magnitude(), abs(d1)))
        rec.within(_diff(lifted * DualQuaternion.from_dual(d2), DualQuaternion.from_dual(d1 * d2)))
        rec.check(DualQuaternion.from_quaternion(q).magnitude() == DualNumber(q.norm()))


# -- vector suites --------------------------------------------------------------

def _suite_vec_embedding_isometry(rng, rec):
    for _ in range(rec.cases):
        quats = tuple(_quat(rng) for _ in range(rng.randint(1, 8)))
        vector = DQVector.from_quaternions(quats)
        norm = vector.norm2()
        rec.within(max(abs(norm.std - math.hypot(*embed_real(quats))), abs(norm.inf)))


def _suite_vec_inner_conjugate_symmetry(rng, rec):
    for _ in range(rec.cases):
        n = rng.randint(1, 8)
        x, y = _vector(rng, n), _vector(rng, n)
        rec.agree(x.inner(y).conjugate(), y.inner(x))


def _suite_vec_norms_definite(rng, rec):
    zero = DualNumber()
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "zero")[index % 3]
        n = rng.randint(1, 8)
        if profile == "zero":
            v = DQVector(tuple(DualQuaternion() for _ in range(n)))
            rec.check(v.norm1().is_zero and v.norm_inf().is_zero and v.norm2().is_zero)
            continue
        v = _vector(rng, n, profile)
        if all(e.is_zero for e in v):
            continue
        rec.check(v.norm1() > zero)
        rec.check(v.norm_inf() > zero)
        rec.check(v.norm2() > zero)


def _suite_vec_norms_homogeneous(rng, rec):
    for index in range(rec.cases):
        x = _vector(rng)
        stratum = index % 5
        if stratum == 0:
            scalar = _dquat(rng, "A")
        elif stratum == 1:
            scalar = _dquat(rng, "I")
        elif stratum == 2:
            scalar = _unit_dquat(rng)
        elif stratum == 3:
            scalar = DualQuaternion.from_dual(_dual(rng))
        else:
            scalar = DualQuaternion.from_real(_real(rng))
        scaled = scalar * x
        factor = scalar.magnitude()
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            rec.agree(norm(scaled), factor * norm(x))


def _suite_vec_norms_triangle(rng, rec):
    for index in range(rec.cases):
        variant = index % 6
        n = rng.randint(1, 8)
        if variant == 0:
            x, y = _vector(rng, n), _vector(rng, n)
        elif variant == 1:
            # both sides infinitesimal
            x = _vector(rng, n, "infinitesimal")
            y = _vector(rng, n, "infinitesimal")
        elif variant == 2:
            # one side infinitesimal
            x = _vector(rng, n)
            y = _vector(rng, n, "infinitesimal")
        else:
            # proportional standard parts, the near-equality case
            t = (0.5, 1.0, 2.0)[variant - 3]
            x = _vector_with_appreciable(rng, n)
            y = DQVector(tuple(DualQuaternion(t * e.std, _quat(rng)) for e in x))
        total = x + y
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            rec.holds(le_defect(norm(total), norm(x) + norm(y)))


def _suite_vec_norm_chain(rng, rec):
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "appreciable")[index % 3]
        v = _vector(rng, None, profile)
        n1, n2, ninf = v.norm1(), v.norm2(), v.norm_inf()
        rec.holds(le_defect(ninf, n2))
        rec.holds(le_defect(n2, n1))


def _suite_vec_norm2_closed_form(rng, rec):
    for _ in range(rec.cases):
        v = _vector_with_appreciable(rng)
        closed = v.norm2_closed_form()
        rec.agree(v.norm2(), closed)
        bound = DualNumber(
            math.hypot(*embed_real(v.std_part())),
            math.hypot(*embed_real(v.inf_part())),
        )
        rec.holds(le_defect(closed, bound))


def _suite_vec_unit_checks(rng, rec):
    for index in range(rec.cases):
        u = _unit_vector(rng, rng.randint(1, 8))
        verdict = u.unit_check(UNIT_TOL)
        rec.check(verdict.passed, max(verdict.gram_residual, verdict.norm_residual))
        if index % 2 == 0:
            # scale defect in the standard part
            bad = DQVector((1.5 * u.entries[0],) + u.entries[1:])
        else:
            # mixed-sum defect in the infinitesimal part
            bad = DQVector(tuple(DualQuaternion(e.std, e.inf + 0.01 * e.std) for e in u))
        rec.check(not bad.unit_check(UNIT_TOL).passed)


def _suite_vec_orthonormal_basis(rng, rec):
    for index in range(rec.cases):
        n = rng.randint(1, 4)
        positions = rng.sample(range(n), n)
        vectors = []
        for row in range(n):
            entries = [DualQuaternion() for _ in range(n)]
            if index % 2 == 0:
                entries[positions[row]] = DualQuaternion.from_quaternion(_unit_quat(rng))
            else:
                entries[positions[row]] = _unit_dquat(rng)
            vectors.append(DQVector(tuple(entries)))
        verdict = basis_check(vectors, UNIT_TOL)
        rec.check(verdict.passed, max(max(row) for row in verdict.residuals))
        bad = [1.01 * vectors[0]] + vectors[1:]
        rec.check(not basis_check(bad, UNIT_TOL).passed)


# -- registry ---------------------------------------------------------------

_SUITES = tuple(
    (name[len("_suite_"):], suite)
    for name, suite in list(globals().items())
    if name.startswith("_suite_")
)


def suite_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _SUITES)


def run_all(seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> list[SuiteResult]:
    """Run every suite with one shared generator; fully deterministic."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    rng = random.Random(seed)
    results = []
    for name, suite in _SUITES:
        rec = _Recorder(cases)
        suite(rng, rec)
        results.append(rec.result(name))
    return results

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

Every input comes from one draw object, a ``random.Random(seed)`` whose
methods build the suites' values, consumed in a fixed suite order, so a run
is fully determined by ``(seed, cases)``.  The suites are the
``_suite_<name>(rng, rec)`` functions, run in definition order.
``run_all`` owns the recorders: one per suite, made with the case count and
turned into that suite's result.
"""

from __future__ import annotations

import math
import random
from operator import sub

from ._common import UNIT_TOL, Value, close
from .dual import EPSILON, ORDER_SLACK, DualNumber, Ordering, _dual_number, le_defect, no_root_witness
from .dualquaternion import DualQuaternion, _dual_quaternion
from .quaternion import Quaternion, _quaternion, _scaled, mixed_sum
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

_ZERO_QUAT = Quaternion()
_ZERO_DQUAT = DualQuaternion()


class _Draws(random.Random):
    """``random.Random`` plus the generators of the suites' inputs: reals are
    ``uniform(-10.0, 10.0)`` draws, and values go through the trusted constructors.
    """

    def real(self) -> float:
        return -10.0 + 20.0 * self.random()  # Random.uniform(-10.0, 10.0), inline

    def dual(self, zero_std_rate: float = 0.2) -> DualNumber:
        draw = self.random
        std = 0.0 if draw() < zero_std_rate else -10.0 + 20.0 * draw()
        return _dual_number(std, -10.0 + 20.0 * draw())

    def appreciable_dual(self) -> DualNumber:
        while True:
            q = self.dual(zero_std_rate=0.0)
            if q.is_appreciable:
                return q

    def quat(self) -> Quaternion:
        draw = self.random
        return _quaternion(-10.0 + 20.0 * draw(), -10.0 + 20.0 * draw(),
                           -10.0 + 20.0 * draw(), -10.0 + 20.0 * draw())

    def quat_nonzero(self) -> Quaternion:
        while True:
            q = self.quat()
            if not q.is_zero:
                return q

    def unit_quat(self) -> Quaternion:
        while True:
            q = self.quat()
            n = q.norm()
            if n >= 0.5:
                return _scaled(q, 1.0 / n)

    def dquat(self, kind: str) -> DualQuaternion:
        # kind: "A" appreciable, "I" infinitesimal, "Z" zero
        if kind == "A":
            return _dual_quaternion(self.quat_nonzero(), self.quat())
        if kind == "I":
            return _dual_quaternion(_ZERO_QUAT, self.quat())
        return _ZERO_DQUAT

    def unit_dquat(self) -> DualQuaternion:
        std = self.unit_quat()
        raw = self.quat()
        # Remove the component of the infinitesimal part along the standard
        # part; that zeroes the mixed sum, which is the unit condition.
        return _dual_quaternion(std, raw - _scaled(std, std.dot(raw)))

    def vector(self, length: int | None = None, profile: str = "general") -> DQVector:
        n = length if length is not None else self.randint(1, 8)
        entries = []
        for _ in range(n):
            if profile == "general":
                kind = "A" if self.random() < 0.7 else "I"
            else:
                kind = "I" if profile == "infinitesimal" else "A"
            entries.append(self.dquat(kind))
        return DQVector(tuple(entries))

    def vector_with_appreciable(self, length: int | None = None) -> DQVector:
        while True:
            v = self.vector(length, "general")
            if v.has_appreciable_entry:
                return v

    def unit_vector(self, n: int) -> DQVector:
        while True:
            raw = [self.quat() for _ in range(n)]
            scale = math.hypot(*embed_real(raw))
            if scale >= 0.5:
                break
        std = [_scaled(q, 1.0 / scale) for q in raw]
        inf = [self.quat() for _ in range(n)]
        # Project the flattened infinitesimal part off the standard part so
        # the inner product of the vector with itself is exactly one.
        overlap = 0.0
        for s, i in zip(std, inf):
            overlap += s.dot(i)
        return DQVector(tuple(
            _dual_quaternion(s, i - _scaled(s, overlap)) for s, i in zip(std, inf)
        ))


_PAIR_STRATA = (("A", "A"), ("A", "I"), ("I", "A"), ("I", "I"))


# -- dual number suites -------------------------------------------------------

def _suite_dual_order_total(rng, rec):
    for index in range(rec.cases):
        p, q, r = rng.dual(), rng.dual(), rng.dual()
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
        q = rng.dual()
        k = 1 + index % 3
        rec.holds(_nonneg_defect(q ** (2 * k)))


def _suite_dual_square_expansion_nonneg(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        rec.holds(_nonneg_defect(p**2 + q**2 - 2 * (p * q)))


def _suite_dual_product_of_nonnegatives(rng, rec):
    for _ in range(rec.cases):
        p, q = abs(rng.dual()), abs(rng.dual())
        rec.holds(_nonneg_defect(p * q))


def _suite_dual_product_of_positives(rng, rec):
    zero = DualNumber()
    for index in range(rec.cases):
        p = abs(rng.appreciable_dual())  # appreciable and positive
        q = abs(rng.dual(zero_std_rate=0.5))
        if q.is_zero:
            q = EPSILON
        if index % 2:
            p, q = q, p
        rec.check(p * q > zero)


def _suite_dual_abs_zero_iff_zero(rng, rec):
    zero = DualNumber()
    rec.check(abs(zero).is_zero)
    for _ in range(rec.cases):
        q = rng.dual()
        rec.check(abs(q).is_zero == q.is_zero)


def _suite_dual_abs_dominates(rng, rec):
    zero = DualNumber()
    for _ in range(rec.cases):
        q = rng.dual()
        if q >= zero:
            rec.check(abs(q) == q)
        else:
            rec.check(abs(q) > q)


def _suite_dual_abs_sqrt_of_square(rng, rec):
    for _ in range(rec.cases):
        q = rng.appreciable_dual()
        rec.within(_diff(abs(q), (q**2).sqrt()))


def _suite_dual_abs_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        rec.agree(abs(p * q), abs(p) * abs(q))


def _suite_dual_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        rec.holds(le_defect(abs(p + q), abs(p) + abs(q)))


def _suite_dual_inverse_roundtrip(rng, rec):
    one = DualNumber(1.0)
    for _ in range(rec.cases):
        while True:
            q = rng.appreciable_dual()
            if abs(q.std) >= 1e-3:  # keep the roundtrip well conditioned
                break
        rec.within(_diff(q * q.inverse(), one), 1e-9)
        rec.agree(q.inverse().inverse(), q)


def _suite_dual_sqrt_roundtrip(rng, rec):
    for _ in range(rec.cases):
        q = abs(rng.appreciable_dual())
        root = q.sqrt()
        rec.agree(root * root, q)


def _suite_dual_pow_repeated_mul(rng, rec):
    for index in range(rec.cases):
        q = rng.dual()
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
        x = DualNumber(rng.uniform(0.0, 1.0), rng.real())
        rec.check(not (x * x - EPSILON).is_zero)


# -- quaternion suites --------------------------------------------------------

def _suite_quat_conjugate_fixes_norm(rng, rec):
    for _ in range(rec.cases):
        q = rng.quat()
        rec.within(abs(q.conjugate().norm() - q.norm()))


def _suite_quat_self_product_is_norm_squared(rng, rec):
    for _ in range(rec.cases):
        q = rng.quat()
        n2 = q.norm() ** 2
        for product in (q * q.conjugate(), q.conjugate() * q):
            rec.within(max(product.imaginary_magnitude(), abs(product.w - n2)))


def _suite_quat_norm_zero_iff_zero(rng, rec):
    rec.holds(Quaternion().norm())
    for _ in range(rec.cases):
        q = rng.quat()
        rec.check((q.norm() == 0.0) == q.is_zero)


def _suite_quat_norm_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        rec.holds(max(0.0, (p + q).norm() - (p.norm() + q.norm()) - ORDER_SLACK))


def _suite_quat_norm_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        rec.agree((p * q).norm(), p.norm() * q.norm())


def _suite_quat_conjugate_antihomomorphism(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        rec.within(_diff((p * q).conjugate(), q.conjugate() * p.conjugate()))


def _suite_quat_mixed_sum_forms(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
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
        p, q, r = rng.quat(), rng.quat(), rng.quat()
        rec.agree((p * q) * r, p * (q * r))


def _suite_quat_inverse_roundtrip(rng, rec):
    one = Quaternion(1.0)
    for _ in range(rec.cases):
        while True:
            q = rng.quat()
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
        q = rng.dquat("AI"[index % 2])
        rec.within(_diff(q * q.conjugate(), q.conjugate() * q))


def _suite_dq_conjugate_fixes_magnitude(rng, rec):
    for index in range(rec.cases):
        q = rng.dquat("AI"[index % 2])
        rec.within(_diff(q.magnitude(), q.conjugate().magnitude()))


def _suite_dq_magnitude_nonneg_definite(rng, rec):
    zero = DualNumber()
    rec.check(DualQuaternion().magnitude().is_zero)
    for index in range(rec.cases):
        q = rng.dquat("AI"[index % 2])
        if q.is_zero:
            rec.check(q.magnitude().is_zero)
        else:
            rec.check(q.magnitude() > zero)


def _suite_dq_magnitude_multiplicative(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = rng.dquat(kinds[0]), rng.dquat(kinds[1])
        rec.agree((p * q).magnitude(), p.magnitude() * q.magnitude())


def _suite_dq_magnitude_triangle(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = rng.dquat(kinds[0]), rng.dquat(kinds[1])
        rec.holds(le_defect((p + q).magnitude(), p.magnitude() + q.magnitude()))


def _suite_dq_sqrt_route_agrees(rng, rec):
    for _ in range(rec.cases):
        q = rng.dquat("A")
        rec.within(_diff(q.magnitude_via_sqrt(), q.magnitude()))


def _suite_dq_inverse_roundtrip(rng, rec):
    one = DualQuaternion.from_real(1.0)
    for _ in range(rec.cases):
        # Standard part of norm 1..10 keeps the inverse well conditioned.
        std = rng.uniform(1.0, 10.0) * rng.unit_quat()
        q = DualQuaternion(std, rng.quat())
        for product in (q * q.inverse(), q.inverse() * q):
            rec.within(_diff(product, one), 1e-9)
        rec.agree(q.inverse().inverse(), q)


def _suite_dq_embedding_consistent(rng, rec):
    for _ in range(rec.cases):
        d1, d2 = rng.dual(), rng.dual()
        q = rng.quat()
        lifted = DualQuaternion.from_dual(d1)
        rec.within(_diff(lifted.magnitude(), abs(d1)))
        rec.within(_diff(lifted * DualQuaternion.from_dual(d2), DualQuaternion.from_dual(d1 * d2)))
        rec.check(DualQuaternion.from_quaternion(q).magnitude() == DualNumber(q.norm()))


# -- vector suites --------------------------------------------------------------

def _suite_vec_embedding_isometry(rng, rec):
    for _ in range(rec.cases):
        quats = tuple(rng.quat() for _ in range(rng.randint(1, 8)))
        vector = DQVector.from_quaternions(quats)
        norm = vector.norm2()
        rec.within(max(abs(norm.std - math.hypot(*embed_real(quats))), abs(norm.inf)))


def _suite_vec_inner_conjugate_symmetry(rng, rec):
    for _ in range(rec.cases):
        n = rng.randint(1, 8)
        x, y = rng.vector(n), rng.vector(n)
        rec.agree(x.inner(y).conjugate(), y.inner(x))


def _suite_vec_norms_definite(rng, rec):
    zero = DualNumber()
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "zero")[index % 3]
        n = rng.randint(1, 8)
        if profile == "zero":
            v = DQVector((_ZERO_DQUAT,) * n)
            rec.check(v.norm1().is_zero and v.norm_inf().is_zero and v.norm2().is_zero)
            continue
        v = rng.vector(n, profile)
        if all(e.is_zero for e in v):
            continue
        rec.check(v.norm1() > zero)
        rec.check(v.norm_inf() > zero)
        rec.check(v.norm2() > zero)


def _suite_vec_norms_homogeneous(rng, rec):
    for index in range(rec.cases):
        x = rng.vector()
        stratum = index % 5
        if stratum == 0:
            scalar = rng.dquat("A")
        elif stratum == 1:
            scalar = rng.dquat("I")
        elif stratum == 2:
            scalar = rng.unit_dquat()
        elif stratum == 3:
            scalar = DualQuaternion.from_dual(rng.dual())
        else:
            scalar = DualQuaternion.from_real(rng.real())
        scaled = scalar * x
        factor = scalar.magnitude()
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            rec.agree(norm(scaled), factor * norm(x))


def _suite_vec_norms_triangle(rng, rec):
    for index in range(rec.cases):
        variant = index % 6
        n = rng.randint(1, 8)
        if variant == 0:
            x, y = rng.vector(n), rng.vector(n)
        elif variant == 1:
            # both sides infinitesimal
            x = rng.vector(n, "infinitesimal")
            y = rng.vector(n, "infinitesimal")
        elif variant == 2:
            # one side infinitesimal
            x = rng.vector(n)
            y = rng.vector(n, "infinitesimal")
        else:
            # proportional standard parts, the near-equality case
            t = (0.5, 1.0, 2.0)[variant - 3]
            x = rng.vector_with_appreciable(n)
            y = DQVector(tuple(DualQuaternion(t * e.std, rng.quat()) for e in x))
        total = x + y
        for norm in (DQVector.norm1, DQVector.norm_inf, DQVector.norm2):
            rec.holds(le_defect(norm(total), norm(x) + norm(y)))


def _suite_vec_norm_chain(rng, rec):
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "appreciable")[index % 3]
        v = rng.vector(None, profile)
        n1, n2, ninf = v.norm1(), v.norm2(), v.norm_inf()
        rec.holds(le_defect(ninf, n2))
        rec.holds(le_defect(n2, n1))


def _suite_vec_norm2_closed_form(rng, rec):
    for _ in range(rec.cases):
        v = rng.vector_with_appreciable()
        closed = v.norm2_closed_form()
        rec.agree(v.norm2(), closed)
        bound = DualNumber(
            math.hypot(*embed_real(v.std_part())),
            math.hypot(*embed_real(v.inf_part())),
        )
        rec.holds(le_defect(closed, bound))


def _suite_vec_unit_checks(rng, rec):
    for index in range(rec.cases):
        u = rng.unit_vector(rng.randint(1, 8))
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
            entries = [_ZERO_DQUAT] * n
            if index % 2 == 0:
                entries[positions[row]] = DualQuaternion.from_quaternion(rng.unit_quat())
            else:
                entries[positions[row]] = rng.unit_dquat()
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
    rng = _Draws(seed)
    results = []
    for name, suite in _SUITES:
        rec = _Recorder(cases)
        suite(rng, rec)
        results.append(rec.result(name))
    return results

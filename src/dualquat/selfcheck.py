"""Randomized verification suites behind ``dualq selfcheck``.

Each suite draws instances from a seeded generator and checks one algebraic
fact on a recorder.  Two kinds of check turn a comparison into a verdict and
a residual by the one rounding-error rule, :func:`dualquat._common.close`:
``agree(a, b, scale, k)`` for two routes to one float, quaternion, dual
number or dual quaternion, judged by :func:`dualquat._common.agree`, with
the largest componentwise difference as the residual; and ``holds(defect)``
for an order relation, whose :func:`dualquat.dual.le_defect` at a scale and
``k`` must be zero.  A scale is a float, or a (standard, infinitesimal) pair
for a dual value; ``k`` counts both sides' roundings, with a comment where
not obvious.  The three route checks of ``dualq magnitude`` and ``dualq
norms`` (``magnitude_routes_agree``, ``norm2_closed_form_agrees`` and
``norm_chain_defect``) derive their own scale and ``k``; the two norm checks
pick theirs from the vector's ``norm_scales``, which a suite passes in and
``dualq norms`` computes once, in ``norm_checks``.  ``check`` or ``holds``
records what they return.
Plain facts go through ``check``.  The worst residuals show observed margins.

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

from ._common import UNIT_TOL, Value, agree
from .dual import EPSILON, DualNumber, Ordering, _dual_number, le_defect, no_root_witness
from .dualquaternion import DualQuaternion, _dual_quaternion, magnitude_routes_agree, magnitude_scale
from .quaternion import Quaternion, _quaternion, _scaled, mixed_sum
from .vectors import DQVector, basis_check, embed_real, norm2_closed_form_agrees, norm_chain_defect, norm_scales, norms

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CASES",
    "SuiteResult",
    "run_all",
]

DEFAULT_SEED = 2718281828
DEFAULT_CASES = 10000


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

    def holds(self, defect: float):
        self.check(defect == 0.0, defect)

    def agree(self, a, b, scale, k: int):
        self.check(*agree(a, b, scale, k))

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, self.cases, self.failures, self.worst)


# -- comparison helpers -----------------------------------------------------

def _size(value: DualNumber | DualQuaternion) -> tuple[float, float]:
    """The absolute value or norm of each part: the scale of the value itself."""
    if value.__class__ is DualNumber:
        return abs(value.std), abs(value.inf)
    return value.std.norm(), value.inf.norm()


# -- generators --------------------------------------------------------------

_ZERO = DualNumber()
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
        power = q ** (2 * (1 + index % 3))  # one term per part: a pow within one ulp, 2 products
        rec.holds(le_defect(_ZERO, power, (power.std, abs(power.inf)), 4))


def _suite_dual_square_expansion_nonneg(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        std, inf = abs(p.std) + abs(q.std), abs(p.inf) + abs(q.inf)  # squares within one ulp or products, 2 sums
        rec.holds(le_defect(_ZERO, p**2 + q**2 - 2 * (p * q), (std * std, 2.0 * std * inf), 4))


def _suite_dual_product_of_nonnegatives(rng, rec):
    for _ in range(rec.cases):
        p, q = abs(rng.dual()), abs(rng.dual())
        rec.holds(le_defect(_ZERO, p * q, (abs(p.std * q.std), abs(p.std * q.inf) + abs(p.inf * q.std)), 2))


def _suite_dual_product_of_positives(rng, rec):
    for index in range(rec.cases):
        p = abs(rng.appreciable_dual())  # appreciable and positive
        q = abs(rng.dual(zero_std_rate=0.5))
        if q.is_zero:
            q = EPSILON
        if index % 2:
            p, q = q, p
        rec.check(p * q > _ZERO)


def _suite_dual_abs_zero_iff_zero(rng, rec):
    rec.check(abs(_ZERO).is_zero)
    for _ in range(rec.cases):
        q = rng.dual()
        rec.check(abs(q).is_zero == q.is_zero)


def _suite_dual_abs_dominates(rng, rec):
    for _ in range(rec.cases):
        q = rng.dual()
        if q >= _ZERO:
            rec.check(abs(q) == q)
        else:
            rec.check(abs(q) > q)


def _suite_dual_abs_sqrt_of_square(rng, rec):
    for _ in range(rec.cases):
        q = rng.appreciable_dual()
        rec.agree(abs(q), (q**2).sqrt(), _size(q), 4)  # a square within one ulp, its root


def _suite_dual_abs_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        rec.agree(abs(p * q), abs(p) * abs(q), (abs(p.std * q.std), abs(p.std * q.inf) + abs(p.inf * q.std)), 4)


def _suite_dual_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.dual(), rng.dual()
        rec.holds(le_defect(abs(p + q), abs(p) + abs(q), (abs(p.std) + abs(q.std), abs(p.inf) + abs(q.inf)), 2))


def _suite_dual_inverse_roundtrip(rng, rec):
    one = DualNumber(1.0)
    for _ in range(rec.cases):
        while True:
            q = rng.appreciable_dual()
            if abs(q.std) >= 1e-3:  # keep the roundtrip well conditioned
                break
        # The inverse rounds 1 and 3 times, the product's two terms 2 and 3 more.
        rec.agree(q * q.inverse(), one, (1.0, 2.0 * abs(q.inf / q.std)), 6)
        rec.agree(q.inverse().inverse(), q, _size(q), 10)


def _suite_dual_sqrt_roundtrip(rng, rec):
    for _ in range(rec.cases):
        q = abs(rng.appreciable_dual())
        root = q.sqrt()
        rec.agree(root * root, q, _size(q), 5)


def _suite_dual_pow_repeated_mul(rng, rec):
    for index in range(rec.cases):
        q = rng.dual()
        power = 2 + index % 4
        acc = q
        for _ in range(power - 1):
            acc = acc * q
        std, inf = _size(q)  # a pow within one ulp and 2 products, against 2 roundings per product
        rec.agree(q**power, acc, (std**power, power * std ** (power - 1) * inf), 2 * power + 2)


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
        rec.agree(q.conjugate().norm(), q.norm(), q.norm(), 4)  # hypot is within one ulp


def _suite_quat_self_product_is_norm_squared(rng, rec):
    for _ in range(rec.cases):
        q = rng.quat()
        n2 = q.norm() ** 2
        square = _quaternion(n2, 0.0, 0.0, 0.0)  # 4 squares added, against the square of a norm, each within one ulp
        for product in (q * q.conjugate(), q.conjugate() * q):
            rec.agree(product, square, n2, 10)


def _suite_quat_norm_zero_iff_zero(rng, rec):
    rec.holds(Quaternion().norm())
    for _ in range(rec.cases):
        q = rng.quat()
        rec.check((q.norm() == 0.0) == q.is_zero)


def _suite_quat_norm_triangle(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        bound = p.norm() + q.norm()  # the sums round once, each norm is within one ulp
        rec.holds(le_defect(DualNumber((p + q).norm()), DualNumber(bound), (bound, 0.0), 6))


def _suite_quat_norm_multiplicative(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        norms = p.norm() * q.norm()  # 4 components within γ_4 of it move a norm by twice that
        rec.agree((p * q).norm(), norms, norms, 15)


def _suite_quat_conjugate_antihomomorphism(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        rec.agree((p * q).conjugate(), q.conjugate() * p.conjugate(), p.norm() * q.norm(), 8)


def _suite_quat_mixed_sum_forms(rng, rec):
    for _ in range(rec.cases):
        p, q = rng.quat(), rng.quat()
        two_dot = 2.0 * p.dot(q)
        target, scale = _quaternion(two_dot, 0.0, 0.0, 0.0), 2.0 * p.norm() * q.norm()  # the bounds of mixed_sum
        rec.agree(p * q.conjugate() + q * p.conjugate(), target, scale, 9)
        rec.agree(p.conjugate() * q + q.conjugate() * p, target, scale, 9)
        rec.check(mixed_sum(p, q) == two_dot)


def _suite_quat_product_associative(rng, rec):
    for _ in range(rec.cases):
        p, q, r = rng.quat(), rng.quat(), rng.quat()
        # Per side, γ_4 for the outer product and twice γ_4 from the inner one.
        rec.agree((p * q) * r, p * (q * r), p.norm() * q.norm() * r.norm(), 26)


def _suite_quat_inverse_roundtrip(rng, rec):
    one = Quaternion(1.0)
    for _ in range(rec.cases):
        while True:
            q = rng.quat()
            if q.norm() >= 0.5:
                break
        # The inverse's components round 5 times; the product's terms come to at most 1.
        for product in (q * q.inverse(), q.inverse() * q):
            rec.agree(product, one, 1.0, 9)


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
        std, inf = _size(q)
        rec.agree(q * q.conjugate(), q.conjugate() * q, (std * std, 2.0 * std * inf), 10)


def _suite_dq_conjugate_fixes_magnitude(rng, rec):
    for index in range(rec.cases):
        q = rng.dquat("AI"[index % 2])
        rec.agree(q.magnitude(), q.conjugate().magnitude(), magnitude_scale(q.std, q.inf), 14)


def _suite_dq_magnitude_nonneg_definite(rng, rec):
    rec.check(DualQuaternion().magnitude().is_zero)
    for index in range(rec.cases):
        q = rng.dquat("AI"[index % 2])
        if q.is_zero:
            rec.check(q.magnitude().is_zero)
        else:
            rec.check(q.magnitude() > _ZERO)


def _suite_dq_magnitude_multiplicative(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = rng.dquat(kinds[0]), rng.dquat(kinds[1])
        # p * q's parts are within γ_4 and γ_5 per component, which moves its magnitude by up to
        # 2 and 4 times that; the magnitudes round 2 and 7 times, their product 5 and 11.
        (ps, pi), (qs, qi) = _size(p), _size(q)
        rec.agree((p * q).magnitude(), p.magnitude() * q.magnitude(), (ps * qs, ps * qi + pi * qs), 44)


def _suite_dq_magnitude_triangle(rng, rec):
    for index in range(rec.cases):
        kinds = _PAIR_STRATA[index % 4]
        p, q = rng.dquat(kinds[0]), rng.dquat(kinds[1])
        # p + q rounds, moving its magnitude by u and 3u of the scale; each magnitude rounds 2 and 7 times.
        (ps, pi), (qs, qi) = _size(p), _size(q)
        rec.holds(le_defect((p + q).magnitude(), p.magnitude() + q.magnitude(), (ps + qs, pi + qi), 18))


def _suite_dq_sqrt_route_agrees(rng, rec):
    for _ in range(rec.cases):
        q = rng.dquat("A")
        rec.check(*magnitude_routes_agree(q, q.magnitude(), q.magnitude_via_sqrt()))


def _suite_dq_inverse_roundtrip(rng, rec):
    one = DualQuaternion.from_real(1.0)
    for _ in range(rec.cases):
        # Standard part of norm 1..10 keeps the inverse well conditioned.
        std = rng.uniform(1.0, 10.0) * rng.unit_quat()
        q = DualQuaternion(std, rng.quat())
        # An inverse is within γ_5 per component, and a product adds 2γ_4 of its norms' product to its
        # factors' errors: γ_9 of 1 and γ_25 of 2|inf|/|std|, then γ_10 and γ_62 of |std| and |inf|.
        for product in (q * q.inverse(), q.inverse() * q):
            rec.agree(product, one, (1.0, 2.0 * q.inf.norm() / q.std.norm()), 25)
        rec.agree(q.inverse().inverse(), q, _size(q), 62)


def _suite_dq_embedding_consistent(rng, rec):
    for _ in range(rec.cases):
        d1, d2 = rng.dual(), rng.dual()
        q = rng.quat()
        lifted = DualQuaternion.from_dual(d1)
        rec.agree(lifted.magnitude(), abs(d1), _size(d1), 2)
        scale = (abs(d1.std * d2.std), abs(d1.std * d2.inf) + abs(d1.inf * d2.std))
        rec.agree(lifted * DualQuaternion.from_dual(d2), DualQuaternion.from_dual(d1 * d2), scale, 4)
        rec.check(DualQuaternion.from_quaternion(q).magnitude() == DualNumber(q.norm()))


# -- vector suites --------------------------------------------------------------

def _suite_vec_embedding_isometry(rng, rec):
    for _ in range(rec.cases):
        v = DQVector.from_quaternions([rng.quat() for _ in range(rng.randint(1, 8))])
        # The closed form of a vector of quaternions is the Euclidean norm of its real embedding.
        rec.check(*norm2_closed_form_agrees(v, norm_scales(v), v.norm2(), v.norm2_closed_form()))


def _suite_vec_inner_conjugate_symmetry(rng, rec):
    for _ in range(rec.cases):
        n = rng.randint(1, 8)
        x, y = rng.vector(n), rng.vector(n)
        # Per side, 4n and 8n products added, of absolute values at most |x_s||y_s| and |x_s||y_i| + |x_i||y_s|.
        xs, xi, ys, yi = [math.hypot(*embed_real(p)) for p in (x.std_part(), x.inf_part(), y.std_part(), y.inf_part())]
        rec.agree(x.inner(y).conjugate(), y.inner(x), (xs * ys, xs * yi + xi * ys), 16 * n)


def _suite_vec_norms_definite(rng, rec):
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "zero")[index % 3]
        n = rng.randint(1, 8)
        if profile == "zero":
            v = DQVector((_ZERO_DQUAT,) * n)
            rec.check(all(norm.is_zero for norm in norms(v)[:3]))
            continue
        v = rng.vector(n, profile)
        if all(e.is_zero for e in v):
            continue
        for norm in norms(v)[:3]:
            rec.check(norm > _ZERO)


def _suite_vec_norms_homogeneous(rng, rec):
    for index in range(rec.cases):
        x = rng.vector()
        stratum = index % 5
        if stratum < 2:
            scalar = rng.dquat("AI"[stratum])
        elif stratum == 2:
            scalar = rng.unit_dquat()
        elif stratum == 3:
            scalar = DualQuaternion.from_dual(rng.dual())
        else:
            scalar = DualQuaternion.from_real(rng.real())
        scaled = scalar * x
        factor = scalar.magnitude()
        (std, inf), (xs, xi) = _size(scalar), map(sum, zip(*map(_size, x)))
        scale = (std * xs, std * xi + inf * xs)
        # Per entry γ_10 and γ_33 as in dq_magnitude_multiplicative; a norm adds up to γ_(n+4) and γ_(2n+14).
        for got, norm in zip(norms(scaled)[:3], norms(x)):
            rec.agree(got, factor * norm, scale, 4 * len(x) + 58)


def _suite_vec_norms_triangle(rng, rec):
    for index in range(rec.cases):
        variant = index % 6
        n = rng.randint(1, 8)
        if variant < 3:  # general, both sides infinitesimal, one side infinitesimal
            x = rng.vector(n, "infinitesimal" if variant == 1 else "general")
            y = rng.vector(n, "general" if variant == 0 else "infinitesimal")
        else:
            # proportional standard parts, the near-equality case
            t = (0.5, 1.0, 2.0)[variant - 3]
            x = rng.vector_with_appreciable(n)
            y = DQVector(tuple(DualQuaternion(t * e.std, rng.quat()) for e in x))
        total = x + y
        scale = tuple(map(sum, zip(*map(_size, x.entries + y.entries))))
        # x + y moves a magnitude by u and 3u of the scale; a norm adds up to γ_(n+4) and γ_(2n+14).
        for got, a, b in zip(norms(total)[:3], norms(x), norms(y)):
            rec.holds(le_defect(got, a + b, scale, 4 * n + 32))


def _suite_vec_norm_chain(rng, rec):
    for index in range(rec.cases):
        profile = ("general", "infinitesimal", "appreciable")[index % 3]
        v = rng.vector(None, profile)
        n1, ninf, n2, _ = norms(v)
        rec.holds(norm_chain_defect(v, norm_scales(v), ninf, n2, n1))


def _suite_vec_norm2_closed_form(rng, rec):
    for _ in range(rec.cases):
        v = rng.vector_with_appreciable()
        closed = v.norm2_closed_form()
        rec.check(*norm2_closed_form_agrees(v, norm_scales(v), v.norm2(), closed))
        bound = DualNumber(
            math.hypot(*embed_real(v.std_part())),
            math.hypot(*embed_real(v.inf_part())),
        )
        rec.holds(le_defect(closed, bound, (bound.std, bound.inf), 4 * len(v) + 5))  # γ_(4n+3), against a hypot


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

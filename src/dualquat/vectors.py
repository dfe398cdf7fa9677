"""Vectors of dual quaternions and their norms.

A vector is a nonempty, immutable tuple of dual quaternions.  Scalars act
from the left, entrywise; the inner product conjugates its left argument,
``x.inner(y) == sum(x[i].conjugate() * y[i])``.  Sums run left to right in
entry order, with no reordering or compensation, so results are reproducible.

Three norms are provided, each a dual number of the entry magnitudes
``n_i + m_i e``:

* ``norm1``   -- sum of the entry magnitudes
* ``norm_inf``-- largest entry magnitude under the total order
* ``norm2``   -- the paper's ``N + (sum(n_i m_i) / N) e``, with
  ``N = hypot(n_1, ..., n_k)``; when every entry is infinitesimal,
  ``hypot(m_1, ..., m_k)`` times the dual unit

``norm1`` and ``norm2`` reduce one list of the magnitudes, built in one pass
by ``dualquaternion._magnitudes``, the one definition of the magnitude rule.
The order compares standard parts first, so ``norm_inf`` reads every ``n_i``
and forms an ``m_i`` only for the entries whose ``n_i`` is the largest, where
alone it can break a tie; with no appreciable entry, every ``m_i`` decides.
Each method makes its own pass; ``norms`` builds one list and reduces it to
all three, which is how ``dualq`` and ``selfcheck`` take them.

``norm2_closed_form`` computes the 2-norm of a vector with an appreciable
standard part directly from the flattened real embeddings; it must agree
with ``norm2`` up to rounding and exists as an independent cross-check.

Two checks judge the norms at the vector's ``norm_scales``, which the caller
passes in: ``norm_chain_defect`` for ``norm_inf <= norm2 <= norm1`` and
``norm2_closed_form_agrees`` for the two 2-norms.  Each is the one definition
of its scale, its ``k`` and their derivation.  ``norm_checks`` runs both over
one ``norm_scales``; it is what ``dualq norms`` calls.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence

from ._common import DOT_FLOOR, LARGEST, MIN_NORMAL, UNIT_TOL, Value, agree, check_tolerance, dual_hypot, real_operand
from .dual import DualNumber, _dual_number, le_defect
from .dualquaternion import (
    DualQuaternion, _coerce, _dual_quaternion, _magnitude_scales, _magnitudes, _scaled_dual_quaternion
)
from .errors import EmptyVectorError, LengthMismatchError, NotAppreciableError
from .quaternion import Quaternion, _quaternion

__all__ = [
    "DQVector",
    "VectorUnitCheck",
    "BasisCheck",
    "embed_real",
    "basis_check",
    "norm_scales",
    "norm2_closed_form_agrees",
    "norm_chain_defect",
    "norm_checks",
    "norms",
]


def embed_real(values: Iterable[Quaternion]) -> tuple[float, ...]:
    """Flatten quaternions into one real tuple, entry-major, (w, x, y, z)."""
    flat: list[float] = []
    for q in values:
        flat.extend((q.w, q.x, q.y, q.z))
    return tuple(flat)


# The inner product in plain floats.  The kernels read the 16 components of
# each pair of entries and accumulate the 8 components of conj(a) b with the
# Hamilton product written out and the conjugation folded into its signs:
# (-p) q == -(p q) and p - (-q) == p + q hold exactly in IEEE arithmetic, so
# with the same products and the same left-to-right additions the sums round
# as the DualQuaternion operators do.  Signs of zero may differ on the way,
# but the final constructor normalizes them, and an overflow stays infinite
# or NaN through the additions that follow, so the final finite check raises
# exactly when an operator would.
#
# _inner_parts evaluates one product.  _self_parts writes out x . x with the
# floating-point products that repeat in it evaluated once, which is exact
# because x * y == y * x in IEEE arithmetic, and every sum still adds its own
# terms in the order above; in the same pass it takes each entry's magnitude
# from the dot product d that x . x has formed, by the one copy of the rule of
# _magnitudes, so unit_check reads every entry once for both of its residuals.  _gram_parts evaluates all the products
# x_i . x_j of a list of vectors: each x_i . x_i from _self_parts, whose
# magnitudes give each row's support, and every other one from _inner_parts.
# _identity_defect is the one finiteness test of these parts: it raises as
# inner() does before it measures a deviation.
# The kernels assign at most two names per statement: CPython builds and
# unpacks a tuple to assign more at once, which costs about a tenth of a kernel.
# They skip what a zero standard part cannot change: for a = p + f e and
# b = q + g e, conj(a) b = conj(p) q + (conj(f) q + conj(p) g) e, so only
# conj(f) q is added when p == 0, only conj(p) g when q == 0, and nothing when
# both are.  That is exact.  A skipped term is a product of finite components
# with an exact zero, +-0; every sum starts at +0.0 and under round-to-nearest
# never becomes -0.0, so adding +-0 changes nothing, and F + (+-0) is F but
# perhaps for the sign of a zero, which the next addition erases.  Any inf or
# NaN comes from the half that is kept.

_Parts = tuple[float, float, float, float, float, float, float, float]
_DISJOINT: _Parts = (0.0,) * 8  # every product of two vectors that share no nonzero entry, in _gram_parts


def _inner_parts(left: Sequence[DualQuaternion], right: Sequence[DualQuaternion]) -> _Parts:
    """The components of ``sum(conj(a) * b)`` over two vectors' paired entries, unchecked.

    The standard part sums conj(a.std) b.std; per entry, the infinitesimal
    part adds conj(a.inf) b.std + conj(a.std) b.inf as one term.
    """
    sw = sx = sy = sz = iw = ix = iy = iz = 0.0
    for a, b in zip(left, right):
        p, q = a.std, b.std
        aw, ax = p.w, p.x
        ay, az = p.y, p.z
        bw, bx = q.w, q.x
        by, bz = q.y, q.z
        if aw or ax or ay or az:
            g = b.inf
            gw, gx = g.w, g.x
            gy, gz = g.y, g.z
            if not (bw or bx or by or bz):
                iw += aw * gw + ax * gx + ay * gy + az * gz
                ix += aw * gx - ax * gw - ay * gz + az * gy
                iy += aw * gy + ax * gz - ay * gw - az * gx
                iz += aw * gz - ax * gy + ay * gx - az * gw
                continue
            f = a.inf
            fw, fx = f.w, f.x
            fy, fz = f.y, f.z
            sw += aw * bw + ax * bx + ay * by + az * bz
            sx += aw * bx - ax * bw - ay * bz + az * by
            sy += aw * by + ax * bz - ay * bw - az * bx
            sz += aw * bz - ax * by + ay * bx - az * bw
            iw += (fw * bw + fx * bx + fy * by + fz * bz) + (aw * gw + ax * gx + ay * gy + az * gz)
            ix += (fw * bx - fx * bw - fy * bz + fz * by) + (aw * gx - ax * gw - ay * gz + az * gy)
            iy += (fw * by + fx * bz - fy * bw - fz * bx) + (aw * gy + ax * gz - ay * gw - az * gx)
            iz += (fw * bz - fx * by + fy * bx - fz * bw) + (aw * gz - ax * gy + ay * gx - az * gw)
        elif bw or bx or by or bz:
            f = a.inf
            fw, fx = f.w, f.x
            fy, fz = f.y, f.z
            iw += fw * bw + fx * bx + fy * by + fz * bz
            ix += fw * bx - fx * bw - fy * bz + fz * by
            iy += fw * by + fx * bz - fy * bw - fz * bx
            iz += fw * bz - fx * by + fy * bx - fz * bw
    return sw, sx, sy, sz, iw, ix, iy, iz


def _self_parts(row: Sequence[DualQuaternion]) -> tuple[_Parts, list[tuple[float, float]]]:
    """The components of ``_inner_parts(row, row)``, unchecked, and the entries' ``_magnitudes``.

    The components are bit-identical to ``_inner_parts``: for each entry
    ``p + f e`` the sums ``conj(p) p`` and ``conj(f) p + conj(p) f`` repeat
    their products, and since ``x * y == y * x`` exactly, a shared product is
    evaluated once and is the same float in every sum that uses it.  The
    standard w part is a sum of squares, and the infinitesimal w part is
    ``d + d`` with ``d`` the dot product of ``f`` and ``p``.  The standard y
    and z parts share 2 distinct products and the infinitesimal x, y and z
    parts 4; their sums round, so they are evaluated.  The standard x part
    ``((t - t) - s) + s`` is exactly ``+0.0``: it is NaN only when ``t`` or
    ``s`` overflows, and then a square in the standard w part overflows too,
    so the finite check still raises on w.  An entry whose standard part is
    zero is skipped, since each of its terms is then a product with a zero,
    which is exact by the argument above _inner_parts.

    The magnitudes are the one copy of the rule of ``_magnitudes``, kept so
    that ``unit_check`` and ``basis_check`` read every entry once, and
    bit-identical to it: ``d`` has its products, ``x * y == y * x`` exactly,
    and its order of additions, so an appreciable entry's magnitude is
    ``hypot(p) + (d / hypot(p)) e`` under the rule's guard, and ``dual_hypot``
    of the four component pairs where it fails.  A zero standard part gives
    ``hypot(f) e``, and a zero entry ``(0.0, 0.0)`` with no ``hypot`` at all.
    An entry is zero as a whole exactly when its magnitude is ``(0.0, 0.0)``:
    a ``hypot`` of a nonzero part is never 0.
    """
    sw = sy = sz = iw = ix = iy = iz = 0.0
    magnitudes: list[tuple[float, float]] = []
    for a in row:
        p, f = a.std, a.inf
        aw, ax = p.w, p.x
        ay, az = p.y, p.z
        fw, fx = f.w, f.x
        fy, fz = f.y, f.z
        if not (aw or ax or ay or az):
            if fw or fx or fy or fz:
                magnitudes.append((0.0, math.hypot(fw, fx, fy, fz)))
            else:
                magnitudes.append((0.0, 0.0))
            continue
        sw += aw * aw + ax * ax + ay * ay + az * az
        u, v = aw * ay, ax * az
        sy += u + v - u - v
        u, v = aw * az, ax * ay
        sz += u - v + v - u
        d = fw * aw + fx * ax + fy * ay + fz * az
        iw += d + d
        n = math.hypot(aw, ax, ay, az)
        if (n >= 0.5 and abs(d) <= LARGEST or n >= MIN_NORMAL and DOT_FLOOR <= abs(d) <= LARGEST
                or not (f.w or f.x or f.y or f.z)):
            magnitudes.append((n, d / n))
        else:
            magnitudes.append(dual_hypot(((aw, fw), (ax, fx), (ay, fy), (az, fz))))
        t1, t2 = fw * ax, fx * aw
        t3, t4 = fy * az, fz * ay
        ix += (t1 - t2 - t3 + t4) + (t2 - t1 - t4 + t3)
        t1, t2 = fw * ay, fx * az
        t3, t4 = fy * aw, fz * ax
        iy += (t1 + t2 - t3 - t4) + (t3 + t4 - t1 - t2)
        t1, t2 = fw * az, fx * ay
        t3, t4 = fy * ax, fz * aw
        iz += (t1 - t2 + t3 - t4) + (t4 - t3 + t2 - t1)
    return (sw, 0.0, sy, sz, iw, ix, iy, iz), magnitudes


def _gram_parts(rows: Sequence[Sequence[DualQuaternion]]) -> list[list[_Parts]]:
    """The components of ``_inner_parts(rows[i], rows[j])`` for every ``i, j``, unchecked.

    Every result is bit-identical to ``_inner_parts``.  For ``i == j`` it is
    ``_self_parts`` of the row.  For ``i != j`` it is ``_inner_parts`` of the
    two rows' entries at the positions where both are nonzero, in increasing
    order.  A row's support is the positions whose magnitude from
    ``_self_parts`` is not ``(0.0, 0.0)``: only the entries that are zero as a
    whole leave it.
    """
    n = len(rows)
    gram = [[None] * n for _ in range(n)]
    supports = []
    for i, row in enumerate(rows):
        gram[i][i], magnitudes = _self_parts(row)
        supports.append({k for k, m in enumerate(magnitudes) if m != (0.0, 0.0)})
    for i in range(n - 1):
        left, mine = rows[i], supports[i]
        for j, right in enumerate(rows[i + 1:], i + 1):
            common = sorted(mine & supports[j])
            if common:
                a = [left[k] for k in common]
                b = [right[k] for k in common]
                gram[i][j] = _inner_parts(a, b)
                gram[j][i] = _inner_parts(b, a)
            else:
                gram[i][j] = gram[j][i] = _DISJOINT
    return gram


def _inner_result(parts: _Parts) -> DualQuaternion:
    sw, sx, sy, sz, iw, ix, iy, iz = parts
    return _dual_quaternion(_quaternion(sw, sx, sy, sz), _quaternion(iw, ix, iy, iz))


def _identity_defect(parts: _Parts, target: float) -> float:
    """Largest componentwise deviation of an inner product from the real ``target``.

    Rounds as ``max`` over the components of ``inner - target`` does.  A part
    that is not finite raises ``NonFiniteError`` as ``inner()`` does.
    """
    if not all(map(math.isfinite, parts)):
        _inner_result(parts)  # raises
    sw, sx, sy, sz, iw, ix, iy, iz = parts
    return max(
        abs(sw - target), abs(sx), abs(sy), abs(sz), abs(iw), abs(ix), abs(iy), abs(iz)
    )


def _same_length(x: DQVector, y: DQVector, operation: str) -> None:
    """The length rule of an operation on two vectors: ``LengthMismatchError`` naming ``operation``."""
    if len(x.entries) != len(y.entries):
        raise LengthMismatchError(f"{operation} of lengths {len(x.entries)} and {len(y.entries)}")


class DQVector(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[DualQuaternion]):
        entries = tuple(entries)
        if not entries:
            raise EmptyVectorError("a vector needs at least one entry")
        for e in entries:
            if not isinstance(e, DualQuaternion):
                raise TypeError(f"vector entries must be DualQuaternion, got {type(e).__name__}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_quaternions(cls, values: Iterable[Quaternion]) -> DQVector:
        return cls(tuple(DualQuaternion.from_quaternion(q) for q in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DualQuaternion]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> DualQuaternion:
        return self.entries[index]

    def std_part(self) -> tuple[Quaternion, ...]:
        return tuple(e.std for e in self.entries)

    def inf_part(self) -> tuple[Quaternion, ...]:
        return tuple(e.inf for e in self.entries)

    @property
    def has_appreciable_entry(self) -> bool:
        """True when the standard part of the vector is nonzero."""
        return any(e.is_appreciable for e in self.entries)

    def __add__(self, other: DQVector) -> DQVector:
        if not isinstance(other, DQVector):
            return NotImplemented
        _same_length(self, other, "cannot add vectors")
        return DQVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: DQVector) -> DQVector:
        if not isinstance(other, DQVector):
            return NotImplemented
        _same_length(self, other, "cannot subtract vectors")
        return DQVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> DQVector:
        return DQVector(tuple(-e for e in self.entries))

    def __rmul__(self, scalar) -> DQVector:
        real = real_operand(scalar)
        if real is not None:
            return DQVector(tuple(_scaled_dual_quaternion(e, real) for e in self.entries))
        scalar = _coerce(scalar)
        if scalar is None:
            return NotImplemented
        return DQVector(tuple(scalar * e for e in self.entries))

    def inner(self, other: DQVector) -> DualQuaternion:
        """Inner product with conjugation on the left argument."""
        if not isinstance(other, DQVector):
            raise TypeError("inner product needs another DQVector")
        _same_length(self, other, "inner product")
        return _inner_result(_inner_parts(self.entries, other.entries))

    # -- norms ----------------------------------------------------------

    # norm1 and norm2 reduce _magnitudes of the entries: norm1 adds the floats
    # in entry order, as the DualNumber operators would, and norm2 passes them
    # to dual_hypot, as unit_check passes those of _self_parts.  Sums that
    # start at +0.0 never produce -0.0, and a non-finite magnitude leaves a part
    # infinite or NaN, so the final DualNumber raises NonFiniteError exactly
    # when magnitude(), the same rule over one entry, would.  norm_inf and
    # norm_inf_index take _magnitudes only of the entries whose standard part
    # is the largest, in _norm_inf.  norms() takes all of them from one list.

    def norm1(self) -> DualNumber:
        return _dual_number(*_norm1_parts(_magnitudes(self.entries)))

    def norm_inf(self) -> DualNumber:
        return _norm_inf(self.entries)[1]

    def norm_inf_index(self) -> int:
        """Lowest index attaining the largest entry magnitude."""
        return _norm_inf(self.entries)[0]

    def norm2(self) -> DualNumber:
        return _dual_number(*dual_hypot(_magnitudes(self.entries)))

    def norm2_closed_form(self) -> DualNumber:
        """2-norm from the flattened embeddings, in one step.

        Equals ``|x_std| + (x_std . x_inf / |x_std|) e`` on the embedded
        real vectors.  Needs an appreciable standard part.  One pass over the
        entries flattens the standard part and forms the dot product of the
        embeddings, left to right; where the guard of the magnitude rule,
        ``_magnitudes``, does not prove the quotient within its bounds, the
        result is ``dual_hypot`` of the flattened pairs instead.
        """
        std_flat, dot = [], 0.0
        for e in self.entries:
            p, f = e.std, e.inf
            w, x = p.w, p.x
            y, z = p.y, p.z
            std_flat += (w, x, y, z)
            dot = dot + w * f.w + x * f.x + y * f.y + z * f.z
        norm = math.hypot(*std_flat)
        if norm == 0.0:
            raise NotAppreciableError(
                "closed-form 2-norm needs an appreciable standard part"
            )
        if norm >= 0.5 and abs(dot) <= LARGEST or norm >= MIN_NORMAL and DOT_FLOOR <= abs(dot) <= LARGEST:
            return DualNumber(norm, dot / norm)
        return DualNumber(*dual_hypot(list(zip(std_flat, embed_real(self.inf_part())))))

    def unit_check(self, tol: float = UNIT_TOL) -> VectorUnitCheck:
        """Test ``x.inner(x) == 1`` and, equivalently, ``norm2(x) == 1``.

        Both residuals are reported; the check passes only when both are
        within ``tol``.  One pass over the entries, ``_self_parts``, gives
        ``x.inner(x)`` and the entry magnitudes that ``norm2`` would take from
        ``_magnitudes``, so both residuals and any ``NonFiniteError`` are
        bit for bit those of ``inner`` and ``norm2``.
        """
        check_tolerance(tol)
        gram, magnitudes = _self_parts(self.entries)
        gram_residual = _identity_defect(gram, 1.0)  # raises as inner() does
        n2 = _dual_number(*dual_hypot(magnitudes))  # norm2(), and raises as it does
        norm_residual = max(abs(n2.std - 1.0), abs(n2.inf))
        return VectorUnitCheck(
            passed=gram_residual <= tol and norm_residual <= tol,
            gram_residual=gram_residual,
            norm_residual=norm_residual,
        )

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return self.unit_check(tol).passed

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries) + "]"


class VectorUnitCheck(Value):
    __slots__ = ("passed", "gram_residual", "norm_residual")

    def __init__(self, passed: bool, gram_residual: float, norm_residual: float):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "gram_residual", gram_residual)
        object.__setattr__(self, "norm_residual", norm_residual)

    def __bool__(self) -> bool:
        return self.passed


class BasisCheck(Value):
    __slots__ = ("passed", "residuals")

    def __init__(self, passed: bool, residuals: tuple[tuple[float, ...], ...]):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "residuals", residuals)  # [i][j] = |x_i . x_j - delta_ij|

    def __bool__(self) -> bool:
        return self.passed


def basis_check(vectors: Sequence[DQVector], tol: float = UNIT_TOL) -> BasisCheck:
    """Test whether ``vectors`` form an orthonormal basis.

    Needs exactly ``n`` vectors of length ``n``.  Entry ``[i][j]`` of the
    residual matrix is the largest componentwise deviation of the inner
    product ``vectors[i].inner(vectors[j])`` from the identity pattern.
    Costs O(n**2) plus one term per position where two vectors both have a
    nonzero entry: O(n**2) for a permutation basis, O(n**3) for a dense one.
    A zero standard part costs nothing: its products are skipped.
    """
    check_tolerance(tol)
    vectors = tuple(vectors)
    if not vectors:
        raise EmptyVectorError("a basis needs at least one vector")
    n = len(vectors)
    for v in vectors:
        if not isinstance(v, DQVector):
            raise TypeError(f"basis vectors must be DQVector, got {type(v).__name__}")
        if len(v) != n:
            raise LengthMismatchError(
                f"basis of {n} vectors needs every vector of length {n}, got {len(v)}"
            )
    gram = _gram_parts([v.entries for v in vectors])
    rows: list[tuple[float, ...]] = []
    passed = True
    for i, products in enumerate(gram):
        row: list[float] = []
        for j, parts in enumerate(products):
            if parts is _DISJOINT:  # i != j, and every part is 0.0
                row.append(0.0)
                continue
            residual = _identity_defect(parts, 1.0 if i == j else 0.0)
            row.append(residual)
            if residual > tol:
                passed = False
        rows.append(tuple(row))
    return BasisCheck(passed=passed, residuals=tuple(rows))


def _norm1_parts(magnitudes: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """The sums of the standard and of the infinitesimal parts, in entry order, unchecked."""
    std = inf = 0.0
    for n, m in magnitudes:
        std, inf = std + n, inf + m
    return std, inf


def _norm_inf_index(stds: list[float], tied_infs: Callable[[Sequence[int]], list[float]]) -> int:
    """The lowest index of the largest entry magnitude under the total order, from the standard parts
    ``stds`` of the entries' magnitudes.  The infinitesimal parts only break a tie: when two or more
    standard parts are the largest, ``tied_infs(tied)`` gives the infinitesimal parts of the entries at
    ``tied``, the positions of those standard parts in increasing order, and is called only then.  It
    raises only what ``tied_infs`` raises; ``max`` needs its values free of NaN.
    """
    top = max(stds)
    index = stds.index(top)
    count = stds.count(top)
    if count == 1:
        return index
    tied = range(count) if count == len(stds) else [i for i in range(index, len(stds)) if stds[i] == top]
    infs = tied_infs(tied)
    return tied[infs.index(max(infs))]


def _norm_inf(entries: Sequence[DualQuaternion]) -> tuple[int, DualNumber]:
    """``norm_inf_index`` and ``norm_inf``: the ``hypot`` of every standard part, and ``_magnitudes``
    only of the entries whose standard part is the largest.  With none appreciable, the ``hypot`` of
    every infinitesimal part decides.

    The result is the lowest index of the largest of the entries' ``_magnitudes`` and that
    magnitude, bit for bit.  It raises ``NonFiniteError`` with ``magnitude()``'s text exactly when
    the magnitude of an entry whose standard part is the largest is not finite, at the first such
    entry: a larger standard part decides the order whatever a losing entry's magnitude is.
    """
    stds = [math.hypot(e.std.w, e.std.x, e.std.y, e.std.z) for e in entries]

    def tied_infs(tied: Sequence[int]) -> list[float]:
        if stds[tied[0]] == 0.0:  # no entry is appreciable, so every entry ties; a hypot is no NaN
            return [math.hypot(e.inf.w, e.inf.x, e.inf.y, e.inf.z) for e in entries]
        return [_dual_number(*m).inf for m in _magnitudes([entries[i] for i in tied])]

    index = _norm_inf_index(stds, tied_infs)
    return index, _dual_number(*_magnitudes((entries[index],))[0])


_Scales = tuple[tuple[float, float], tuple[float, float]]


def norm_scales(vector: DQVector) -> _Scales:
    """The scales for ``close`` of ``norm1``, which bound those of all three
    norms, and of ``norm2``: the norms of the entries' scales, ``_magnitude_scales``."""
    scales = _magnitude_scales(vector.entries)
    return _norm1_parts(scales), dual_hypot(scales)


def norms(vector: DQVector) -> tuple[DualNumber, DualNumber, DualNumber, int]:
    """``vector.norm1()``, ``norm_inf()``, ``norm2()`` and ``norm_inf_index()``, bit for bit, from one
    list of entry magnitudes; each raises as its method does, in the order norm1, norm2.  ``norm_inf``
    cannot raise once ``norm1`` has not: ``norm1`` raises on any non-finite magnitude."""
    magnitudes = _magnitudes(vector.entries)
    norm1 = _dual_number(*_norm1_parts(magnitudes))
    index = _norm_inf_index([n for n, _ in magnitudes], lambda tied: [magnitudes[i][1] for i in tied])
    return norm1, _dual_number(*magnitudes[index]), _dual_number(*dual_hypot(magnitudes)), index


def norm2_closed_form_agrees(vector: DQVector, scales: _Scales, norm2: DualNumber, closed: DualNumber) -> tuple[bool, float]:
    """Whether ``vector.norm2()`` and ``vector.norm2_closed_form()`` agree at ``scales``, the vector's
    ``norm_scales``, and their largest difference.

    Against ``norm_scales``, for n entries: ``norm2()`` (``dual_hypot`` of the entry magnitudes, each
    within γ_2 and γ_7 on either path of ``_magnitudes``) is within γ_4 (a hypot of γ_2 values) and
    γ_(n+14) (a weight within γ_7, times ``m_i`` γ_15, then n − 1 additions) of the exact parts, so
    within γ_(n+4) and γ_(2n+14), and the closed form (a ``hypot``; 4n products added and divided, or
    4n weights within γ_3 times ``x_inf``, added) within γ_2 and γ_(4n+3), so the two are close at
    k = 6n + 17.
    """
    return agree(norm2, closed, scales[1], 6 * len(vector) + 17)


def norm_chain_defect(
    vector: DQVector, scales: _Scales, norm_inf: DualNumber, norm2: DualNumber, norm1: DualNumber
) -> float:
    """How much the chain ``norm_inf <= norm2 <= norm1`` of ``vector``'s norms fails by at ``scales``,
    the vector's ``norm_scales``: the larger ``le_defect`` of its two links, 0.0 when it holds.

    Against ``norm_scales``' first scale, which bounds all three, for n entries: ``norm_inf`` is
    within γ_2 and γ_7 of the exact parts on either path of ``_magnitudes``, ``norm2`` γ_(n+4)
    and γ_(2n+14), and ``norm1`` γ_(n+1) and γ_(n+6), so each link holds at k = 3n + 20.  With two or more appreciable entries the exact
    standard parts are strictly ordered, so standard parts close at k tie and decide alone: the
    infinitesimal parts are judged at an infinite scale, which ``close`` admits.  With at most one,
    the exact standard parts are equal, and a tie falls to the infinitesimal parts.
    """
    std, inf = scales[0]
    if sum(e.is_appreciable for e in vector.entries) > 1:
        inf = math.inf  # no infinitesimal parts can break a standard-part tie
    scale, k = (std, inf), 3 * len(vector) + 20
    return max(le_defect(norm_inf, norm2, scale, k), le_defect(norm2, norm1, scale, k))


def norm_checks(
    vector: DQVector, norm_inf: DualNumber, norm2: DualNumber, norm1: DualNumber, closed: DualNumber | None
) -> tuple[float, bool, float | None]:
    """``norm_chain_defect``, then ``norm2_closed_form_agrees``'s verdict and difference, over one
    ``norm_scales``: the checks of ``dualq norms``.  With ``closed`` None, for a vector with no
    appreciable entry, the closed form does not apply and gives ``True, None``."""
    scales = norm_scales(vector)
    chain = norm_chain_defect(vector, scales, norm_inf, norm2, norm1)
    if closed is None:
        return chain, True, None
    return (chain, *norm2_closed_form_agrees(vector, scales, norm2, closed))

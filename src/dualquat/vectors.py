"""Vectors of dual quaternions and their norms.

A vector is a nonempty, immutable tuple of dual quaternions.  Scalars act
from the left, entrywise; the inner product conjugates its left argument,
``x.inner(y) == sum(x[i].conjugate() * y[i])``.  Sums run left to right in
entry order, with no reordering or compensation, so results are reproducible.

Three norms are provided, each a dual number:

* ``norm1``   -- sum of the entry magnitudes
* ``norm_inf``-- largest entry magnitude under the total order
* ``norm2``   -- square root of the summed squared magnitudes; when every
  entry is infinitesimal that sum collapses to zero, and the norm instead
  equals the Euclidean norm of the infinitesimal parts times the dual unit

``norm2_closed_form`` computes the 2-norm of a vector with an appreciable
standard part directly from the flattened real embeddings; it must agree
with ``norm2`` up to rounding and exists as an independent cross-check.
"""

from __future__ import annotations

import math

from ._common import Value
from .dual import DualNumber
from .dualquaternion import DualQuaternion, _coerce, magnitude_parts
from .errors import EmptyVectorError, LengthMismatchError, NonFiniteError, NotAppreciableError
from .quaternion import Quaternion, product

__all__ = [
    "DQVector",
    "VectorUnitCheck",
    "BasisCheck",
    "embed_real",
    "basis_check",
]


def embed_real(values: Iterable[Quaternion]) -> tuple[float, ...]:
    """Flatten quaternions into one real tuple, entry-major, (w, x, y, z)."""
    flat: list[float] = []
    for q in values:
        flat.extend((q.w, q.x, q.y, q.z))
    return tuple(flat)


def _euclidean(values: Sequence[float]) -> float:
    return math.hypot(*values)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    total = 0.0
    for left, right in zip(a, b):
        total += left * right
    return total


# The inner product in plain floats.  Each entry becomes one row of its eight
# components, standard part first; a left argument's rows are conjugated.
# Summing conj(a) b over paired rows with the same products and the same
# left-to-right additions as the DualQuaternion operators rounds identically.
# Signs of zero may differ on the way, but the constructor normalizes them,
# and an overflow stays infinite or NaN through the additions that follow, so
# the final finite check raises exactly when an operator would.

_Row = tuple[float, float, float, float, float, float, float, float]


def _conjugate_rows(vector: DQVector) -> list[_Row]:
    rows = []
    for e in vector.entries:
        s, f = e.std, e.inf
        rows.append((s.w, -s.x, -s.y, -s.z, f.w, -f.x, -f.y, -f.z))
    return rows


def _rows(vector: DQVector) -> list[_Row]:
    rows = []
    for e in vector.entries:
        s, f = e.std, e.inf
        rows.append((s.w, s.x, s.y, s.z, f.w, f.x, f.y, f.z))
    return rows


def _inner_parts(left: Sequence[_Row], right: Sequence[_Row]) -> _Row:
    """The components of ``sum(conj(a) * b)``, unchecked, from conjugated and plain rows."""
    sw = sx = sy = sz = iw = ix = iy = iz = 0.0
    for (aw, ax, ay, az, fw, fx, fy, fz), (bw, bx, by, bz, gw, gx, gy, gz) in zip(left, right):
        # std part conj(a.std) b.std; inf part conj(a.inf) b.std + conj(a.std) b.inf
        pw, px, py, pz = product(aw, ax, ay, az, bw, bx, by, bz)
        qw, qx, qy, qz = product(fw, fx, fy, fz, bw, bx, by, bz)
        rw, rx, ry, rz = product(aw, ax, ay, az, gw, gx, gy, gz)
        sw += pw
        sx += px
        sy += py
        sz += pz
        iw += qw + rw
        ix += qx + rx
        iy += qy + ry
        iz += qz + rz
    return sw, sx, sy, sz, iw, ix, iy, iz


def _dual_quaternion(parts: _Row) -> DualQuaternion:
    sw, sx, sy, sz, iw, ix, iy, iz = parts
    return DualQuaternion(Quaternion(sw, sx, sy, sz), Quaternion(iw, ix, iy, iz))


def _identity_defect(parts: _Row, target: float) -> float:
    """Largest componentwise deviation of an inner product from the real ``target``.

    Rounds as ``max`` over the components of ``inner - target`` does.
    """
    sw, sx, sy, sz, iw, ix, iy, iz = parts
    return max(
        abs(sw - target), abs(sx), abs(sy), abs(sz), abs(iw), abs(ix), abs(iy), abs(iz)
    )


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
        if len(self) != len(other):
            raise LengthMismatchError(
                f"cannot add vectors of lengths {len(self)} and {len(other)}"
            )
        return DQVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: DQVector) -> DQVector:
        if not isinstance(other, DQVector):
            return NotImplemented
        if len(self) != len(other):
            raise LengthMismatchError(
                f"cannot subtract vectors of lengths {len(self)} and {len(other)}"
            )
        return DQVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> DQVector:
        return DQVector(tuple(-e for e in self.entries))

    def __rmul__(self, scalar) -> DQVector:
        scalar = _coerce(scalar)
        if scalar is None:
            return NotImplemented
        return DQVector(tuple(scalar * e for e in self.entries))

    def inner(self, other: DQVector) -> DualQuaternion:
        """Inner product with conjugation on the left argument."""
        if not isinstance(other, DQVector):
            raise TypeError("inner product needs another DQVector")
        if len(self) != len(other):
            raise LengthMismatchError(
                f"inner product of lengths {len(self)} and {len(other)}"
            )
        return _dual_quaternion(_inner_parts(_conjugate_rows(self), _rows(other)))

    # -- norms ----------------------------------------------------------

    # The norms evaluate magnitude_parts on the entries and add its floats in
    # entry order, as the DualNumber operators on the magnitudes would: sums
    # that start at +0.0 never produce -0.0, which the constructor is the only
    # one to normalize, and a non-finite magnitude stays infinite or NaN
    # through the additions, so the final DualNumber raises NonFiniteError
    # exactly when an operator would.

    def norm1(self) -> DualNumber:
        std = inf = 0.0
        for e in self.entries:
            n, m = magnitude_parts(e.std, e.inf)
            std += n
            inf += m
        return DualNumber(std, inf)

    def norm_inf(self) -> DualNumber:
        return self.entries[self.norm_inf_index()].magnitude()

    def norm_inf_index(self) -> int:
        """Lowest index attaining the largest entry magnitude."""
        best_index, best = 0, (-1.0, 0.0)  # below every magnitude
        for index, e in enumerate(self.entries):
            key = magnitude_parts(e.std, e.inf)
            if not (math.isfinite(key[0]) and math.isfinite(key[1])):
                DualNumber(*key)  # raises NonFiniteError, as magnitude() does
            if key > best:
                best_index, best = index, key
        return best_index

    def norm2(self) -> DualNumber:
        if not self.has_appreciable_entry:
            return DualNumber(0.0, _euclidean(embed_real(self.inf_part())))
        std = inf = 0.0
        for e in self.entries:
            n, m = magnitude_parts(e.std, e.inf)
            # The squared magnitude as DualNumber.__pow__ computes it.  For an
            # infinitesimal entry it adds exactly zero, or a NaN when the
            # magnitude itself overflowed.
            try:
                std += n**2
            except OverflowError:
                raise NonFiniteError(f"a power of {DualNumber(n, m)} overflows") from None
            inf += 2.0 * n * m
        return DualNumber(std, inf).sqrt()

    def norm2_closed_form(self) -> DualNumber:
        """2-norm from the flattened embeddings, in one step.

        Equals ``|x_std| + (x_std . x_inf / |x_std|) e`` on the embedded
        real vectors.  Needs an appreciable standard part.
        """
        if not self.has_appreciable_entry:
            raise NotAppreciableError(
                "closed-form 2-norm needs an appreciable standard part"
            )
        std_flat = embed_real(self.std_part())
        inf_flat = embed_real(self.inf_part())
        std_norm = _euclidean(std_flat)
        return DualNumber(std_norm, _dot(std_flat, inf_flat) / std_norm)

    def unit_check(self, tol: float = 1e-9) -> VectorUnitCheck:
        """Test ``x.inner(x) == 1`` and, equivalently, ``norm2(x) == 1``.

        Both residuals are reported; the check passes only when both are
        within ``tol``.
        """
        if tol < 0.0:
            raise ValueError("tolerance must be nonnegative")
        gram = self.inner(self)
        gram_residual = _identity_defect(gram.std.components() + gram.inf.components(), 1.0)
        n2 = self.norm2()
        norm_residual = max(abs(n2.std - 1.0), abs(n2.inf))
        return VectorUnitCheck(
            passed=gram_residual <= tol and norm_residual <= tol,
            gram_residual=gram_residual,
            norm_residual=norm_residual,
        )

    def is_unit(self, tol: float = 1e-9) -> bool:
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


def basis_check(vectors: Sequence[DQVector], tol: float = 1e-9) -> BasisCheck:
    """Test whether ``vectors`` form an orthonormal basis.

    Needs exactly ``n`` vectors of length ``n``.  Entry ``[i][j]`` of the
    residual matrix is the largest componentwise deviation of the inner
    product ``vectors[i].inner(vectors[j])`` from the identity pattern.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    vectors = tuple(vectors)
    if not vectors:
        raise EmptyVectorError("a basis needs at least one vector")
    n = len(vectors)
    for v in vectors:
        if len(v) != n:
            raise LengthMismatchError(
                f"basis of {n} vectors needs every vector of length {n}, got {len(v)}"
            )
    left = [_conjugate_rows(v) for v in vectors]
    right = [_rows(v) for v in vectors]
    rows: list[tuple[float, ...]] = []
    passed = True
    for i in range(n):
        row: list[float] = []
        for j in range(n):
            parts = _inner_parts(left[i], right[j])
            if not all(map(math.isfinite, parts)):
                _dual_quaternion(parts)  # raises NonFiniteError as inner() does
            residual = _identity_defect(parts, 1.0 if i == j else 0.0)
            row.append(residual)
            if residual > tol:
                passed = False
        rows.append(tuple(row))
    return BasisCheck(passed=passed, residuals=tuple(rows))

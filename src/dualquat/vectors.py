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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dual import DualNumber
from .dualquaternion import DualQuaternion, _coerce
from .errors import EmptyVectorError, LengthMismatchError, NotAppreciableError
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


def _max_abs_component(value: DualQuaternion) -> float:
    return max(abs(c) for part in (value.std, value.inf) for c in part.components())


@dataclass(frozen=True, slots=True)
class DQVector:
    entries: tuple[DualQuaternion, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
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
        # Sum a.conjugate() * b over the entries in plain floats: the same
        # products and the same left-to-right additions as the DualQuaternion
        # operators, so the result rounds identically.  Signs of zero may
        # differ on the way, but the constructor normalizes them, and an
        # overflow stays infinite or NaN through the additions that follow,
        # so the final finite check raises exactly when an operator would.
        sw = sx = sy = sz = iw = ix = iy = iz = 0.0
        for a, b in zip(self.entries, other.entries):
            a_std, a_inf, b_std, b_inf = a.std, a.inf, b.std, b.inf
            # std part conj(a.std) b.std; inf part conj(a.inf) b.std + conj(a.std) b.inf
            pw, px, py, pz = product(
                a_std.w, -a_std.x, -a_std.y, -a_std.z, b_std.w, b_std.x, b_std.y, b_std.z
            )
            qw, qx, qy, qz = product(
                a_inf.w, -a_inf.x, -a_inf.y, -a_inf.z, b_std.w, b_std.x, b_std.y, b_std.z
            )
            rw, rx, ry, rz = product(
                a_std.w, -a_std.x, -a_std.y, -a_std.z, b_inf.w, b_inf.x, b_inf.y, b_inf.z
            )
            sw += pw
            sx += px
            sy += py
            sz += pz
            iw += qw + rw
            ix += qx + rx
            iy += qy + ry
            iz += qz + rz
        return DualQuaternion(Quaternion(sw, sx, sy, sz), Quaternion(iw, ix, iy, iz))

    # -- norms ----------------------------------------------------------

    def norm1(self) -> DualNumber:
        total = DualNumber()
        for e in self.entries:
            total = total + e.magnitude()
        return total

    def norm_inf(self) -> DualNumber:
        return self.entries[self.norm_inf_index()].magnitude()

    def norm_inf_index(self) -> int:
        """Lowest index attaining the largest entry magnitude."""
        best_index = 0
        best = self.entries[0].magnitude()
        for index, e in enumerate(self.entries[1:], start=1):
            m = e.magnitude()
            if m > best:
                best_index, best = index, m
        return best_index

    def norm2(self) -> DualNumber:
        if self.has_appreciable_entry:
            total = DualNumber()
            for e in self.entries:
                # The squared magnitude of an infinitesimal entry is exactly
                # zero, so only appreciable entries feed the radicand.
                total = total + e.magnitude() ** 2
            return total.sqrt()
        return DualNumber(0.0, _euclidean(embed_real(self.inf_part())))

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
        gram_defect = self.inner(self) - 1.0
        gram_residual = _max_abs_component(gram_defect)
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


@dataclass(frozen=True)
class VectorUnitCheck:
    passed: bool
    gram_residual: float
    norm_residual: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class BasisCheck:
    passed: bool
    residuals: tuple[tuple[float, ...], ...]  # [i][j] = |x_i . x_j - delta_ij|

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
    rows: list[tuple[float, ...]] = []
    passed = True
    for i in range(n):
        row: list[float] = []
        for j in range(n):
            target = 1.0 if i == j else 0.0
            defect = vectors[i].inner(vectors[j]) - target
            residual = _max_abs_component(defect)
            row.append(residual)
            if residual > tol:
                passed = False
        rows.append(tuple(row))
    return BasisCheck(passed=passed, residuals=tuple(rows))

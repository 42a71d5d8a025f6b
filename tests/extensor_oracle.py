"""Coordinate exterior algebra with join and meet: a test oracle.

An extensor of grade k in ambient dimension d is stored as a map from sorted
k-tuples of basis indices (1-based) to coefficients; the coefficient carries
the sign of sorting.  Coefficients are generic: exact rationals for numeric
work, Polynomials for symbolic brackets — the same join/meet code covers
both, since only ring operations are used.

join is the wedge product.  meet is its dual: on basis extensors e_A, e_B it
sums over splits A = A1 ∪ A2 with |A1| = d - grade(B), keeping the terms
where A1 and B partition the full basis, with the shuffle sign of the split
and the sign of the permutation sorting A1 followed by B.  Nonzero meets of
extensors whose spans cover the whole space represent the intersection of
the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from pavingideals.brackets import DimensionMismatch, perm_sign_of_merge
from pavingideals.poly import Polynomial
from pavingideals.variables import entry_var


def _is_zero_coeff(c) -> bool:
    if isinstance(c, Polynomial):
        return c.is_zero()
    return c == 0


@dataclass(frozen=True)
class Extensor:
    """Homogeneous element of the exterior algebra over C^dim."""

    dim: int
    grade: int
    coeffs: Mapping[tuple[int, ...], object]

    def __post_init__(self):
        if not 0 <= self.grade <= self.dim:
            raise DimensionMismatch(f"grade {self.grade} outside 0..{self.dim}")
        for key in self.coeffs:
            if len(key) != self.grade or list(key) != sorted(set(key)):
                raise ValueError(f"bad basis key {key} for grade {self.grade}")

    @staticmethod
    def zero(dim: int, grade: int = 0) -> "Extensor":
        return Extensor(dim, grade, {})

    @staticmethod
    def scalar(dim: int, value) -> "Extensor":
        return Extensor(dim, 0, {(): value} if not _is_zero_coeff(value) else {})

    @staticmethod
    def from_vector(coords: Sequence, dim: int | None = None) -> "Extensor":
        dim = len(coords) if dim is None else dim
        if len(coords) != dim:
            raise DimensionMismatch(f"vector of length {len(coords)} in dimension {dim}")
        coeffs = {}
        for i, c in enumerate(coords, start=1):
            if not _is_zero_coeff(c):
                coeffs[(i,)] = c
        return Extensor(dim, 1, coeffs)

    @staticmethod
    def basis_vector(dim: int, index: int) -> "Extensor":
        return Extensor(dim, 1, {(index,): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Extensor") -> "Extensor":
        if self.dim != other.dim or (self.coeffs and other.coeffs and self.grade != other.grade):
            raise DimensionMismatch("adding extensors of different shape")
        grade = self.grade if self.coeffs else other.grade
        coeffs = dict(self.coeffs)
        for key, val in other.coeffs.items():
            new = coeffs.get(key, 0) + val
            if _is_zero_coeff(new):
                coeffs.pop(key, None)
            else:
                coeffs[key] = new
        return Extensor(self.dim, grade, coeffs)

    def __neg__(self) -> "Extensor":
        return Extensor(self.dim, self.grade, {k: -v for k, v in self.coeffs.items()})

    def scale(self, value) -> "Extensor":
        if _is_zero_coeff(value):
            return Extensor.zero(self.dim, self.grade)
        return Extensor(self.dim, self.grade, {k: v * value for k, v in self.coeffs.items()})


def join(v: Extensor, w: Extensor) -> Extensor:
    """Wedge product; grade adds, zero above the ambient dimension."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"join in dimensions {v.dim} and {w.dim}")
    dim = v.dim
    grade = v.grade + w.grade
    if grade > dim:
        return Extensor.zero(dim, dim)
    coeffs: dict[tuple[int, ...], object] = {}
    for a, ca in v.coeffs.items():
        for b, cb in w.coeffs.items():
            sign = perm_sign_of_merge(a + b)
            if sign == 0:
                continue
            key = tuple(sorted(a + b))
            add = ca * cb if sign == 1 else -(ca * cb)
            new = coeffs.get(key, 0) + add
            if _is_zero_coeff(new):
                coeffs.pop(key, None)
            else:
                coeffs[key] = new
    return Extensor(dim, grade, coeffs)


def meet(v: Extensor, w: Extensor) -> Extensor:
    """Shuffle-sum dual of the join; zero when the grades sum below dim."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"meet in dimensions {v.dim} and {w.dim}")
    dim = v.dim
    k, j = v.grade, w.grade
    if k + j < dim:
        return Extensor.zero(dim, 0)
    grade = k + j - dim
    head = dim - j
    full = tuple(range(1, dim + 1))
    coeffs: dict[tuple[int, ...], object] = {}
    for a, ca in v.coeffs.items():
        for positions in combinations(range(k), head):
            a1 = tuple(a[i] for i in positions)
            rest = tuple(a[i] for i in range(k) if i not in positions)
            shuffle_sign = perm_sign_of_merge(
                tuple(positions) + tuple(i for i in range(k) if i not in positions)
            )
            for b, cb in w.coeffs.items():
                if tuple(sorted(a1 + b)) != full:
                    continue
                bracket_sign = perm_sign_of_merge(a1 + b)
                if bracket_sign == 0:
                    continue
                sign = shuffle_sign * bracket_sign
                add = ca * cb if sign == 1 else -(ca * cb)
                new = coeffs.get(rest, 0) + add
                if _is_zero_coeff(new):
                    coeffs.pop(rest, None)
                else:
                    coeffs[rest] = new
    return Extensor(dim, grade, coeffs)


def extensor_from_vectors(vectors: Sequence[Sequence], dim: int | None = None) -> Extensor:
    """Iterated join of rank-1 extensors; zero iff the vectors are dependent."""
    if not vectors:
        raise ValueError("need at least one vector")
    dim = len(vectors[0]) if dim is None else dim
    out = Extensor.scalar(dim, 1)
    for coords in vectors:
        out = join(out, Extensor.from_vector(coords, dim))
    return out


def top_coefficient(v: Extensor):
    """Coefficient of the full-basis key of a top-grade extensor.

    For the join of d symbolic columns this is exactly the bracket
    (determinant) of those columns; keeping the extraction here keeps the
    sign convention in one place.
    """
    if v.grade != v.dim:
        raise DimensionMismatch(f"grade {v.grade} extensor is not top grade in dim {v.dim}")
    full = tuple(range(1, v.dim + 1))
    value = v.coeffs.get(full, 0)
    return value


def point_extensor(point: int, dim: int) -> Extensor:
    """Rank-1 extensor with symbolic coordinates x[r,point]."""
    coords = [Polynomial.variable(entry_var(r, point)) for r in range(1, dim + 1)]
    return Extensor.from_vector(coords, dim)

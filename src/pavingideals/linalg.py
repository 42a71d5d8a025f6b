"""Exact linear algebra over the rationals.

Determinants use Bareiss' fraction-free elimination (exact division at each
step, so integer matrices stay integer throughout).  Rank, kernel and solving
go through a plain reduced row echelon form with Fraction arithmetic; the
matrices in this package are small, so clarity wins over fraction-free
bookkeeping there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import Scalar, normalize_scalar


class NonSquare(ValueError):
    pass


@dataclass(frozen=True)
class ScalarMatrix:
    """Immutable rectangular matrix of exact rationals."""

    rows: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Scalar]]) -> "ScalarMatrix":
        mat = tuple(tuple(normalize_scalar(x) for x in row) for row in rows)
        if mat:
            width = len(mat[0])
            if any(len(row) != width for row in mat):
                raise ValueError("ragged rows")
        return ScalarMatrix(mat)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def determinant(self) -> Scalar:
        if self.n_rows != self.n_cols:
            raise NonSquare(f"{self.n_rows}x{self.n_cols} matrix has no determinant")
        return bareiss_determinant([list(row) for row in self.rows])

    def rank(self) -> int:
        _, pivots = rref([list(row) for row in self.rows])
        return len(pivots)

    def kernel_basis(self) -> list[tuple[Scalar, ...]]:
        return kernel_basis([list(row) for row in self.rows], self.n_cols)


def bareiss_determinant(m: list[list[Scalar]]) -> Scalar:
    """Fraction-free elimination; mutates its argument."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev: Scalar = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pivot - m[i][k] * m[k][j]
                # Exact in Z by Sylvester's identity; Fractions divide exactly too.
                m[i][j] = num // prev if isinstance(num, int) and isinstance(prev, int) else num / prev
            m[i][k] = 0
        prev = pivot
    return normalize_scalar(sign * m[n - 1][n - 1])


def rref(m: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    rows = [[Fraction(x) for x in row] for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def matrix_rank(rows: Iterable[Sequence[Scalar]]) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    return len(rref(rows)[1])


def kernel_basis(m: list[list[Scalar]], n_cols: int) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel, one vector per free column, in column order."""
    if not m:
        return [tuple(1 if i == j else 0 for i in range(n_cols)) for j in range(n_cols)]
    reduced, pivots = rref(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec: list[Scalar] = [0] * n_cols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = normalize_scalar(-reduced[r][f])
        basis.append(tuple(vec))
    return basis


def solve_particular(m: list[list[Scalar]], b: Sequence[Scalar]) -> list[Scalar] | None:
    """One exact solution of m x = b with free variables set to zero."""
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    n_cols = len(m[0]) if m else 0
    reduced, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x: list[Scalar] = [0] * n_cols
    for r, c in enumerate(pivots):
        x[c] = normalize_scalar(reduced[r][n_cols])
    return x


def same_row_space(a: Iterable[Sequence[Scalar]], b: Iterable[Sequence[Scalar]]) -> bool:
    a = [list(r) for r in a]
    b = [list(r) for r in b]
    ra = matrix_rank(a)
    rb = matrix_rank(b)
    return ra == rb and matrix_rank(a + b) == ra

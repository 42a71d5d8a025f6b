"""Matrices of polynomials and exact symbolic determinants.

Symbolic determinants expand by minors along the sparsest line, with
memoization keyed on (row set, column set) so the many overlapping minors
of one matrix share work; minors of size up to ``MEMO_LIMIT`` land in the
cache.  1x1 and 2x2 blocks are expanded directly.

A MinorEngine is per-matrix state; the module-level helpers build a fresh
engine per call, to keep pure-function semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import NonSquare
from .poly import Polynomial

MEMO_LIMIT = 8


@dataclass(frozen=True)
class PolyMatrix:
    """Dense rectangular matrix with labelled axes.

    Entries are Polynomials: coordinate ones, or BracketPolynomials for
    label-level bracket matrices, whose minors then stay in bracket form.
    """

    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("ragged or mislabelled columns")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Polynomial]], row_labels=None, col_labels=None) -> "PolyMatrix":
        entries = tuple(tuple(row) for row in rows)
        n_rows = len(entries)
        n_cols = len(entries[0]) if entries else 0
        if row_labels is None:
            row_labels = tuple(range(n_rows))
        if col_labels is None:
            col_labels = tuple(range(n_cols))
        return PolyMatrix(tuple(row_labels), tuple(col_labels), entries)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]


class MinorEngine:
    """Memoized minor expansion for one PolyMatrix."""

    def __init__(self, matrix: PolyMatrix):
        self.matrix = matrix
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}
        self._zero = [
            [entry.is_zero() for entry in row] for row in matrix.entries
        ]
        self._ring = Polynomial
        for row in matrix.entries:
            if row:
                self._ring = type(row[0])
                break

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise NonSquare(f"minor on {len(rows)} rows and {len(cols)} columns")
        return self._minor(rows, cols)

    def determinant(self) -> Polynomial:
        if self.matrix.n_rows != self.matrix.n_cols:
            raise NonSquare(
                f"{self.matrix.n_rows}x{self.matrix.n_cols} matrix has no determinant"
            )
        return self._minor(tuple(range(self.matrix.n_rows)), tuple(range(self.matrix.n_cols)))

    # -- internals ------------------------------------------------------

    def _minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        k = len(rows)
        if k == 0:
            return self._ring.one()
        ent = self.matrix.entries
        if k == 1:
            return ent[rows[0]][cols[0]]
        cached = self._cache.get((rows, cols)) if k <= MEMO_LIMIT else None
        if cached is not None:
            return cached
        if k == 2:
            a, b = ent[rows[0]][cols[0]], ent[rows[0]][cols[1]]
            c, d = ent[rows[1]][cols[0]], ent[rows[1]][cols[1]]
            result = a * d - b * c
        else:
            result = self._expand(rows, cols)
        if k <= MEMO_LIMIT:
            self._cache[(rows, cols)] = result
        return result

    def _expand(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        zero = self._zero
        # Pick the row or column with the fewest structural nonzeros.
        best_axis, best_idx, best_count = 0, 0, len(cols) + 1
        for i, r in enumerate(rows):
            count = sum(1 for c in cols if not zero[r][c])
            if count < best_count:
                best_axis, best_idx, best_count = 0, i, count
        for j, c in enumerate(cols):
            count = sum(1 for r in rows if not zero[r][c])
            if count < best_count:
                best_axis, best_idx, best_count = 1, j, count
        if best_count == 0:
            return self._ring.zero()
        ent = self.matrix.entries
        total = self._ring.zero()
        if best_axis == 0:
            r = rows[best_idx]
            sub_rows = rows[:best_idx] + rows[best_idx + 1 :]
            for j, c in enumerate(cols):
                if zero[r][c]:
                    continue
                sub = self._minor(sub_rows, cols[:j] + cols[j + 1 :])
                term = ent[r][c] * sub
                total = total + (term if (best_idx + j) % 2 == 0 else -term)
        else:
            c = cols[best_idx]
            sub_cols = cols[:best_idx] + cols[best_idx + 1 :]
            for i, r in enumerate(rows):
                if zero[r][c]:
                    continue
                sub = self._minor(rows[:i] + rows[i + 1 :], sub_cols)
                term = ent[r][c] * sub
                total = total + (term if (i + best_idx) % 2 == 0 else -term)
        return total


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact symbolic determinant of a square PolyMatrix."""
    return MinorEngine(matrix).determinant()

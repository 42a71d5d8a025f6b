"""Exact symbolic minors of a matrix given as a list of rows of polynomials.

Entries are Polynomials: coordinate ones, or BracketPolynomials, whose
minors then stay in bracket form.  Minors expand along the sparsest line,
with memoization keyed on (row set, column set) so the many overlapping
minors of one matrix share work; minors of size up to ``MEMO_LIMIT`` land
in the cache.  1x1 and 2x2 blocks are expanded directly.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import NonSquare
from .poly import Polynomial

MEMO_LIMIT = 8


class MinorEngine:
    """Memoized minor expansion for one matrix, a sequence of equal-length rows."""

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        self.rows = rows
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}
        self._zero = [[entry.is_zero() for entry in row] for row in rows]
        self._ring = next((type(row[0]) for row in rows if row), Polynomial)

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise NonSquare(f"minor on {len(rows)} rows and {len(cols)} columns")
        return self._minor(rows, cols)

    def determinant(self) -> Polynomial:
        n_rows = len(self.rows)
        n_cols = len(self.rows[0]) if self.rows else 0
        if n_rows != n_cols:
            raise NonSquare(f"{n_rows}x{n_cols} matrix has no determinant")
        return self._minor(tuple(range(n_rows)), tuple(range(n_cols)))

    # -- internals ------------------------------------------------------

    def _minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        k = len(rows)
        if k == 0:
            return self._ring.one()
        ent = self.rows
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
        ent = self.rows
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

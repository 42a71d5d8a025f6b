"""Exact symbolic minors of a matrix given as a list of rows of polynomials.

Entries are Polynomials: coordinate ones, or BracketPolynomials, whose
minors then stay in bracket form.  Minors expand along the sparsest line,
with memoization keyed on (row set, column set) so the many overlapping
minors of one matrix share work; minors of size up to ``MEMO_LIMIT`` land
in the cache.  2x2 blocks are expanded directly.

The expansion runs on the entries' packed terms with the ring's one
product (``poly._add_product``), so a monomial product is one int addition.
A term of a k-minor multiplies k entries, so no exponent of a minor exceeds
the largest minor size times the largest exponent in any entry.  Entries
that already share one ring holding that bound are taken as they are;
otherwise the engine repacks them into their joined ring.  Every minor is a
polynomial of that ring, and its text form is written straight from the
packed keys.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import NonSquare
from .poly import Packed, Polynomial, _add_product, joined_ring

MEMO_LIMIT = 8


class MinorEngine:
    """Memoized minor expansion for one matrix, a sequence of equal-length
    rows, over one ring that holds every minor taken."""

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        self.rows = rows
        cls = next((type(row[0]) for row in rows if row), Polynomial)
        entries = [entry for row in rows for entry in row]
        size = min(len(rows), len(rows[0]) if rows else 0)
        bound = size * max((entry._top() for entry in entries), default=0)
        ring = self._ring = joined_ring([entry._ring for entry in entries] or [cls.zero()._ring], bound)
        self._entries: list[list[Packed]] = [[ring.repack(entry) for entry in row] for row in rows]
        self._nonzero = [list(map(bool, row)) for row in self._entries]
        self._nonzero_cols = [list(col) for col in zip(*self._nonzero)]
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Packed] = {}

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        """Determinant of the submatrix on these rows and columns, a polynomial
        of the engine's ring.  Rows and columns are taken in the order given:
        they need not ascend, and a permutation of either flips the sign by
        its parity.  The memo is keyed on the order given too."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise NonSquare(f"minor on {len(rows)} rows and {len(cols)} columns")
        return self._ring.polynomial(self._minor(rows, cols))

    def determinant(self) -> Polynomial:
        n_rows = len(self.rows)
        n_cols = len(self.rows[0]) if self.rows else 0
        if n_rows != n_cols:
            raise NonSquare(f"{n_rows}x{n_cols} matrix has no determinant")
        return self._ring.polynomial(self._minor(tuple(range(n_rows)), tuple(range(n_cols))))

    # -- internals ------------------------------------------------------

    def _minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Packed:
        """The minor on packed monomials; the result may be shared, never mutate it."""
        k = len(rows)
        if k == 0:
            return {0: 1}
        if k == 1:
            return self._entries[rows[0]][cols[0]]
        cached = self._cache.get((rows, cols))
        if cached is not None:
            return cached
        total: Packed = {}
        if k == 2:
            top, bottom = self._entries[rows[0]], self._entries[rows[1]]
            _add_product(total, top[cols[0]], bottom[cols[1]], 1)
            _add_product(total, top[cols[1]], bottom[cols[0]], -1)
        else:
            self._expand(rows, cols, total)
        if k <= MEMO_LIMIT:
            self._cache[(rows, cols)] = total
        return total

    def _expand(self, rows: tuple[int, ...], cols: tuple[int, ...], total: Packed) -> None:
        nonzero = self._nonzero
        # Pick the row or column with the fewest structural nonzeros.
        best_axis, best_idx, best_count = 0, 0, len(cols) + 1
        for i, r in enumerate(rows):
            count = sum(map(nonzero[r].__getitem__, cols))
            if count < best_count:
                best_axis, best_idx, best_count = 0, i, count
        for j, c in enumerate(cols):
            count = sum(map(self._nonzero_cols[c].__getitem__, rows))
            if count < best_count:
                best_axis, best_idx, best_count = 1, j, count
        if best_count == 0:
            return
        ent = self._entries
        if best_axis == 0:
            r = rows[best_idx]
            sub_rows = rows[:best_idx] + rows[best_idx + 1 :]
            for j, c in enumerate(cols):
                if nonzero[r][c]:
                    sub = self._minor(sub_rows, cols[:j] + cols[j + 1 :])
                    _add_product(total, ent[r][c], sub, -1 if (best_idx + j) % 2 else 1)
        else:
            c = cols[best_idx]
            sub_cols = cols[:best_idx] + cols[best_idx + 1 :]
            for i, r in enumerate(rows):
                if nonzero[r][c]:
                    sub = self._minor(rows[:i] + rows[i + 1 :], sub_cols)
                    _add_product(total, ent[r][c], sub, -1 if (i + best_idx) % 2 else 1)

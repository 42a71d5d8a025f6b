"""Exact symbolic minors of a matrix given as a list of rows of polynomials.

Entries are Polynomials: coordinate ones, or BracketPolynomials, whose
minors then stay in bracket form.  Minors expand along the sparsest line,
with memoization keyed on (row set, column set) so the many overlapping
minors of one matrix share work; minors of size up to ``MEMO_LIMIT`` land
in the cache.  2x2 blocks are expanded directly.

The expansion runs on packed exponent vectors (Monagan & Pearce, CASC 2007):
each entry becomes a dict from packed monomial to coefficient over the
matrix's atoms (variables, or brackets), and a monomial product is one int
addition.  A term of a k-minor multiplies k entries, so no exponent of a
minor exceeds the largest minor size times the largest exponent in any
entry; each atom's bit field holds that bound, so no field ever carries.
A minor is handed out packed: its terms unpack only on first use, and its
text form is written straight from the packed keys, in descending order.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .linalg import NonSquare
from .poly import ExponentPacking, Polynomial
from .scalars import Scalar

MEMO_LIMIT = 8

Packed = dict[int, Scalar]


def _add_product(total: Packed, a: Packed, b: Packed, sign: int) -> None:
    """total += sign * a * b, in place."""
    if len(a) < len(b):
        a, b = b, a
    get = total.get
    for mb, cb in b.items():
        if sign < 0:
            cb = -cb
        for ma, ca in a.items():
            mono = ma + mb
            new = get(mono, 0) + ca * cb
            if new:
                total[mono] = new
            else:
                del total[mono]


class MinorEngine:
    """Memoized minor expansion for one matrix, a sequence of equal-length rows,
    over its own packing or a given one that holds every minor taken."""

    def __init__(self, rows: Sequence[Sequence[Polynomial]], packing: ExponentPacking | None = None):
        self.rows = rows
        ring = self._ring = next((type(row[0]) for row in rows if row), Polynomial)
        terms = [[entry.terms for entry in row] for row in rows]
        split = [[list(map(ring._exponents, t)) for t in row] for row in terms]
        if packing is None:
            pairs = set().union(*chain.from_iterable(chain.from_iterable(split)))
            size = min(len(rows), len(rows[0]) if rows else 0)
            packing = ExponentPacking(ring, pairs, size * max((e for _, e in pairs), default=0))
        self._packing = packing
        pack = packing.pack
        self._entries: list[list[Packed]] = [
            [dict(zip(map(pack, s), t.values())) for s, t in zip(srow, trow)]
            for srow, trow in zip(split, terms)
        ]
        self._nonzero = [list(map(bool, row)) for row in self._entries]
        self._nonzero_cols = [list(col) for col in zip(*self._nonzero)]
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Packed] = {}

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        """Determinant of the submatrix on these rows and columns, handed out packed."""
        return self._ring._from_packed(self._packing, self.packed_minor(rows, cols))

    def packed_minor(self, rows: Sequence[int], cols: Sequence[int]) -> Packed:
        """``minor`` on packed monomials; the result may be shared, never mutate
        it.  Rows and columns are taken in the order given: they need not
        ascend, and a permutation of either flips the sign by its parity.
        The memo is keyed on the order given too."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise NonSquare(f"minor on {len(rows)} rows and {len(cols)} columns")
        return self._minor(rows, cols)

    def determinant(self) -> Polynomial:
        n_rows = len(self.rows)
        n_cols = len(self.rows[0]) if self.rows else 0
        if n_rows != n_cols:
            raise NonSquare(f"{n_rows}x{n_cols} matrix has no determinant")
        return self._ring._from_packed(self._packing, self._minor(tuple(range(n_rows)), tuple(range(n_cols))))

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

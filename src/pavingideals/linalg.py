"""Exact linear algebra over the rationals.

One elimination routine, ``echelon``, does fraction-free Gaussian elimination
(Bareiss, Math. Comp. 22, 1968): every update divides exactly by the
previous pivot, so integer matrices stay integer throughout and Fraction
matrices divide exactly.  Rank, kernel and solving read that echelon form;
so do determinants beyond 3x3, while smaller ones (every bracket and
certification minor of a rank-3 matroid) are expanded by cofactors
directly.  Matrices are plain lists (or tuples) of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import floordiv, truediv
from typing import Iterable, Iterator, Sequence

from .scalars import Scalar, normalize_scalar

Rows = Iterable[Sequence[Scalar]]


class NonSquare(ValueError):
    pass


def echelon(rows: Rows) -> tuple[list[list[Scalar]], list[int], int]:
    """Fraction-free row echelon form: (rows, pivot columns, swap sign).

    Row r of the result has its pivot in column ``pivot_columns[r]`` and
    zeros to the left of it; after the last pivot row all rows are zero.
    Zero columns are skipped.  The sign is (-1) ** (number of row swaps), so
    a square matrix has determinant ``sign * rows[-1][-1]`` (0 below full
    rank, where the last row is zero).

    A Bareiss step multiplies a row with 0 in the pivot column by
    pivot / prev and nothing else, so such a row is left as it is: its
    Bareiss entries are its stored ones times prev / ``since`` (the prev of
    its last update), and it is rescaled only when a step next needs it.
    Sparse matrices, such as liftability matrices, skip most row updates.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    # An integer matrix stays integer and divides by //; any other divides
    # by Fraction pivots, so no update is an int / int (a float).
    integral = all(type(x) is int for row in m for x in row)
    div = floordiv if integral else truediv
    prev: Scalar = 1 if integral else Fraction(1)
    since = [prev] * n_rows
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        found = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            since[r], since[found] = since[found], since[r]
            sign = -sign
        top = m[r]
        if since[r] != prev:
            top[c:] = [div(x * prev, since[r]) for x in top[c:]]
        pivot = top[c]
        tail = top[c + 1 :]
        next_prev = pivot if integral else Fraction(pivot)
        for i in range(r + 1, n_rows):
            row = m[i]
            if row[c] == 0:
                continue
            if since[i] != prev:
                row[c:] = [div(x * prev, since[i]) for x in row[c:]]
            lead = row[c]
            # Exact in Z by Sylvester's identity; Fractions divide exactly too.
            row[c + 1 :] = [div(x * pivot - lead * t, prev) for x, t in zip(row[c + 1 :], tail)]
            row[c] = 0
            since[i] = next_prev
        prev = next_prev
        pivots.append(c)
        r += 1
    return m, pivots, sign


def bareiss_determinant(rows: Rows) -> Scalar:
    """Determinant of a square matrix: by cofactors up to 3x3, else read off
    its echelon form."""
    m = list(rows)
    n = len(m)
    if not all(map(n.__eq__, map(len, m))):
        raise NonSquare(f"{n}x{len(m[0])} matrix has no determinant")
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    elif n > 3:
        m, _, sign = echelon(m)
        det = sign * m[-1][-1]
    elif n == 2:
        (a, b), (c, d) = m
        det = a * d - b * c
    else:
        det = m[0][0] if m else 1
    return det if type(det) is int else normalize_scalar(det)


def clear_denominators(rows: Rows) -> list[tuple[int, ...]]:
    """The rows times the lcm of all their entries' denominators.

    One scale for the whole matrix changes no rank and no kernel, and lets
    ``echelon`` run on integers.
    """
    m = [tuple(row) for row in rows]
    scale = lcm(*(c.denominator for row in m for c in row))
    return [tuple(c.numerator * (scale // c.denominator) for c in row) for row in m]


def matrix_rank(rows: Rows) -> int:
    return len(echelon(rows)[1])


def _back_substitute(m: list[list[Scalar]], pivots: list[int], x: list[Scalar]) -> list[Scalar]:
    """Fill the pivot entries of x so that m x = 0, given its free entries."""
    width = len(x)
    for c, row in reversed(list(zip(pivots, m))):
        total = sum(row[j] * x[j] for j in range(c + 1, width) if x[j])
        x[c] = normalize_scalar(Fraction(-total, row[c]))
    return x


def kernel_vectors(rows: Rows, n_cols: int) -> tuple[int, Iterator[tuple[Scalar, ...]]]:
    """The dimension of the right kernel, and its basis vectors one at a
    time, one per free column, in column order.

    The vector of free column f has 1 at f, 0 at every other free column;
    each is back-substituted only when it is drawn.
    """
    m, pivots, _ = echelon(rows)
    free = sorted(set(range(n_cols)) - set(pivots))

    def vector(f: int) -> tuple[Scalar, ...]:
        x: list[Scalar] = [0] * n_cols
        x[f] = 1
        return tuple(_back_substitute(m, pivots, x))

    return len(free), map(vector, free)


def kernel_basis(rows: Rows, n_cols: int) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel, as ``kernel_vectors`` draws it."""
    return list(kernel_vectors(rows, n_cols)[1])


def solve_particular(m: list[list[Scalar]], b: Sequence[Scalar]) -> list[Scalar] | None:
    """One exact solution of m x = b with free variables set to zero."""
    n_cols = len(m[0]) if m else 0
    reduced, pivots, _ = echelon([list(row) + [bi] for row, bi in zip(m, b)])
    if n_cols in pivots:
        return None
    # The right-hand side is a free column with value -1: [m | b] (x, -1) = 0.
    x: list[Scalar] = [0] * n_cols + [-1]
    return _back_substitute(reduced, pivots, x)[:n_cols]


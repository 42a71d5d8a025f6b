"""Hand-encoded displays of the worked-example polynomials.

Each formula below is transcribed bracket by bracket from the known closed
form for its configuration, with columns in the written order (the bracket
constructor tracks the sorting sign, so the encoded polynomial is exactly
the written one).  These are the golden references: generator output must
match each display up to a single overall sign, and every display must
itself vanish on sampled realizations of its configuration, which guards
the transcription against sign slips.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from oracles import tuple_terms
from pavingideals.brackets import BracketPolynomial
from pavingideals.matroids import grid_point
from pavingideals.poly import Polynomial


def br(*labels) -> BracketPolynomial:
    return BracketPolynomial.bracket(labels)


def product(*factors) -> BracketPolynomial:
    out = BracketPolynomial.one()
    for f in factors:
        out = out * f
    return out


def perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def qs_display() -> BracketPolynomial:
    """[2,6,q1][4,5,q2][3,1,q3] - [4,6,q1][3,5,q2][2,1,q3]"""
    t1 = product(br(2, 6, "q1"), br(4, 5, "q2"), br(3, 1, "q3"))
    t2 = product(br(4, 6, "q1"), br(3, 5, "q2"), br(2, 1, "q3"))
    return t1 - t2


def pascal_display() -> BracketPolynomial:
    """[1,9,q1][6,8,q2][5,7,q3][4,9,q4][3,8,q5][2,7,q6]
    - [6,9,q1][5,8,q2][4,7,q3][3,9,q4][2,8,q5][1,7,q6]"""
    first = [(1, 9), (6, 8), (5, 7), (4, 9), (3, 8), (2, 7)]
    second = [(6, 9), (5, 8), (4, 7), (3, 9), (2, 8), (1, 7)]
    t1 = BracketPolynomial.one()
    t2 = BracketPolynomial.one()
    for i, ((a1, b1), (a2, b2)) in enumerate(zip(first, second), start=1):
        t1 = t1 * br(a1, b1, f"q{i}")
        t2 = t2 * br(a2, b2, f"q{i}")
    return t1 - t2


def fig2c_display() -> BracketPolynomial:
    """[1,3,q1][2,7,q2][5,6,q3][4,7,q4][1,8,q5]
    - [1,2,q1][3,7,q4][4,8,q5][5,7,q2][1,6,q3]
    - [2,3,q1][5,7,q2][1,6,q3][4,7,q4][1,8,q5]"""
    t1 = product(br(1, 3, "q1"), br(2, 7, "q2"), br(5, 6, "q3"), br(4, 7, "q4"), br(1, 8, "q5"))
    t2 = product(br(1, 2, "q1"), br(3, 7, "q4"), br(4, 8, "q5"), br(5, 7, "q2"), br(1, 6, "q3"))
    t3 = product(br(2, 3, "q1"), br(5, 7, "q2"), br(1, 6, "q3"), br(4, 7, "q4"), br(1, 8, "q5"))
    return t1 - t2 - t3


def fig2r_display() -> BracketPolynomial:
    """[3,4,q3][2,5,q2][1,6,q1][1,7,q4]
    - [3,2,q3][4,7,q4][1,6,q1][1,5,q2]
    - [3,6,q1][2,4,q3][1,5,q2][1,7,q4]"""
    t1 = product(br(3, 4, "q3"), br(2, 5, "q2"), br(1, 6, "q1"), br(1, 7, "q4"))
    t2 = product(br(3, 2, "q3"), br(4, 7, "q4"), br(1, 6, "q1"), br(1, 5, "q2"))
    t3 = product(br(3, 6, "q1"), br(2, 4, "q3"), br(1, 5, "q2"), br(1, 7, "q4"))
    return t1 - t2 - t3


def grid34_display() -> BracketPolynomial:
    """Signed sum over permutations of the three free columns:
    sign(s) * prod_i [p_{i,s(i)}, p_{i,4}, q_i] * prod_k [other two of column k, q_{3+k}]
    """
    total = BracketPolynomial.zero()
    for perm in permutations((1, 2, 3)):
        term = BracketPolynomial.constant(perm_sign(perm))
        for i, col in enumerate(perm, start=1):
            term = term * br(grid_point(i, col, 4), grid_point(i, 4, 4), f"q{i}")
        inverse = {col: row for row, col in enumerate(perm, start=1)}
        for k in (1, 2, 3):
            rows = [r for r in (1, 2, 3) if r != inverse[k]]
            term = term * br(
                grid_point(rows[0], k, 4), grid_point(rows[1], k, 4), f"q{3 + k}"
            )
        total = total + term
    return total


def paving4_9_display() -> BracketPolynomial:
    """[1,3,4,q1][2,6,7,q2][5,7,9,q5][5,8,9,q3][5,6,8,q4]
    - [1,2,4,q1][3,8,9,q3][5,7,9,q5][5,6,7,q2][5,6,8,q4]
    + [1,2,3,q1][4,6,8,q4][5,7,9,q5][5,6,7,q2][5,8,9,q3]
    - [2,3,4,q1][1,7,9,q5][5,6,7,q2][5,8,9,q3][5,6,8,q4]"""
    t1 = product(br(1, 3, 4, "q1"), br(2, 6, 7, "q2"), br(5, 7, 9, "q5"), br(5, 8, 9, "q3"), br(5, 6, 8, "q4"))
    t2 = product(br(1, 2, 4, "q1"), br(3, 8, 9, "q3"), br(5, 7, 9, "q5"), br(5, 6, 7, "q2"), br(5, 6, 8, "q4"))
    t3 = product(br(1, 2, 3, "q1"), br(4, 6, 8, "q4"), br(5, 7, 9, "q5"), br(5, 6, 7, "q2"), br(5, 8, 9, "q3"))
    t4 = product(br(2, 3, 4, "q1"), br(1, 7, 9, "q5"), br(5, 6, 7, "q2"), br(5, 8, 9, "q3"), br(5, 6, 8, "q4"))
    return t1 - t2 + t3 - t4


ALL_DISPLAYS = {
    "qs": qs_display,
    "pascal": pascal_display,
    "fig2c": fig2c_display,
    "fig2r": fig2r_display,
    "grid3x4": grid34_display,
    "paving4_9": paving4_9_display,
}

# Displays whose coordinate expansion stays small enough for exact
# polynomial-level cross-checks.
EXPANDABLE = ("qs", "fig2c", "fig2r")


def equal_up_to_sign(a, b) -> bool:
    return (a - b).is_zero() or (a + b).is_zero()


def equal_up_to_unit(a: Polynomial, b: Polynomial):
    """Return the nonzero rational u with a == u*b, or None; coordinate or
    bracket polynomials."""
    if a.is_zero() and b.is_zero():
        return 1
    if a.is_zero() or b.is_zero():
        return None
    # Polynomials equal up to a unit share their monomials.
    terms_a, terms_b = tuple_terms(a), tuple_terms(b)
    mono = next(iter(terms_a))
    if mono not in terms_b:
        return None
    unit = Fraction(terms_a[mono]) / Fraction(terms_b[mono])
    return unit if (a - b.scale(unit)).is_zero() else None


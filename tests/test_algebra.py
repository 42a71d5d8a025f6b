"""Ring, determinant and exact linear algebra checks."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    TupleMergeMinors,
    bracket_monomial_mul,
    gaussian_pivot_product,
    monomial_mul,
    perm_parity,
    render_polynomial,
    render_terms,
    rref_kernel_basis,
    rref_rank,
    rref_solve,
    tuple_product,
    tuple_sum,
)
from pavingideals.brackets import BracketPolynomial, _bracket_sort_key, _mono_sort_key
from pavingideals.linalg import (
    NonSquare,
    bareiss_determinant,
    echelon,
    kernel_basis,
    matrix_rank,
    solve_particular,
)
from pavingideals.poly import Polynomial, Ring, UnboundVariable
from pavingideals.polymatrix import MinorEngine
from pavingideals.scalars import NotRational, format_rational, normalize_scalar, parse_rational
from pavingideals.variables import entry_var, extra_var


def x(r, c):
    return Polynomial.variable(entry_var(r, c))


def random_poly(rng: random.Random, n_vars: int = 4, n_terms: int = 5) -> Polynomial:
    p = Polynomial.zero()
    for _ in range(rng.randint(0, n_terms)):
        term = Polynomial.constant(rng.randint(-5, 5))
        for _ in range(rng.randint(0, 3)):
            term = term * x(rng.randint(1, 2), rng.randint(1, n_vars))
        p = p + term
    return p


# -- scalars ------------------------------------------------------------


def test_rational_round_trip():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert parse_rational("7") == 7


LONG_VALUES = pytest.mark.parametrize(
    "value",
    [-(10**5000) - 7, Fraction(10**4400 + 1, -(3**9000)), 10**1200 + 10**599, -(10**600)],
    ids=["int", "fraction", "zero-filled-pieces", "one-piece"],
)


@LONG_VALUES
def test_format_rational_writes_every_digit_past_the_int_to_str_limit(value):
    limit = sys.get_int_max_str_digits()
    text = format_rational(value)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert text == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@LONG_VALUES
def test_parse_rational_reads_back_every_digit_past_the_int_to_str_limit(value):
    limit = sys.get_int_max_str_digits()
    assert parse_rational(format_rational(value)) == value
    assert sys.get_int_max_str_digits() == limit


def test_a_coefficient_past_the_int_to_str_limit_reads_back():
    p = Polynomial.constant(-(10**5000) - 7) * x(1, 2) + Polynomial.constant(Fraction(1, 3**4400)) * x(2, 3)
    assert Polynomial.from_text(p.to_text()) == p


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 2 / 0 "])
def test_zero_denominator_is_not_rational(text):
    with pytest.raises(NotRational, match="zero denominator"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_0", "+1", "١", "1/2_0", "1/ 2", "1/-2"])
def test_rationals_are_ascii_digits(text):
    with pytest.raises(NotRational, match="not an ASCII rational"):
        parse_rational(text)


def test_ascii_rationals_still_parse():
    assert [parse_rational(t) for t in (" 7 ", "-3", "0", "-0", "4/6", "-10/5")] == [7, -3, 0, 0, Fraction(2, 3), -2]


@pytest.mark.parametrize(
    "text", ["1_0 * x[١,1]^2_0", "1 * x[١,1]", "1 * x[1,١]", "1 * x[1,1]^+2", "1 * x[1,1]^٢"]
)
def test_text_numerals_are_ascii_digits(text):
    with pytest.raises(ValueError):
        Polynomial.from_text(text)


# -- polynomial ring ----------------------------------------------------


def test_additive_inverse():
    assert (x(1, 1) + (-x(1, 1))).is_zero()


def test_difference_of_squares():
    lhs = (x(1, 1) + x(1, 2)) * (x(1, 1) - x(1, 2))
    rhs = x(1, 1) * x(1, 1) - x(1, 2) * x(1, 2)
    assert lhs == rhs


def test_multiplicative_identity():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert Polynomial.one() * p == p


def test_cancellation_gives_empty_association():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poly(rng)
        assert (p - p).is_zero()
        assert len((p - p).terms) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(), st.integers(), st.integers())
def test_ring_distributivity(sa, sb, sc):
    rng_a, rng_b, rng_c = random.Random(sa), random.Random(sb), random.Random(sc)
    a, b, c = random_poly(rng_a), random_poly(rng_b), random_poly(rng_c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(15):
        a, b = random_poly(rng), random_poly(rng)
        assignment = {
            v: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for v in (a * b + a + b).support()
        }
        assert (a * b).evaluate(assignment) == a.evaluate(assignment) * b.evaluate(assignment)
        assert (a + b).evaluate(assignment) == a.evaluate(assignment) + b.evaluate(assignment)


def test_evaluate_missing_variable():
    p = x(1, 1) * x(2, 2)
    with pytest.raises(UnboundVariable) as exc:
        p.evaluate({entry_var(1, 1): 3})
    assert entry_var(2, 2) in exc.value.variables
    p = x(3, 1) * x(1, 1) + x(2, 2) + Polynomial.variable(extra_var(1, "q"))
    with pytest.raises(UnboundVariable) as exc:
        p.evaluate({entry_var(1, 1): 3, extra_var(1, "q"): 1})
    assert exc.value.variables == sorted([entry_var(2, 2), entry_var(3, 1)])


def test_evaluate_partial_then_full():
    p = x(1, 1) * x(2, 2) + 3 * x(1, 1)
    q = p.evaluate_partial({entry_var(1, 1): 2})
    assert q == 2 * x(2, 2) + 6
    assert q.evaluate({entry_var(2, 2): Fraction(1, 2)}) == 7


def test_text_round_trip():
    p = 2 * x(1, 3) * x(1, 3) * x(2, 1) - Polynomial.constant(Fraction(1, 3)) * x(1, 4)
    p = p + Polynomial.variable(extra_var(2, "q1"))
    text = p.to_text()
    assert Polynomial.from_text(text) == p
    assert Polynomial.from_text("0").is_zero()


def test_text_spacing_around_operators_is_free():
    text = "-2 * x[1,2]^2 + 1 * x[1,2] * x[2,3]"
    canonical = Polynomial.from_text(text)
    assert canonical.to_text() == text
    assert Polynomial.from_text("-2*x[1,2] ^ 2 + 1 * x[1,2]*x[2,3]") == canonical
    assert Polynomial.from_text("1 * x[1,2]*x[2,3]") == Polynomial.from_text("1 * x[1,2] * x[2,3]")
    assert Polynomial.from_text("1 * x[1,2] ^ 2") == Polynomial.from_text("1 * x[1,2]^2")


@pytest.mark.parametrize("evaluate", [Polynomial.evaluate, Polynomial.evaluate_partial])
def test_a_power_past_the_bit_budget_is_refused(evaluate):
    # (-42)^300000 is estimated at 7 * 300000 bits, past the 2^20-bit budget;
    # (-42)^3000 is well inside it.
    assignment = {entry_var(1, 2): -42}
    with pytest.raises(ValueError, match="evaluation budget"):
        evaluate(Polynomial.from_text("1 * x[1,2]^300000"), assignment)
    assert evaluate(Polynomial.from_text("1 * x[1,2]^3000"), assignment) == (-42) ** 3000


@pytest.mark.parametrize("factor", ["x[1,1]^-1", "x[1,1]^0", "x[1,1]^x", "x[1,1]^"])
def test_exponents_are_positive_integers(factor):
    with pytest.raises(ValueError, match="exponent must be a positive integer"):
        Polynomial.from_text(f"1 * {factor}")


@pytest.mark.parametrize(
    "text",
    [
        "1 * y[1,2] + 2 * y[1,2]",
        "1 * x[1,2] * x[0,1] - 3 * x[0,1]",
        "1 * x[1,1]^0 + 2 * x[1,1]^0",
    ],
)
def test_malformed_factor_raises_wherever_it_repeats(text):
    # Factors are parsed once per line; a failure must not be remembered
    # as a value for the next occurrence.
    with pytest.raises(ValueError):
        Polynomial.from_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "1 * x[1,1] * x[1,1] - 1 * x[1,1]^2",
        "2 * x[2,1] * x[1,1]^2 * x[2,1]^3 * x[1,1] - 2 * x[1,1]^3 * x[2,1]^4",
        "1 * x[1,q] * x[1,1] * x[1,q] - 1 * x[1,1] * x[1,q]^2",
    ],
)
def test_repeated_variable_in_a_term_merges_exponents(text):
    assert Polynomial.from_text(text).is_zero()


def test_text_form_is_sorted_and_stable():
    p = x(2, 2) + x(1, 1) + x(1, 2)
    assert p.to_text() == "1 * x[1,1] + 1 * x[1,2] + 1 * x[2,2]"


# Rows and columns of two digits, so that x[10,1] is ordered against x[2,1].
TEXT_VARIABLES = [entry_var(r, c) for r in (1, 2, 3, 10, 12) for c in (1, 2, 9, 10)] + [
    extra_var(r, name) for r in (1, 3, 10) for name in ("q", "q1", "r2")
]


def test_to_text_matches_the_lex_key_renderer():
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 12)):
            variables = sorted(rng.sample(TEXT_VARIABLES, rng.randint(0, 4)))
            mono = tuple((v, rng.choice([1, 1, 2, 3, 11])) for v in variables)
            terms[mono] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 7]))
        p = Polynomial(terms)
        for mono, coeff in p.terms.items():
            seen.add("constant" if not mono else "power" if any(e > 1 for _, e in mono) else "linear")
            seen.add("negative" if coeff < 0 else "positive")
            seen.add("fraction" if isinstance(coeff, Fraction) else "integer")
            seen.update("row >= 10" for v, _ in mono if v.row >= 10)
            seen.update("extra" for v, _ in mono if isinstance(v.column, str))
        assert p.to_text() == render_polynomial(p)
        assert Polynomial.from_text(p.to_text()) == p
    assert seen == {
        "constant", "power", "linear", "negative", "positive", "fraction", "integer", "row >= 10", "extra",
    }


# -- the packed ring against sorted-tuple dicts -----------------------------
#
# Operands are drawn over overlapping and disjoint slices of one atom list,
# with exponents up to 200, and built in different rings: by the
# constructor, as a sum of one-term polynomials, as a minor of an engine or
# (coordinates) read back from text.  Each result is checked against the
# same operation on plain dicts of sorted tuple monomials.

RING_VARIABLES = [entry_var(r, c) for r in (1, 2, 10) for c in (1, 2)] + [extra_var(1, "q"), extra_var(3, "r2")]
RING_BRACKETS = [(1, 2, 3), (1, 2, "q"), (1, 3, "q"), (2, 3, "r"), (1, 10, "q"), (2, 10, "r"), (3, 10, "q"), (1, 2, 10)]
RING_SLICES = [slice(0, 4), slice(2, 6), slice(5, 8), slice(0, 8)]
RING_COEFFICIENTS = st.sampled_from([-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 3)])


def tuple_monomial(bracket: bool, pairs: list) -> tuple:
    if bracket:
        return tuple(sorted((key for key, e in pairs for _ in range(e)), key=_bracket_sort_key))
    return tuple(sorted(pairs))


@st.composite
def ring_operand(draw, bracket: bool):
    """(polynomial, its terms as a dict of sorted tuple monomials)."""
    atoms = (RING_BRACKETS if bracket else RING_VARIABLES)[draw(st.sampled_from(RING_SLICES))]
    terms: dict = {}
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(atoms), max_size=3, unique=True))
        pairs = [(atom, draw(st.sampled_from([1, 1, 2, 3, 200]))) for atom in chosen]
        mono = tuple_monomial(bracket, pairs)
        terms[mono] = terms.get(mono, 0) + draw(RING_COEFFICIENTS)
    terms = {mono: c for mono, c in terms.items() if c}
    cls = BracketPolynomial if bracket else Polynomial
    how = draw(st.sampled_from(["constructor", "sum", "minor"] + ([] if bracket else ["text"])))
    if how == "constructor":
        poly = cls(terms)
    elif how == "sum":
        poly = sum((cls({mono: c}) for mono, c in terms.items()), cls.zero())
    elif how == "minor":
        poly = MinorEngine([[cls(terms), cls.zero()], [cls.zero(), cls.one()]]).determinant()
    else:
        poly = Polynomial.from_text(render_terms(terms))
    return poly, terms


def bracket_text(terms: dict) -> str:
    """``BracketPolynomial.to_text`` of a dict of bracket monomials."""
    chunks = []
    for mono, coeff in sorted(terms.items(), key=lambda term: _mono_sort_key(term[0])):
        body = format_rational(abs(coeff)) + "".join("<" + " ".join(map(str, key)) + ">" for key in mono)
        chunks.append((" - " if coeff < 0 else " + ") + body)
    text = "".join(chunks) or " + 0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def tuple_value(terms: dict, assignment) -> Fraction:
    return sum(c * Fraction(prod(Fraction(assignment[v]) ** e for v, e in mono)) for mono, c in terms.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ring_operations_match_sorted_tuple_dicts(data):
    bracket = data.draw(st.booleans(), label="bracket")
    (a, ta), (b, tb) = data.draw(ring_operand(bracket), label="a"), data.draw(ring_operand(bracket), label="b")
    cls, mul = (BracketPolynomial, bracket_monomial_mul) if bracket else (Polynomial, monomial_mul)
    value = data.draw(RING_COEFFICIENTS | st.just(0), label="scale")
    results = [
        (a + b, tuple_sum((1, ta), (1, tb))),
        (a - b, tuple_sum((1, ta), (-1, tb))),
        (a * b, tuple_product(ta, tb, mul)),
        (-a, tuple_sum((-1, ta))),
        (a.scale(value), tuple_sum((value, ta))),
        (b, tb),
    ]
    for got, want in results:
        assert type(got) is cls
        assert got.terms == want
        assert got == cls(want) and hash(got) == hash(cls(want))
        assert got.support() == {atom for mono in want for atom in (mono if bracket else (v for v, _ in mono))}
        assert got.to_text() == (bracket_text(want) if bracket else render_terms(want))
    assert (a == b) == (ta == tb)
    if bracket:
        return
    assignment = {v: Fraction(data.draw(st.integers(-3, 3), label=v.text()), 2) for v in RING_VARIABLES}
    assert (a * b).evaluate(assignment) == tuple_value(ta, assignment) * tuple_value(tb, assignment)
    bound = dict(list(assignment.items())[: data.draw(st.integers(0, len(RING_VARIABLES)), label="bound")])
    partial = {}
    for mono, c in ta.items():
        rest = tuple(pair for pair in mono if pair[0] not in bound)
        partial[rest] = partial.get(rest, 0) + c * tuple_value({tuple(p for p in mono if p[0] in bound): 1}, bound)
    assert a.evaluate_partial(bound).terms == {mono: c for mono, c in partial.items() if c}


# -- scalar linear algebra ------------------------------------------------


def test_zero_matrix_rank_and_kernel():
    m = [[0] * 4 for _ in range(3)]
    assert matrix_rank(m) == 0
    assert len(kernel_basis(m, 4)) == 4


def test_identity_rank_and_kernel():
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert matrix_rank(m) == 3
    assert kernel_basis(m, 3) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    n_rows = rng.randint(1, 5)
    n_cols = rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
    assert matrix_rank(rows) + len(kernel_basis(rows, n_cols)) == n_cols
    for vec in kernel_basis(rows, n_cols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_bareiss_matches_gaussian_pivots():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = bareiss_determinant(rows)
        assert det == gaussian_pivot_product(rows)


def test_fraction_matrix_determinant():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]]
    det = bareiss_determinant(rows)
    assert det == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)


def test_scalar_determinant_needs_a_square_matrix():
    with pytest.raises(NonSquare):
        bareiss_determinant([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NonSquare):
        bareiss_determinant([[1, 2], [3, 4], [5, 6]])
    assert bareiss_determinant([]) == 1


def _eliminated_determinant(rows):
    reduced, _, sign = echelon(rows)
    return normalize_scalar(sign * reduced[-1][-1])


def test_small_determinants_by_cofactors_equal_elimination():
    """Up to 3x3 the determinant is a cofactor expansion; it equals the
    echelon form's in value and type, singular matrices included."""
    rng = random.Random(1968)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            # Singular: the last row is a combination of the others.
            a, b = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            others = rows[:-1] or [[0] * n]
            rows[-1] = [a * u + b * v for u, v in zip(others[0], others[-1])]
        det = bareiss_determinant(rows)
        singular += det == 0
        assert _typed([det]) == _typed([_eliminated_determinant(rows)]), rows
    assert singular >= 100


def test_determinant_reads_rows_from_an_iterator():
    columns = [(2, 0, 1), (1, 3, 0), (0, 1, 4)]
    assert bareiss_determinant(zip(*columns)) == bareiss_determinant(columns) == 25
    assert bareiss_determinant(iter([(5,)])) == 5


@pytest.mark.parametrize(
    "rows, value",
    (
        ([[Fraction(6, 3)]], 2),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(4)]], 1),
        ([[Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 0], [1, 1, Fraction(3)]], 1),
        ([[Fraction(1, 2), 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]], 1),
    ),
)
def test_integral_fraction_determinants_are_ints(rows, value):
    det = bareiss_determinant(rows)
    assert det == value and type(det) is int


def test_echelon_keeps_integers_and_its_input():
    rows = [[0, 2, 4], [3, 1, 1], [6, 2, 2]]
    reduced, pivots, sign = echelon(rows)
    assert rows == [[0, 2, 4], [3, 1, 1], [6, 2, 2]]
    assert pivots == [0, 1] and sign == -1
    assert all(type(v) is int for row in reduced for v in row)
    assert reduced[2] == [0, 0, 0]


def _textbook_bareiss(rows):
    """Bareiss elimination that updates every row below the pivot at every
    step, in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots, sign, prev, r = [], 1, Fraction(1), 0
    for c in range(n_cols):
        found = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            sign = -sign
        top = m[r]
        for row in m[r + 1 :]:
            row[c + 1 :] = [(x * top[c] - row[c] * t) / prev for x, t in zip(row[c + 1 :], top[c + 1 :])]
            row[c] = 0
        prev = top[c]
        pivots.append(c)
        r += 1
    return m, pivots, sign


def test_echelon_equals_textbook_bareiss_on_sparse_matrices():
    """Rows with a zero in the pivot column are rescaled only when next
    used; every entry still equals textbook Bareiss's, and integer input
    gives ints, other input no floats."""
    rng = random.Random(1968_22)
    for _ in range(1500):
        n_rows, n_cols = rng.randint(0, 9), rng.randint(1, 9)
        kind, density = rng.choice(["int", "fraction", "mixed"]), rng.random()

        def entry():
            if rng.random() > density:
                return 0
            if kind == "int" or kind == "mixed" and rng.random() < 0.5:
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

        rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows >= 2 and rng.random() < 0.4:
            a, b, target = (rng.randrange(n_rows) for _ in range(3))
            rows[target] = [2 * u - v for u, v in zip(rows[a], rows[b])]
        got = echelon(rows)
        assert got == _textbook_bareiss(rows), rows
        types = {type(v) for row in got[0] for v in row}
        assert types <= ({int} if kind == "int" else {int, Fraction}), rows


def _random_matrix(rng: random.Random):
    """Integer or Fraction entries, any shape up to 6x6, often rank-deficient."""
    n_rows, n_cols = rng.randint(0, 6), rng.randint(1, 6)
    fractions = rng.random() < 0.5

    def entry():
        if fractions and rng.random() < 0.7:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and rng.random() < 0.5:
        # Force a rank deficiency: one row a combination of two others.
        a, b, target = (rng.randrange(n_rows) for _ in range(3))
        s, t = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[target] = [s * u + t * v for u, v in zip(rows[a], rows[b])]
    if rng.random() < 0.3:
        zero_col = rng.randrange(n_cols)
        for row in rows:
            row[zero_col] = 0
    return rows, n_cols


def _typed(values):
    return [(type(v), v) for v in values]


def test_linear_algebra_matches_the_fraction_rref_oracle():
    """Rank, kernel, solve and determinant agree with the rref oracle in value and type."""
    rng = random.Random(20260)
    shapes = set()
    for _ in range(1000):
        rows, n_cols = _random_matrix(rng)
        shapes.add((len(rows) > n_cols) - (len(rows) < n_cols))
        assert matrix_rank(rows) == rref_rank(rows), rows
        got = kernel_basis(rows, n_cols)
        want = rref_kernel_basis(rows, n_cols)
        assert [_typed(v) for v in got] == [_typed(v) for v in want], rows
        b = [rng.randint(-5, 5) for _ in rows]
        if rng.random() < 0.5:
            # A consistent right-hand side: the image of a random vector.
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n_cols)]
            b = [sum(c * v for c, v in zip(row, x)) for row in rows]
        got_x, want_x = solve_particular(rows, b), rref_solve(rows, b)
        assert (got_x is None) == (want_x is None), (rows, b)
        if want_x is not None:
            assert _typed(got_x) == _typed(want_x), (rows, b)
        if len(rows) == n_cols:
            det = bareiss_determinant(rows)
            assert _typed([det]) == _typed([gaussian_pivot_product(rows)]), rows
    assert shapes == {-1, 0, 1}


# -- symbolic determinants -------------------------------------------------


def generic_matrix(n, row_offset=0, col_offset=0):
    return [[x(i + 1 + row_offset, j + 1 + col_offset) for j in range(n)] for i in range(n)]


def determinant(rows):
    return MinorEngine(rows).determinant()


def test_two_by_two_cofactor():
    m = generic_matrix(2)
    assert determinant(m) == x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)


def test_identity_pattern_determinant():
    one, zero = Polynomial.one(), Polynomial.zero()
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert determinant(m) == Polynomial.one()


def test_empty_matrix_determinant_is_one():
    assert determinant([]) == Polynomial.one()


def test_non_square_rejected():
    m = [[x(1, 1), x(1, 2)]]
    with pytest.raises(NonSquare):
        determinant(m)


def test_random_scalar_determinant_vs_elimination_oracle():
    rng = random.Random(99)
    for _ in range(25):
        rows = [[Polynomial.constant(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        expected = gaussian_pivot_product(
            [[p.constant_value() for p in row] for row in rows]
        )
        assert determinant(rows) == Polynomial.constant(expected)


def test_row_swap_negates_determinant():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [[random_poly(rng, n_vars=3, n_terms=2) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert determinant(swapped) == -determinant(rows)


def test_determinant_commutes_with_evaluation():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = generic_matrix(n)
        det = determinant(m)
        assignment = {
            entry_var(i + 1, j + 1): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for i in range(n)
            for j in range(n)
        }
        evaluated = [[p.evaluate(assignment) for p in row] for row in m]
        assert det.evaluate(assignment) == bareiss_determinant(evaluated)


def test_minor_engine_shares_cache():
    m = generic_matrix(4)
    engine = MinorEngine(m)
    d1 = engine.minor((0, 1, 2), (0, 1, 2))
    shared = engine._cache[((1, 2), (0, 1))]
    d2 = engine.minor((0, 1, 2), (0, 1, 3))
    assert d1 != d2
    # d2 reads the 2x2 minor that d1 memoized instead of computing it again.
    assert engine._cache[((1, 2), (0, 1))] is shared
    assert engine.minor((1, 2), (0, 1)) == x(2, 1) * x(3, 2) - x(2, 2) * x(3, 1)


# Variables and bracket labels of the random matrices; x[1,1]^200 in a
# k-minor needs fields of more than 8 bits.
MINOR_VARIABLES = [entry_var(r, c) for r in (1, 2, 10) for c in (1, 2)] + [extra_var(1, "q")]
MINOR_LABELS = [1, 2, 3, 10, "q", "r"]


def random_coefficient(rng: random.Random):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))


def random_coordinate_entry(rng: random.Random) -> Polynomial:
    p = Polynomial.zero()
    for _ in range(rng.randint(0, 3)):
        term = Polynomial.constant(random_coefficient(rng))
        for v in rng.sample(MINOR_VARIABLES, rng.randint(0, 2)):
            term = term * Polynomial({((v, rng.choice([1, 1, 2, 200])),): 1})
        p = p + term
    return p


def random_bracket_entry(rng: random.Random) -> BracketPolynomial:
    p = BracketPolynomial.zero()
    for _ in range(rng.randint(0, 3)):
        term = BracketPolynomial.constant(random_coefficient(rng))
        for _ in range(rng.randint(0, 2)):
            b = BracketPolynomial.bracket(rng.sample(MINOR_LABELS, 3))
            term = term * (b * b if rng.random() < 0.3 else b)
        p = p + term
    return p


def test_minor_engine_matches_the_tuple_merge_oracle():
    rng = random.Random(2007)
    shapes = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 3), (3, 5)]
    top = 0
    for entry in (random_coordinate_entry, random_bracket_entry):
        for n_rows, n_cols in shapes * 3:
            rows = [[entry(rng) for _ in range(n_cols)] for _ in range(n_rows)]
            if entry is random_coordinate_entry:
                top = max([top] + [e for row in rows for p in row for m in p.terms for _, e in m])
            engine, oracle = MinorEngine(rows), TupleMergeMinors(rows)
            for k in range(min(n_rows, n_cols) + 1):
                for row_idx in combinations(range(n_rows), k):
                    for col_idx in combinations(range(n_cols), k):
                        got, want = engine.minor(row_idx, col_idx), oracle.minor(row_idx, col_idx)
                        assert (type(got), got) == (type(want), want), (rows, row_idx, col_idx)
            if n_rows == n_cols:
                assert engine.determinant() == oracle.determinant()
            else:
                with pytest.raises(NonSquare):
                    engine.determinant()
            with pytest.raises(NonSquare):
                engine.minor([0], [])
    assert top == 200
    # x^400 - y*z: 400 needs 9 bits.
    a, b = Polynomial({((entry_var(1, 1), 200),): 1}), x(1, 2)
    rows = [[a, b], [b, a]]
    assert MinorEngine(rows).determinant() == TupleMergeMinors(rows).determinant() == a * a - b * b


# Entry and extra variables of the text oracle's matrices, with exponents up to 3.
TEXT_MINOR_VARIABLES = [entry_var(r, c) for r in (1, 2, 10) for c in (1, 3)] + [extra_var(r, "q1") for r in (1, 2)]


def random_text_entry(rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        variables = sorted(rng.sample(TEXT_MINOR_VARIABLES, rng.randint(0, 2)))
        terms[tuple((v, rng.randint(1, 3)) for v in variables)] = random_coefficient(rng)
    return Polynomial(terms)


def test_packed_minor_text_matches_the_oracle_renderer(monkeypatch):
    """A minor is written from its packed keys, with no unpacking, as the
    oracle renders the tuple-merge minor, and the line reads back to it."""
    unpacked = []
    unpack = Ring.unpack

    def counted(self, packed):
        unpacked.append(packed)
        return unpack(self, packed)

    monkeypatch.setattr(Ring, "unpack", counted)
    rng = random.Random(2007)
    seen = set()
    for n in (0, 1, 2, 2, 3, 3, 3, 4):
        rows = [[random_text_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            rows[1] = rows[0]  # a zero determinant of nonzero entries
        engine, oracle = MinorEngine(rows), TupleMergeMinors(rows)
        for k in range(n + 1):
            for row_idx in combinations(range(n), k):
                for col_idx in combinations(range(n), k):
                    got, want = engine.minor(row_idx, col_idx), oracle.minor(row_idx, col_idx)
                    unpacked.clear()
                    line = got.to_text()
                    assert not unpacked
                    assert line == render_polynomial(want), (rows, row_idx, col_idx)
                    assert Polynomial.from_text(line) == want == got
                    seen.add("empty" if k == 0 else "zero" if want.is_zero() else "nonzero")
                    for mono, coeff in want.terms.items():
                        seen.add("negative" if coeff < 0 else "positive")
                        seen.add("fraction" if isinstance(coeff, Fraction) else "integer")
                        seen.update("extra" if isinstance(v.column, str) else "entry" for v, _ in mono)
                        seen.update(f"exponent {e}" for _, e in mono if e <= 3)
    assert seen >= {
        "empty", "zero", "nonzero", "negative", "positive", "fraction", "integer", "extra", "entry",
        "exponent 1", "exponent 2", "exponent 3",
    }
    assert MinorEngine([]).determinant().to_text() == "1"


def test_minor_engine_reads_rows_and_columns_in_the_order_given():
    rng = random.Random(1776)
    flipped = 0
    for entry in (random_coordinate_entry, random_bracket_entry):
        rows = [[entry(rng) for _ in range(4)] for _ in range(6)]
        engine, oracle = MinorEngine(rows), TupleMergeMinors(rows)
        for k in (2, 3, 4) * 8:
            row_idx, col_idx = rng.sample(range(6), k), rng.sample(range(4), k)
            got = engine.minor(row_idx, col_idx)
            sub = [[rows[r][c] for c in col_idx] for r in row_idx]
            assert got == MinorEngine(sub).determinant(), (row_idx, col_idx)
            sign = perm_parity(row_idx) * perm_parity(col_idx)
            assert got == oracle.minor(sorted(row_idx), sorted(col_idx)).scale(sign), (row_idx, col_idx)
            flipped += sign < 0 and not got.is_zero()
    assert flipped


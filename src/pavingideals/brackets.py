"""Bracket polynomials over formal column labels.

A bracket ⟨a b c ...⟩ stands for the determinant of the matrix whose columns
are the named vectors.  Labels are either integer point ids or strings for
formal columns (auxiliary vectors, symbolic intersection points).  A bracket
polynomial is a polynomial whose variables are brackets, so
``BracketPolynomial`` is a ``Polynomial`` whose ring's atoms are bracket
keys, sorted by their labels: it stores, multiplies, reads and writes
packed terms like any polynomial, and only its atom order and the text of
a bracket factor are its own.  Its terms are written by ``Ring.write`` in
descending key order, the coordinate writer's lex order: at the first
bracket where two terms differ, the one with more copies of it comes
first.  Working at the label level keeps meet/join output readable — the
printer emits ⟨i j k⟩ notation — while ``expand`` turns everything into an
honest coordinate polynomial and ``evaluate`` plugs in exact vectors
directly.

Expansion (``expander``) reads each bracket as a maximal minor of one
coordinate matrix through ``MinorEngine`` and maps each bracket polynomial
to coordinates on its packed terms, multiplying the brackets of a term as
coordinate polynomials.

Numeric evaluation writes each vector once as integers over the lcm of its
denominators and takes a bracket as an integer determinant over the product
of those denominators (``bracket_value``).  ``evaluator``, which serves
bracket-form lines, memoizes brackets by their columns, so one ``verify``
run computes each bracket once per distinct vector assignment.  It
evaluates a polynomial term by term, each term read off its packed key as
(bracket, exponent) pairs, and its canonical-basis sweep reads
all dim^k values off one pass over the terms: a bracket holding one extra
label is linear in that label's vector, so a term is its coefficient times
an outer product of one length-dim vector per label.

The labeled wedge here is the algebra of formal points: joins concatenate
labels with the sorting sign, meets follow the shuffle sum with formal
brackets as coefficients.  No rewriting (straightening) is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import lcm, prod
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .linalg import bareiss_determinant
from .poly import Polynomial, Ring, _add_term, _split_terms
from .polymatrix import MinorEngine
from .scalars import Scalar, normalize_scalar, parse_rational, power
from .variables import Variable, entry_var, extra_var, is_extra_id

Label = Union[int, str]

BracketKey = tuple[Label, ...]

# A bracket term: an optional coefficient, then its brackets.
_TERM_RE = re.compile(r"([0-9]+(?:/[0-9]+)?)?\s*((?:<[^>]*>)*)")
_BRACKET_RE = re.compile(r"<([^>]*)>")


class DimensionMismatch(ValueError):
    pass


class UnboundLabel(ValueError):
    """Evaluation hit a bracket label with no vector."""


def perm_sign_of_merge(seq: Sequence) -> int:
    """Sign of the permutation sorting seq; 0 when entries repeat."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                return 0
            if items[i] > items[j]:
                sign = -sign
    return sign


def parse_label(text: str) -> Label:
    """A positive integer point id, or an extra-vector identifier."""
    if text.isascii() and text.isdigit() and int(text) > 0:
        return int(text)
    if is_extra_id(text):
        return text
    raise ValueError(f"bad point label {text!r}: need a positive integer or an identifier")


def _label_key(label: Label):
    return (0, label) if isinstance(label, int) else (1, label)


def _bracket_sort_key(key: BracketKey):
    return tuple(map(_label_key, key))


def normalize_labels(labels: Sequence[Label]) -> tuple[int, tuple[Label, ...]]:
    """(sign, sorted labels); sign 0 when a label repeats."""
    if len(set(labels)) != len(labels):
        return 0, ()
    sign = perm_sign_of_merge(tuple(_label_key(l) for l in labels))
    return sign, tuple(sorted(labels, key=_label_key))


def _text_factor(key: BracketKey, exp: int) -> str:
    return ("<" + " ".join(map(str, key)) + ">") * exp


def _pretty_factor(key: BracketKey, exp: int) -> str:
    return ("⟨" + " ".join(map(str, key)) + "⟩") * exp


class BracketPolynomial(Polynomial):
    """Polynomial whose variables are formal brackets of column labels: its
    ring's atoms are bracket keys.  The ring operations are ``Polynomial``'s."""

    __slots__ = ()

    _atom_key = staticmethod(_bracket_sort_key)

    @staticmethod
    def bracket(labels: Sequence[Label]) -> "BracketPolynomial":
        sign, key = normalize_labels(labels)
        if sign == 0:
            return BracketPolynomial.zero()
        return Ring(BracketPolynomial, (key,), 1).polynomial({1: sign})

    # -- output -----------------------------------------------------------

    def pretty(self) -> str:
        """⟨a b c⟩ factors per term, a coefficient of 1 or -1 left out."""
        return self._ring.write(self._packed, _pretty_factor, units=False)

    def __repr__(self):
        return f"BracketPolynomial({self.pretty()})"

    def to_text(self) -> str:
        """ASCII file form: coefficient then <a b c> factors per term."""
        return self._ring.write(self._packed, _text_factor)

    @staticmethod
    def from_text(text: str) -> "BracketPolynomial":
        """The polynomial a bracket line writes, its terms packed in one ring
        over the line's brackets.  Every term has a coefficient or a bracket."""
        text = text.strip()
        if text == "0":
            return BracketPolynomial.zero()
        read: list[tuple[list[BracketKey], Scalar]] = []
        for sign, body in _split_terms(text):
            m = _TERM_RE.fullmatch(body)
            if not m or not (m.group(1) or m.group(2)):
                raise ValueError(f"bad bracket term: {body!r}")
            coeff = sign * (parse_rational(m.group(1)) if m.group(1) else 1)
            keys = []
            for group in _BRACKET_RE.findall(m.group(2)):
                labels = tuple(parse_label(tok) for tok in group.split())
                if not labels:
                    raise ValueError(f"empty bracket in term: {body!r}")
                key_sign, key = normalize_labels(labels)
                coeff *= key_sign
                keys.append(key)
            if coeff:
                read.append((keys, coeff))
        # A term's bracket count bounds each of its exponents.
        degree = max((len(keys) for keys, _ in read), default=0)
        ring = Ring(BracketPolynomial, (key for keys, _ in read for key in keys), degree)
        terms: dict[int, Scalar] = {}
        for keys, coeff in read:
            _add_term(terms, ring.pack((key, 1) for key in keys), coeff)
        return ring.polynomial(terms)

    def labels(self) -> set[Label]:
        return {label for key in self.support() for label in key}

    # -- expansion and evaluation ---------------------------------------------

    def expand(self, dim: int, column: Callable[[Label], Sequence[Polynomial]] | None = None) -> Polynomial:
        """Replace each bracket by its determinant polynomial and multiply
        out each term.

        The default column map sends integer labels to matrix-entry columns
        and string labels to extra-vector columns.
        """
        return expander(dim, column)([self])[0]

    def evaluate(self, vectors: Mapping[Label, Sequence[Scalar]]) -> Scalar:
        """Exact value with every label bound to a concrete vector."""
        return evaluator(vectors)(self)


def expander(
    dim: int, column: Callable[[Label], Sequence[Polynomial]] | None = None
) -> Callable[[Sequence[BracketPolynomial]], list[Polynomial]]:
    """Coordinate expansion of a sequence of bracket polynomials, sharing one
    bracket->polynomial cache across calls.

    The brackets a call meets first, in all its polynomials, are maximal
    minors of one matrix, whose columns are their labels' columns, so they
    share one MinorEngine; when ``column`` gives the columns of one ring
    that holds those minors, they are polynomials of that ring.  A
    polynomial expands on its packed terms, the ring map sending each
    bracket to its minor: a term of one bracket is its cached expansion
    scaled by the coefficient; a term of several brackets is the ring
    product of their cached expansions.  The coordinate generators expand
    matrices of single brackets and read their polynomials off as minors;
    only the tests expand bracket products (``pascal_gc_quartic``).
    """
    column = column or (lambda label: symbolic_column(label, dim))
    cache: dict[BracketKey, Polynomial] = {}

    def expand_brackets(keys: list[BracketKey]) -> None:
        for key in keys:
            if len(key) != dim:
                raise DimensionMismatch(f"bracket {key} has {len(key)} columns in dimension {dim}")
        labels = list(dict.fromkeys(label for key in keys for label in key))
        cols = [column(label) for label in labels]
        engine = MinorEngine([[col[i] for col in cols] for i in range(dim)])
        at = {label: j for j, label in enumerate(labels)}
        rows = tuple(range(dim))
        for key in keys:
            cache[key] = engine.minor(rows, tuple(at[label] for label in key))

    def key_power(key: BracketKey, exp: int) -> Polynomial:
        return reduce(mul, [cache[key]] * exp)

    def product_of(factors: list[Polynomial]) -> Polynomial:
        return reduce(mul, factors)

    def expand_one(poly: BracketPolynomial) -> Polynomial:
        total = Polynomial.zero()
        for coeff, factors in poly._ring.fold(poly._packed, key_power, product_of):
            total = total + (product_of(factors).scale(coeff) if factors else Polynomial.constant(coeff))
        return total

    def expand(polys: Sequence[BracketPolynomial]) -> list[Polynomial]:
        keys = dict.fromkeys(key for poly in polys for key in poly._ring.held(poly._packed))
        new = [key for key in keys if key not in cache]
        if new:
            expand_brackets(new)
        return [expand_one(poly) for poly in polys]

    return expand


def _integer_column(vector: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """(integer vector, denominator) whose quotient is the given vector."""
    scale = lcm(*(c.denominator for c in vector))
    return tuple(c.numerator * (scale // c.denominator) for c in vector), scale


def integer_columns(vectors: Mapping[Label, Sequence[Scalar]]) -> dict[Label, tuple[tuple[int, ...], int]]:
    return {label: _integer_column(vec) for label, vec in vectors.items()}


def bracket_value(key: BracketKey, bound: Mapping[Label, tuple[tuple[int, ...], int]]) -> Scalar:
    """Exact value of a bracket whose labels ``bound`` maps to integer columns:
    their integer determinant over the product of their denominators."""
    try:
        cols = [bound[label] for label in key]
    except KeyError as exc:
        text = " ".join(map(str, key))
        raise UnboundLabel(f"bracket <{text}> has no vector for label {exc.args[0]}") from None
    lengths = {len(ints) for ints, _ in cols}
    if lengths != {len(key)}:
        raise DimensionMismatch(f"bracket {key} on vectors of length {sorted(lengths)}")
    got = bareiss_determinant(zip(*(ints for ints, _ in cols)))
    scale = prod(den for _, den in cols)
    return got if scale == 1 else normalize_scalar(Fraction(got, scale))


def _term_pairs(poly: BracketPolynomial) -> Iterator[tuple[Scalar, list[tuple[BracketKey, int]]]]:
    """Per term: its coefficient and its (bracket, exponent) pairs in atom order."""
    for coeff, runs in poly._ring.fold(poly._packed, lambda key, exp: (key, exp), tuple):
        yield coeff, [pair for run in runs for pair in run]


def evaluator(points: Mapping[Label, Sequence[Scalar]]) -> Callable[..., Scalar]:
    """``value(poly, extra=None)``: exact value with each label bound to its
    vector in ``extra``, else in ``points``.  ``value.sweep(poly, names, dim)``:
    the values at every canonical-basis assignment of ``names``.  All calls
    share one memo of bracket values keyed by their integer columns, and
    ``value.columns`` holds the points' columns (``integer_columns``).

    Both read a polynomial term by term and evaluate every bracket of a term
    in order, so an error names the first bad bracket of its terms.
    """
    columns = integer_columns(points)
    # The extra vectors of a run are a few distinct ones, met on every call.
    extra_columns: dict[tuple[Scalar, ...], tuple[tuple[int, ...], int]] = {}
    memo: dict[tuple, Scalar] = {}

    def extra_column(vector: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
        vector = tuple(vector)
        got = extra_columns.get(vector)
        if got is None:
            got = extra_columns[vector] = _integer_column(vector)
        return got

    def memo_value(key: BracketKey, bound: Mapping[Label, tuple]) -> Scalar:
        # An unbound label reads as None here, and bracket_value raises on it.
        cols = tuple(map(bound.get, key))
        got = memo.get(cols)
        if got is None:
            got = memo[cols] = bracket_value(key, bound)
        return got

    def term(pairs: list[tuple[BracketKey, int]], coeff: Scalar, bound: Mapping[Label, tuple]) -> Scalar:
        return coeff * prod([power(memo_value(key, bound), exp) for key, exp in pairs])

    def value(poly: BracketPolynomial, extra: Mapping[Label, Sequence[Scalar]] | None = None) -> Scalar:
        bound = {**columns, **{label: extra_column(vec) for label, vec in extra.items()}} if extra else columns
        return sum([term(pairs, coeff, bound) for coeff, pairs in _term_pairs(poly)])

    def sweep(poly: BracketPolynomial, names: Sequence[str], dim: int) -> list[Scalar]:
        """The value at each assignment of e_1..e_dim to ``names``, in
        ``itertools.product`` order (the last name varies fastest).

        A term whose brackets each hold at most one name factors by name:
        its value at (e_b1, e_b2, ...) is its coefficient, times its other
        brackets, times one entry per name of the entrywise product of that
        name's brackets at e_1..e_dim.  A term with a bracket holding two
        names is evaluated at each assignment.
        """
        basis = [extra_column([int(i == j) for i in range(dim)]) for j in range(dim)]
        swept, ones = set(names), [1] * dim
        total = [0] * dim ** len(names)
        for coeff, pairs in _term_pairs(poly):
            labels = [[label for label in key if label in swept] for key, _ in pairs]
            if any(len(each) > 1 for each in labels):
                for i, cols in enumerate(product(basis, repeat=len(names))):
                    total[i] += term(pairs, coeff, {**columns, **dict(zip(names, cols))})
                continue
            factors: dict[str, list[Scalar]] = {}
            for (key, exp), each in zip(pairs, labels):
                if not each:
                    coeff *= power(memo_value(key, columns), exp)
                    continue
                (name,) = each
                got = [power(memo_value(key, {**columns, name: col}), exp) for col in basis]
                factors[name] = list(map(mul, factors[name], got)) if name in factors else got
            if coeff == 0:
                continue
            values = [coeff]
            for name in names:
                values = [v * w for v in values for w in factors.get(name, ones)]
            total = list(map(add, total, values))
        return total

    value.sweep = sweep
    value.columns = columns
    return value


def column_variables(label: Label, dim: int) -> list[Variable]:
    """The coordinates x[1,label]..x[dim,label] of a label's column."""
    var = entry_var if isinstance(label, int) else extra_var
    return [var(r, label) for r in range(1, dim + 1)]


def symbolic_column(label: Label, dim: int) -> list[Polynomial]:
    return [Polynomial.variable(v) for v in column_variables(label, dim)]


# -- labeled exterior algebra ---------------------------------------------------


@dataclass(frozen=True)
class LabeledExtensor:
    """Sum of wedges of formal points with bracket-polynomial coefficients."""

    dim: int
    grade: int
    parts: Mapping[tuple[Label, ...], BracketPolynomial]

    @staticmethod
    def points(labels: Sequence[Label], dim: int) -> "LabeledExtensor":
        if len(labels) > dim:
            raise DimensionMismatch(f"{len(labels)} points exceed dimension {dim}")
        sign, key = normalize_labels(labels)
        if sign == 0:
            return LabeledExtensor(dim, len(labels), {})
        return LabeledExtensor(dim, len(labels), {key: BracketPolynomial.constant(sign)})

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts.values())


def labeled_join(v: LabeledExtensor, w: LabeledExtensor) -> LabeledExtensor:
    if v.dim != w.dim:
        raise DimensionMismatch("join of labeled extensors in different dimensions")
    grade = v.grade + w.grade
    parts: dict[tuple[Label, ...], BracketPolynomial] = {}
    if grade > v.dim:
        return LabeledExtensor(v.dim, v.dim, {})
    for a, ca in v.parts.items():
        for b, cb in w.parts.items():
            sign, key = normalize_labels(a + b)
            if sign == 0:
                continue
            add = (ca * cb).scale(sign)
            parts[key] = parts.get(key, BracketPolynomial.zero()) + add
    return LabeledExtensor(v.dim, grade, {k: p for k, p in parts.items() if not p.is_zero()})


def labeled_meet(v: LabeledExtensor, w: LabeledExtensor) -> LabeledExtensor:
    """Shuffle sum with formal brackets as coefficients."""
    if v.dim != w.dim:
        raise DimensionMismatch("meet of labeled extensors in different dimensions")
    d = v.dim
    k, j = v.grade, w.grade
    if k + j < d:
        return LabeledExtensor(d, 0, {})
    head = d - j
    parts: dict[tuple[Label, ...], BracketPolynomial] = {}
    for a, ca in v.parts.items():
        for positions in combinations(range(k), head):
            a1 = tuple(a[i] for i in positions)
            rest_pos = tuple(i for i in range(k) if i not in positions)
            rest = tuple(a[i] for i in rest_pos)
            shuffle_sign = perm_sign_of_merge(positions + rest_pos)
            for b, cb in w.parts.items():
                bracket = BracketPolynomial.bracket(a1 + b)
                if bracket.is_zero():
                    continue
                add = (ca * cb * bracket).scale(shuffle_sign)
                parts[rest] = parts.get(rest, BracketPolynomial.zero()) + add
    return LabeledExtensor(
        v.dim, k + j - d, {key: p for key, p in parts.items() if not p.is_zero()}
    )


def to_bracket_polynomial(v: LabeledExtensor) -> BracketPolynomial:
    """Collapse a top-grade labeled extensor into a single bracket polynomial."""
    if v.grade != v.dim:
        raise DimensionMismatch(f"grade {v.grade} is not top grade in dimension {v.dim}")
    total = BracketPolynomial.zero()
    for key, coeff in v.parts.items():
        total = total + coeff * BracketPolynomial.bracket(key)
    return total


def meet_then_join(dim: int, meets: Sequence[tuple[Sequence[Label], Sequence[Label]]],
                   joins: Iterable[Sequence[Label]] = ()) -> LabeledExtensor:
    """Left-to-right join of the pairwise meets, then of the point wedges of ``joins``."""
    factors = [labeled_meet(LabeledExtensor.points(a, dim), LabeledExtensor.points(b, dim))
               for a, b in meets]
    factors.extend(LabeledExtensor.points(labels, dim) for labels in joins)
    out = factors[0]
    for f in factors[1:]:
        out = labeled_join(out, f)
    return out

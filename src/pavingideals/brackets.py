"""Bracket polynomials over formal column labels.

A bracket ⟨a b c ...⟩ stands for the determinant of the matrix whose columns
are the named vectors.  Labels are either integer point ids or strings for
formal columns (auxiliary vectors, symbolic intersection points).  A bracket
polynomial is a polynomial whose variables are brackets, so
``BracketPolynomial`` is a ``Polynomial`` with its own monomials (sorted
tuples of bracket keys) and term order.  Working at the label level keeps
meet/join output readable — the printer emits ⟨i j k⟩ notation — while
``expand`` turns everything into an honest coordinate polynomial and
``evaluate`` plugs in exact vectors directly.

Numeric evaluation (``evaluator``) writes each vector once as integers over
the lcm of its denominators, takes a bracket as an integer determinant over
the product of those denominators, and memoizes it by its columns, so one
``verify`` run computes each bracket once per distinct vector assignment.
A polynomial evaluated more than once is compiled into a plan of per-bracket
value tables and index tuples, so each further evaluation is lookups and a
sum of products.

The labeled wedge here is the algebra of formal points: joins concatenate
labels with the sorting sign, meets follow the shuffle sum with formal
brackets as coefficients.  No rewriting (straightening) is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby
from math import lcm, prod
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, Sequence, Union

from .linalg import bareiss_determinant
from .poly import ExponentPacking, Polynomial, _split_terms
from .polymatrix import MinorEngine, Packed, _add_product
from .scalars import Scalar, format_rational, normalize_scalar, parse_rational
from .variables import entry_var, extra_var, is_extra_id

Label = Union[int, str]

BracketKey = tuple[Label, ...]
BracketMonomial = tuple[BracketKey, ...]


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


def _mono_sort_key(mono: BracketMonomial):
    return tuple(_bracket_sort_key(k) for k in mono)


def normalize_labels(labels: Sequence[Label]) -> tuple[int, tuple[Label, ...]]:
    """(sign, sorted labels); sign 0 when a label repeats."""
    if len(set(labels)) != len(labels):
        return 0, ()
    sign = perm_sign_of_merge(tuple(_label_key(l) for l in labels))
    return sign, tuple(sorted(labels, key=_label_key))


def _bracket_monomial_mul(a: BracketMonomial, b: BracketMonomial) -> BracketMonomial:
    return tuple(sorted(a + b, key=_bracket_sort_key))


class BracketPolynomial(Polynomial):
    """Polynomial whose variables are formal brackets of column labels.

    A monomial is the sorted tuple of its bracket keys, repeated by
    multiplicity; the ring operations are ``Polynomial``'s.
    """

    __slots__ = ()

    @staticmethod
    def bracket(labels: Sequence[Label]) -> "BracketPolynomial":
        sign, key = normalize_labels(labels)
        if sign == 0:
            return BracketPolynomial()
        return BracketPolynomial({(key,): sign})

    def _monomial_product(self):
        return _bracket_monomial_mul

    # A monomial's atoms are its brackets, and a repeat is a power.
    _atom_key = staticmethod(_bracket_sort_key)

    @staticmethod
    def _exponents(mono: BracketMonomial) -> list[tuple[BracketKey, int]]:
        return [(key, len(list(run))) for key, run in groupby(mono)]

    @staticmethod
    def _power(key: BracketKey, exp: int) -> BracketMonomial:
        return (key,) * exp

    def _sort_keys(self):
        """Terms in order of their sorted bracket sequences, shorter prefixes first."""
        return map(_mono_sort_key, self._terms)

    def support(self) -> set[BracketKey]:
        """The brackets that occur in some term."""
        return set().union(*self._terms)

    # -- output -----------------------------------------------------------

    def _render(self, left: str, right: str, unit_coefficients: bool) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for idx, (mono, coeff) in enumerate(self.sorted_terms()):
            body = "".join(left + " ".join(str(l) for l in key) + right for key in mono)
            if unit_coefficients or abs(coeff) != 1 or not mono:
                body = format_rational(abs(coeff)) + body
            if idx == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" {'-' if coeff < 0 else '+'} {body}")
        return "".join(chunks)

    def pretty(self) -> str:
        return self._render("⟨", "⟩", unit_coefficients=False)

    def __repr__(self):
        return f"BracketPolynomial({self.pretty()})"

    def to_text(self) -> str:
        """ASCII file form: coefficient then <a b c> factors per term."""
        return self._render("<", ">", unit_coefficients=True)

    @staticmethod
    def from_text(text: str) -> "BracketPolynomial":
        text = text.strip()
        if text == "0":
            return BracketPolynomial()
        terms: dict[BracketMonomial, Scalar] = {}
        for sign, body in _split_terms(text):
            m = re.match(r"^([0-9]+(?:/[0-9]+)?)?\s*((?:<[^>]*>)*)$", body)
            if not m:
                raise ValueError(f"bad bracket term: {body!r}")
            coeff = sign * (parse_rational(m.group(1)) if m.group(1) else 1)
            keys = []
            for group in re.findall(r"<([^>]*)>", m.group(2)):
                labels = tuple(parse_label(tok) for tok in group.split())
                if not labels:
                    raise ValueError(f"empty bracket in term: {body!r}")
                key_sign, norm = normalize_labels(labels)
                coeff = coeff * key_sign
                keys.append(norm)
            if coeff == 0:
                continue
            mono = tuple(sorted(keys, key=_bracket_sort_key))
            terms[mono] = terms.get(mono, 0) + coeff
        return BracketPolynomial(terms)

    def labels(self) -> set[Label]:
        out: set[Label] = set()
        for mono in self.terms:
            for key in mono:
                out.update(key)
        return out

    # -- expansion and evaluation ---------------------------------------------

    def expand(self, dim: int, column: Callable[[Label], Sequence[Polynomial]] | None = None) -> Polynomial:
        """Replace each bracket by its determinant polynomial.

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
    share one MinorEngine.  Where terms multiply brackets, the expansions are
    multiplied on packed exponent vectors (``ExponentPacking``) over the
    variables they hold: no exponent of a product of m brackets exceeds m
    times the largest exponent in one bracket, so fields sized for the
    longest bracket monomial never carry, and each polynomial is unpacked
    once.  A call whose terms hold at most one bracket each, such as a
    matrix of brackets, is a linear combination of expansions and packs
    nothing.
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

    def combine(terms) -> Polynomial:
        """Terms of at most one bracket each: a linear combination of expansions."""
        total = Polynomial.zero()
        for mono, coeff in terms:
            total = total + (cache[mono[0]].scale(coeff) if mono else Polynomial.constant(coeff))
        return total

    def expand_one(terms, packed: dict[BracketKey, Packed]) -> Packed:
        total: Packed = {}
        for mono, coeff in terms:
            factors = [packed[key] for key in mono] or [{0: 1}]
            product: Packed = {0: coeff}
            for factor in factors[:-1]:
                step: Packed = {}
                _add_product(step, product, factor, 1)
                product = step
            _add_product(total, product, factors[-1], 1)
        return total

    # One packing for every call, rebuilt only when a call brings a variable
    # or an exponent bound it lacks, so its unpacking tables stay warm.
    packing = ExponentPacking(Polynomial, (), 0)
    packing_pairs: set[tuple] = set()
    packing_bound = 0
    packed: dict[BracketKey, Packed] = {}

    def pack_brackets(keys: Iterable[BracketKey], longest: int) -> None:
        nonlocal packing, packing_bound
        fresh = [key for key in keys if key not in packed]
        pairs = set(chain.from_iterable(chain.from_iterable(cache[key].terms for key in fresh)))
        bound = longest * max((e for _, e in pairs | packing_pairs), default=0)
        if not pairs <= packing_pairs or bound > packing_bound:
            packing_pairs.update(pairs)
            packing_bound = max(bound, packing_bound)
            packing = ExponentPacking(Polynomial, packing_pairs, packing_bound)
            packed.clear()
            fresh = list(keys)
        for key in fresh:
            terms = cache[key].terms
            packed[key] = dict(zip(map(packing.pack, terms), terms.values()))

    def expand(polys: Sequence[BracketPolynomial]) -> list[Polynomial]:
        terms = [poly.sorted_terms() for poly in polys]
        keys = dict.fromkeys(k for each in terms for mono, _ in each for k in mono)
        new = [key for key in keys if key not in cache]
        if new:
            expand_brackets(new)
        longest = max((len(mono) for each in terms for mono, _ in each), default=0)
        if longest <= 1:
            return [combine(each) for each in terms]
        pack_brackets(keys, longest)
        out = []
        for each in terms:
            total = expand_one(each, packed)
            out.append(Polynomial._from_clean(dict(zip(packing.unpack(total.keys()), total.values()))))
        return out

    return expand


def _integer_column(vector: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """(integer vector, denominator) whose quotient is the given vector."""
    scale = lcm(*(c.denominator for c in vector))
    return tuple(c.numerator * (scale // c.denominator) for c in vector), scale


def evaluator(points: Mapping[Label, Sequence[Scalar]]) -> Callable[..., Scalar]:
    """``value(poly, extra=None)``: exact value with each label bound to its
    vector in ``extra``, else in ``points``; bracket values are shared by all calls.

    A polynomial's first call is evaluated term by term, so one-shot callers
    (a matrix evaluated entry by entry) build nothing more.  Its second call
    compiles it into a plan (``_Plan``): its distinct brackets in term order,
    one value table per bracket keyed by the vectors ``extra`` gives that
    bracket's labels (None for a label left to ``points``), and its terms as
    coefficients and bracket indices.  A call whose vectors every table has
    seen is then a few lookups and ``sum(coeff * prod(values))``; a bracket
    missing from its table is computed and checked in term order, so errors
    name the same first bad bracket as term-by-term evaluation does.
    """
    columns = {label: _integer_column(vec) for label, vec in points.items()}
    # The extra vectors of a sweep are a few distinct ones, met on every call.
    extra_columns: dict[tuple[Scalar, ...], tuple[tuple[int, ...], int]] = {}
    memo: dict[tuple, Scalar] = {}
    # id(poly) -> (poly, plan, or None after one call); holding the poly keeps
    # its id from being reused.
    plans: dict[int, tuple[BracketPolynomial, _Plan | None]] = {}

    def extra_column(vector: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
        vector = tuple(vector)
        got = extra_columns.get(vector)
        if got is None:
            got = extra_columns[vector] = _integer_column(vector)
        return got

    def bracket_value(key: BracketKey, bound: Mapping[Label, tuple]) -> Scalar:
        try:
            cols = tuple(bound[label] for label in key)
        except KeyError as exc:
            text = " ".join(map(str, key))
            raise UnboundLabel(f"bracket <{text}> has no vector for label {exc.args[0]}") from None
        got = memo.get(cols)
        if got is None:
            lengths = {len(ints) for ints, _ in cols}
            if lengths != {len(key)}:
                raise DimensionMismatch(f"bracket {key} on vectors of length {sorted(lengths)}")
            got = bareiss_determinant(zip(*(ints for ints, _ in cols)))
            scale = prod(den for _, den in cols)
            if scale != 1:
                got = normalize_scalar(Fraction(got, scale))
            memo[cols] = got
        return got

    def bind(extra: Mapping[Label, Sequence[Scalar]] | None) -> Mapping[Label, tuple]:
        if not extra:
            return columns
        return {**columns, **{label: extra_column(vec) for label, vec in extra.items()}}

    def term_by_term(poly: BracketPolynomial, extra: Mapping[Label, Sequence[Scalar]] | None) -> Scalar:
        bound = bind(extra)
        at: dict[BracketKey, Scalar] = {}
        total: Scalar = 0
        for mono, coeff in poly.terms.items():
            val: Scalar = coeff
            for key in mono:
                got = at.get(key)
                if got is None:
                    got = at[key] = bracket_value(key, bound)
                val = val * got
            total = total + val
        return total

    def fill(plan: _Plan, extra: Mapping[Label, Sequence[Scalar]]) -> list[Scalar]:
        """Bracket values of a call that missed a table, computed in term order."""
        extra = {label: tuple(vec) for label, vec in extra.items()}
        bound = bind(extra)
        vectors = list(map(extra.get, plan.labels))
        values = []
        for key, table_key, table in zip(plan.brackets, plan.table_keys, plan.tables):
            at = table_key(vectors)
            got = table.get(at)
            if got is None:
                got = table[at] = bracket_value(key, bound)
            values.append(got)
        return values

    def value(poly: BracketPolynomial, extra: Mapping[Label, Sequence[Scalar]] | None = None) -> Scalar:
        if not poly.terms:
            # A bracket matrix shares one zero polynomial among its entries.
            return 0
        entry = plans.get(id(poly))
        if entry is None or entry[0] is not poly:
            plans[id(poly)] = (poly, None)
            return term_by_term(poly, extra)
        plan = entry[1]
        if plan is None:
            plan = _Plan(poly)
            plans[id(poly)] = (poly, plan)
        extra = extra or {}
        # A list, not a tuple: tuple() of an iterator resizes its result, and
        # a sweep's worth of such tuples stays on CPython's tuple free list.
        vectors = list(map(extra.get, plan.labels))
        try:
            values = [table[key(vectors)] for key, table in zip(plan.table_keys, plan.tables)]
        except (KeyError, TypeError):  # a new vector, or an unhashable one
            values = fill(plan, extra)
        values.append(1)
        return sum(map(mul, plan.coeffs, map(prod, [factors(values) for factors in plan.factors])))

    return value


class _Plan:
    """A bracket polynomial compiled for repeated evaluation by one evaluator.

    ``table_keys[i](vectors)`` picks bracket i's labels out of the vectors a
    call gives the polynomial's ``labels``.  ``factors[t](values)`` picks
    term t's bracket values; an index one past the last bracket names a
    trailing 1, which pads every term to at least two factors so that each
    pick is a tuple.
    """

    __slots__ = ("labels", "brackets", "table_keys", "tables", "coeffs", "factors")

    def __init__(self, poly: BracketPolynomial):
        self.brackets: list[BracketKey] = list(dict.fromkeys(key for mono in poly.terms for key in mono))
        self.labels = tuple(dict.fromkeys(label for key in self.brackets for label in key))
        at = {label: i for i, label in enumerate(self.labels)}.__getitem__
        self.table_keys = [itemgetter(*map(at, key)) if key else _no_labels for key in self.brackets]
        self.tables: list[dict] = [{} for _ in self.brackets]
        index = {key: i for i, key in enumerate(self.brackets)}.__getitem__
        one = len(self.brackets)
        self.coeffs = list(poly.terms.values())
        self.factors = [itemgetter(*map(index, mono), *(one,) * (2 - len(mono))) for mono in poly.terms]


def _no_labels(vectors: list) -> tuple:
    return ()


def symbolic_column(label: Label, dim: int) -> list[Polynomial]:
    if isinstance(label, int):
        return [Polynomial.variable(entry_var(r, label)) for r in range(1, dim + 1)]
    return [Polynomial.variable(extra_var(r, label)) for r in range(1, dim + 1)]


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
                   joins: Sequence[Sequence[Label]] = ()) -> BracketPolynomial:
    """Join of pairwise meets (and plain point wedges), collapsed at top grade."""
    factors = [labeled_meet(LabeledExtensor.points(a, dim), LabeledExtensor.points(b, dim))
               for a, b in meets]
    factors.extend(LabeledExtensor.points(labels, dim) for labels in joins)
    out = factors[0]
    for f in factors[1:]:
        out = labeled_join(out, f)
    return to_bracket_polynomial(out)

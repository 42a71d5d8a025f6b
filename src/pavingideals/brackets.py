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

The labeled wedge here is the algebra of formal points: joins concatenate
labels with the sorting sign, meets follow the shuffle sum with formal
brackets as coefficients.  No rewriting (straightening) is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence, Union

from .linalg import bareiss_determinant
from .poly import Polynomial, _split_terms
from .polymatrix import PolyMatrix, determinant
from .scalars import Scalar, format_rational, parse_rational
from .variables import entry_var, extra_var

Label = Union[int, str]

BracketKey = tuple[Label, ...]
BracketMonomial = tuple[BracketKey, ...]


class DimensionMismatch(ValueError):
    pass


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


def _label_key(label: Label):
    return (0, label) if isinstance(label, int) else (1, label)


def _bracket_sort_key(key: BracketKey):
    return tuple(_label_key(l) for l in key)


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

    _term_key = staticmethod(_mono_sort_key)

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
                labels = tuple(
                    int(tok) if tok.isdigit() else tok for tok in group.split()
                )
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

    def rename_labels(self, mapping: Mapping[Label, Label]) -> "BracketPolynomial":
        total = BracketPolynomial.zero()
        for mono, coeff in self.terms.items():
            term = BracketPolynomial.constant(coeff)
            for key in mono:
                term = term * BracketPolynomial.bracket([mapping.get(l, l) for l in key])
            total = total + term
        return total

    # -- expansion and evaluation ---------------------------------------------

    def expand(self, dim: int, column: Callable[[Label], Sequence[Polynomial]] | None = None) -> Polynomial:
        """Replace each bracket by its determinant polynomial.

        The default column map sends integer labels to matrix-entry columns
        and string labels to extra-vector columns.
        """
        return expander(dim, column)(self)

    def evaluate(self, vectors: Mapping[Label, Sequence[Scalar]]) -> Scalar:
        """Exact value with every label bound to a concrete vector."""
        return evaluator(vectors)(self)


def expander(
    dim: int, column: Callable[[Label], Sequence[Polynomial]] | None = None
) -> Callable[[BracketPolynomial], Polynomial]:
    """Coordinate expansion sharing one bracket->polynomial cache across calls."""
    column = column or (lambda label: symbolic_column(label, dim))
    cache: dict[BracketKey, Polynomial] = {}

    def bracket_poly(key: BracketKey) -> Polynomial:
        got = cache.get(key)
        if got is None:
            if len(key) != dim:
                raise DimensionMismatch(
                    f"bracket {key} has {len(key)} columns in dimension {dim}"
                )
            cols = [column(label) for label in key]
            rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
            got = determinant(PolyMatrix.from_rows(rows))
            cache[key] = got
        return got

    def expand(poly: BracketPolynomial) -> Polynomial:
        total = Polynomial.zero()
        for mono, coeff in poly.sorted_terms():
            term = bracket_poly(mono[0]).scale(coeff) if mono else Polynomial.constant(coeff)
            for key in mono[1:]:
                term = term * bracket_poly(key)
            total = total + term
        return total

    return expand


def evaluator(vectors: Mapping[Label, Sequence[Scalar]]) -> Callable[[BracketPolynomial], Scalar]:
    """Exact evaluation sharing one bracket-value cache across calls."""
    cache: dict[BracketKey, Scalar] = {}

    def bracket_value(key: BracketKey) -> Scalar:
        got = cache.get(key)
        if got is None:
            cols = [vectors[label] for label in key]
            lengths = set(map(len, cols))
            if lengths != {len(key)}:
                raise DimensionMismatch(f"bracket {key} on vectors of length {sorted(lengths)}")
            got = bareiss_determinant(zip(*cols))
            cache[key] = got
        return got

    def evaluate(poly: BracketPolynomial) -> Scalar:
        total: Scalar = 0
        for mono, coeff in poly.terms.items():
            val: Scalar = coeff
            for key in mono:
                val = val * bracket_value(key)
            total = total + val
        return total

    return evaluate


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

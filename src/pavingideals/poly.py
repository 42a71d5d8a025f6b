"""Sparse multivariate polynomials over the rationals.

A monomial is a tuple of (Variable, exponent) pairs, sorted by the variable
order, with no zero exponents; the empty tuple is the constant monomial.  A
polynomial maps monomials to nonzero scalar coefficients, so two polynomials
are equal exactly when their dicts are equal — there is one representation
per polynomial and no floating point anywhere.

The text form used in generated files is one polynomial per line, terms
sorted by monomial order and joined with `` + `` / `` - ``::

    2 * x[1,3]^2 * x[2,q1] - 1/3 * x[1,4]

``from_text`` parses exactly this shape back; exponents are integers >= 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .scalars import Scalar, format_rational, normalize_scalar, parse_rational
from .variables import Variable, parse_variable

Monomial = Tuple[Tuple[Variable, int], ...]

CONST_MONO: Monomial = ()

_TERM_SEPARATOR_RE = re.compile(r" ([+-]) ")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _lex_key(m: Monomial):
    # A monomial with an earlier variable (or a higher power of it) comes
    # first.  Padding with a sentinel makes shorter prefixes sort after
    # their extensions' divisors correctly.
    key = []
    for v, e in m:
        key.append((0, v, -e))
    key.append((1,))
    return tuple(key)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = normalize_scalar(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self._terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._from_clean({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._from_clean({CONST_MONO: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({CONST_MONO: value})

    @staticmethod
    def variable(var: Variable) -> "Polynomial":
        return Polynomial({((var, 1),): 1})

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and CONST_MONO in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant {type(self).__name__}")
        return self._terms.get(CONST_MONO, 0)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(monomial_degree(m) for m in self._terms)

    def support(self) -> set[Variable]:
        # The distinct (variable, exponent) pairs are few; collect them in C.
        return {var for var, _ in set().union(*self._terms)}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring operations ------------------------------------------------
    #
    # Every result has the class of its operands, so a subclass with its own
    # variables only supplies the monomial product and the term order.

    @classmethod
    def _from_clean(cls, terms: dict[Monomial, Scalar]) -> "Polynomial":
        """Wrap a dict whose coefficients are already normalized and nonzero."""
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    def _coerce(self, value):
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction)):
            return self.constant(value)
        return NotImplemented

    def _monomial_product(self):
        # The module-level function, looked up per product so that a
        # rebinding of ``monomial_mul`` is seen.
        return monomial_mul

    _term_key = staticmethod(_lex_key)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, 0) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        return self._from_clean(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._from_clean({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return self.zero()
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        mul = self._monomial_product()
        terms: dict[Monomial, Scalar] = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                mono = mul(ma, mb)
                new = terms.get(mono, 0) + ca * cb
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        return self._from_clean(terms)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "Polynomial":
        value = normalize_scalar(value)
        if value == 0:
            return self.zero()
        if value == 1:
            return self
        return self._from_clean({m: c * value for m, c in self._terms.items()})

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Scalar:
        """Exact value at a full assignment of the support.

        Raises UnboundVariable listing every missing variable.
        """
        powers: dict[tuple[Variable, int], Scalar] = {}
        total: Scalar = 0
        for mono, coeff in self._terms.items():
            val: Scalar = coeff
            for var, exp in mono:
                key = (var, exp)
                p = powers.get(key)
                if p is None:
                    if var not in assignment:
                        raise UnboundVariable(sorted(v for v in self.support() if v not in assignment))
                    base = normalize_scalar(assignment[var])
                    p = base if exp == 1 else base**exp
                    powers[key] = p
                val = val * p
            total = total + val
        return normalize_scalar(total)

    def evaluate_partial(self, assignment: Mapping[Variable, Scalar]) -> "Polynomial":
        """Substitute a subset of the variables; a ring homomorphism."""
        powers: dict[tuple[Variable, int], Scalar] = {}
        terms: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            val: Scalar = coeff
            rest = []
            for pair in mono:
                var, exp = pair
                if var in assignment:
                    p = powers.get(pair)
                    if p is None:
                        p = powers[pair] = normalize_scalar(assignment[var]) ** exp
                    val = val * p
                else:
                    rest.append(pair)
            if val == 0:
                continue
            key = tuple(rest)
            new = terms.get(key, 0) + val
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = normalize_scalar(new)
        return self._from_clean(terms)

    # -- canonical form helpers ------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        key = self._term_key
        return sorted(self._terms.items(), key=lambda kv: key(kv[0]))

    def leading_coefficient(self) -> Scalar:
        if not self._terms:
            return 0
        return self._terms[min(self._terms, key=self._term_key)]

    def normalized_sign(self) -> tuple["Polynomial", int]:
        """(p, +1) or (-p, -1) so the leading coefficient is positive."""
        lead = self.leading_coefficient()
        if lead < 0:
            return -self, -1
        return self, 1

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for idx, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = format_rational(-coeff if coeff < 0 else coeff)
            factors = [mag]
            for var, exp in mono:
                factors.append(var.text() if exp == 1 else f"{var.text()}^{exp}")
            body = " * ".join(factors)
            if idx == 0:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    @staticmethod
    def from_text(text: str) -> "Polynomial":
        text = text.strip()
        if text == "0":
            return Polynomial()
        terms: dict[Monomial, Scalar] = {}
        # A line names a few dozen distinct factors thousands of times, so
        # each distinct factor text is parsed once per call.
        parsed: dict[str, tuple[Variable, int]] = {}
        for sign, body in _split_terms(text):
            factors = body.split("*")
            coeff: Scalar = sign * parse_rational(factors[0])
            mono: list[tuple[Variable, int]] = []
            for factor in factors[1:]:
                factor = factor.strip()
                pair = parsed.get(factor)
                if pair is None:
                    pair = parsed[factor] = _parse_factor(factor)
                mono.append(pair)
            key = tuple(sorted(mono))
            if len(dict(key)) != len(key):
                # A variable repeats inside the term: add its exponents.
                merged: dict[Variable, int] = {}
                for var, exp in key:
                    merged[var] = merged.get(var, 0) + exp
                key = tuple(merged.items())
            terms[key] = terms.get(key, 0) + coeff
        return Polynomial(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 70:
            text = text[:67] + "..."
        return f"Polynomial({text})"


class UnboundVariable(KeyError):
    """Evaluation hit variables with no assigned value."""

    def __init__(self, variables: Iterable[Variable]):
        self.variables = list(variables)
        names = ", ".join(v.text() for v in self.variables)
        super().__init__(f"unbound variables: {names}")

    def __str__(self) -> str:
        return self.args[0]


def _parse_factor(factor: str) -> tuple[Variable, int]:
    """``x[r,c]`` or ``x[r,c]^e`` as a (Variable, exponent) pair, e >= 1."""
    var_text, caret, exp_text = factor.partition("^")
    if not caret:
        return parse_variable(factor), 1
    try:
        exp = int(exp_text)
    except ValueError:
        exp = 0
    if exp < 1:
        raise ValueError(f"exponent must be a positive integer: {factor!r}")
    return parse_variable(var_text), exp


def _split_terms(text: str):
    """Yield (sign, body) for terms joined by ' + ' / ' - '."""
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    parts = _TERM_SEPARATOR_RE.split(text)
    yield sign, parts[0].strip()
    for i in range(1, len(parts), 2):
        yield (1 if parts[i] == "+" else -1), parts[i + 1].strip()

"""Sparse multivariate polynomials over the rationals.

A monomial is a tuple of (Variable, exponent) pairs, sorted by the variable
order, with no zero exponents; the empty tuple is the constant monomial.  A
polynomial maps monomials to nonzero scalar coefficients, so two polynomials
are equal exactly when their dicts are equal — there is one representation
per polynomial and no floating point anywhere.

Where a fixed set of variables meets many monomials, ``ExponentPacking``
writes each exponent vector as one int: the term order becomes int order, the
text form is written from the ints in descending order and, in a ring that
knows its exponent bound, a monomial product is one addition.

The text form used in generated files is one polynomial per line, terms
sorted lexicographically (earlier variables and higher powers first) and
joined with `` + `` / `` - ``::

    2 * x[1,3]^2 * x[2,q1] - 1/3 * x[1,4]

``from_text`` parses exactly this shape back, with free spacing around the
operators; coefficients, exponents (>= 1) and indices are ASCII digits.
``read_point_residual`` is the same reader, one loop over the terms, with
some variables bound: it multiplies their values into each term's
coefficient, so a verifier gets the small residual polynomial in the other
variables without the full expansion being built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain
from typing import Collection, Iterable, Mapping, Tuple

from .scalars import Scalar, format_rational, normalize_scalar, parse_integer, parse_rational, power
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


# Unpacking and writing read the atoms' fields in runs of at most this many
# atoms, one table lookup per run; the runs split the atoms evenly.
MAX_RUN_ATOMS = 10


class _RunTable(dict):
    """Value of a run of adjacent fields -> its atoms' powers joined: the
    monomial they make, or the text of their factors.

    An entry is built on first lookup; the terms of a minor repeat few values
    per run.
    """

    __slots__ = ("_power", "_join", "_fields", "_mask")

    def __init__(self, power, join, fields: list[tuple[object, int]], mask: int):
        self._power = power
        self._join = join
        self._fields = fields
        self._mask = mask

    def __missing__(self, value: int):
        power, mask = self._power, self._mask
        powers = [power(atom, e) for atom, shift in self._fields if (e := (value >> shift) & mask)]
        joined = self[value] = self._join(powers)
        return joined


class ExponentPacking:
    """Monomials of one ring over a fixed set of atoms, each as one int.

    The ring splits a monomial into (atom, exponent) pairs; the atoms are
    sorted in its order and each owns a bit field of ``bound.bit_length()``
    bits.  The first atom takes the most significant field, so descending
    int order is the lex term order.  While no exponent exceeds ``bound`` no
    field carries, and the product of two monomials is the sum of their ints.
    """

    def __init__(self, ring: type["Polynomial"], pairs: Collection[tuple[object, int]], bound: int):
        self._ring = ring
        self._atoms = sorted({atom for atom, _ in pairs}, key=ring._atom_key)
        self._width = width = bound.bit_length()
        # A bound of 0 leaves no atoms, and no field to place.
        shift = dict(zip(self._atoms, range(width * (len(self._atoms) - 1), -1, -width))) if width else {}
        # (atom, exponent) -> its packed int; a monomial packs to their sum.
        self.weight = {pair: pair[1] << shift[pair[0]] for pair in pairs}

    def pack(self, pairs: Iterable[tuple[object, int]]) -> int:
        """The int of the monomial with these (atom, exponent) pairs."""
        return sum(map(self.weight.__getitem__, pairs))

    def _run_tables(self, power, join) -> list[tuple[_RunTable, int, int]]:
        """Per run of atoms: its table, the shift of its last field, its mask."""
        width, atoms = self._width, self._atoms
        n_runs = -(-len(atoms) // MAX_RUN_ATOMS) or 1
        size = -(-len(atoms) // n_runs) or 1
        runs = []
        # With no atoms one empty run still maps 0 to the constant monomial (no text).
        for start in range(0, len(atoms), size) or [0]:
            run = atoms[start : start + size]
            low = width * (len(atoms) - start - len(run))
            fields = [(atom, width * i) for i, atom in zip(range(len(run) - 1, -1, -1), run)]
            table = _RunTable(power, join, fields, (1 << width) - 1)
            runs.append((table, low, (1 << width * len(run)) - 1))
        return runs

    @cached_property
    def _runs(self) -> list[tuple[_RunTable, int, int]]:
        return self._run_tables(cache(self._ring._power), lambda powers: tuple(chain.from_iterable(powers)))

    @cached_property
    def _text_runs(self) -> list[tuple[_RunTable, int, int]]:
        factor = cache(lambda var, e: f" * {var.text()}^{e}" if e > 1 else f" * {var.text()}")
        return self._run_tables(factor, "".join)

    def unpack(self, packed: Collection[int]) -> list[tuple]:
        """The ring's monomials: each the powers of its atoms, joined in atom order."""
        runs = [[table[value >> low & mask] for value in packed] for table, low, mask in self._runs]
        return reduce(lambda monos, run: list(map(tuple.__add__, monos, run)), runs)

    def write(self, packed: Mapping[int, Scalar]) -> str:
        """The coordinate text form of a packed polynomial: terms in descending
        key order, which is lex order, each written from its runs' texts."""
        if not packed:
            return "0"
        keys = sorted(packed, reverse=True)
        head = {c: (" - " if c < 0 else " + ") + format_rational(abs(c)) for c in set(packed.values())}
        runs = [[table[key >> low & mask] for key in keys] for table, low, mask in self._text_runs]
        text = "".join(chain.from_iterable(zip([head[packed[key]] for key in keys], *runs)))
        return text[3:] if text[1] == "+" else "-" + text[3:]


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients; a minor
    handed out packed (``_from_packed``) unpacks its terms on first use."""

    __slots__ = ("_terms", "_hash", "_packed")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = normalize_scalar(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self._terms = clean
        self._hash = None
        self._packed = None

    def __getattr__(self, name: str):
        # Only a polynomial made by ``_from_packed`` lacks its terms.
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        packing, packed = self._packed
        terms = self._terms = dict(zip(packing.unpack(packed), packed.values()))
        return terms

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

    # -- monomials as (atom, exponent) pairs -----------------------------
    #
    # A coordinate monomial already is its (variable, exponent) pairs in
    # variable order.  A subclass with other monomials says how one splits
    # into pairs, how its atoms sort, and which monomial a power of one atom
    # is; a monomial is its atoms' powers joined in atom order.

    _atom_key = None

    @staticmethod
    def _exponents(mono: Monomial) -> Iterable[tuple[Variable, int]]:
        return mono

    @staticmethod
    def _power(atom: Variable, exp: int) -> Monomial:
        return ((atom, exp),)

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
        poly._packed = None
        return poly

    @classmethod
    def _from_packed(cls, packing: ExponentPacking, packed: Mapping[int, Scalar]) -> "Polynomial":
        """Wrap packed terms, normalized and nonzero; they may be shared, never mutate them."""
        poly = cls.__new__(cls)
        poly._hash = None
        poly._packed = (packing, packed)
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

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
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

        Raises UnboundVariable listing every missing variable, and ValueError
        for a power past ``scalars.POWER_BIT_BUDGET``.
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
                    p = powers[key] = power(normalize_scalar(assignment[var]), exp)
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
                        p = powers[pair] = power(normalize_scalar(assignment[var]), exp)
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

    def _lex_packed(self) -> tuple[ExponentPacking, Mapping[int, Scalar]]:
        """The terms packed, in ``terms`` order, descending keys in lex order."""
        if self._packed is not None:
            return self._packed
        pairs = set().union(*self._terms)
        packing = ExponentPacking(Polynomial, pairs, max((exp for _, exp in pairs), default=0))
        return packing, dict(zip(map(packing.pack, self._terms), self._terms.values()))

    def _sort_keys(self) -> list[int]:
        """Per term, in ``terms`` order, a key; ascending keys are the term
        order: lex, earlier variables and higher powers first."""
        return [-key for key in self._lex_packed()[1]]

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        # Distinct monomials have distinct keys.
        by_key = dict(zip(self._sort_keys(), self._terms.items()))
        return [by_key[key] for key in sorted(by_key)]

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        packing, packed = self._lex_packed()
        return packing.write(packed)

    @staticmethod
    def from_text(text: str) -> "Polynomial":
        """The polynomial a line writes: ``read_point_residual``'s reader with
        no variable bound."""
        return Polynomial._from_clean(_read(text, {})[0])

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
    """``x[r,c]`` or ``x[r,c]^e`` as a (Variable, exponent) pair, e >= 1 in
    ASCII digits."""
    var_text, caret, exp_text = factor.partition("^")
    if not caret:
        return parse_variable(factor), 1
    exp_text = exp_text.strip()
    exp = parse_integer(exp_text) if exp_text.isascii() and exp_text.isdigit() else 0
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


# Bits per variable in a term's order-free key.  A sum that carries across
# fields can only make two monomials look alike, which costs speed, not
# exactness.
_KEY_FIELD = 32


def _monomial(pairs: Iterable[tuple[Variable, int]]) -> Monomial:
    """The monomial of a term's (variable, exponent) factors, in any order: the
    pairs sorted, the exponents of a repeated variable added."""
    key = tuple(sorted(pairs))
    if len(dict(key)) != len(key):
        merged: dict[Variable, int] = {}
        for var, exp in key:
            merged[var] = merged.get(var, 0) + exp
        key = tuple(merged.items())
    return key


def _read(text: str, points: Mapping[Variable, Scalar]) -> tuple[dict[Monomial, Scalar], set[Variable] | None]:
    """One line read with ``points`` substituted: the terms of the residual,
    the polynomial in the variables ``points`` leaves free, and, when
    ``points`` is not empty, the line's variables if they are the support of
    the polynomial it writes, else None.  They are when no coefficient is 0
    and the term keys are distinct, so no term cancels: a term's key is its
    residual monomial and the sum of exponent << field(variable) over its
    bound factors, and a shared key means a shared (or colliding) monomial.

    One loop reads the terms, coefficient first and then factors in order, so
    the first malformed text raises.  Each distinct signed coefficient is
    parsed once and each distinct written factor looked up once, as its
    pair, point value (None when free) and key weight (0 when free).
    """
    text = text.strip()
    if text == "0":
        return {}, set()
    coefficients: dict[tuple[int, str], Scalar] = {}
    parsed: dict[str, tuple[Variable, int]] = {}
    factors: dict[str, tuple[tuple[Variable, int], Scalar | None, int]] = {}
    fields: dict[Variable, int] = {}
    terms: dict[Monomial, Scalar] = {}
    keys: list[tuple[int, Monomial]] = []
    for sign, body in _split_terms(text):
        coeff_text, *written = body.split("*")
        coeff = coefficients.get((sign, coeff_text))
        if coeff is None:
            coeff = coefficients[sign, coeff_text] = sign * parse_rational(coeff_text)
        free = []
        key = 0
        for factor in written:
            read = factors.get(factor)
            if read is None:
                stripped = factor.strip()
                pair = parsed.get(stripped)
                if pair is None:
                    pair = parsed[stripped] = _parse_factor(stripped)
                var, exp = pair
                value = power(normalize_scalar(points[var]), exp) if var in points else None
                weight = 0 if value is None else exp << fields.setdefault(var, _KEY_FIELD * len(fields))
                read = factors[factor] = pair, value, weight
            pair, value, weight = read
            if value is None:
                free.append(pair)
            else:
                coeff *= value
                key += weight
        mono = _monomial(free)
        keys.append((key, mono))
        terms[mono] = terms.get(mono, 0) + coeff
    residual = {mono: normalize_scalar(c) for mono, c in terms.items() if c}
    if points and all(coefficients.values()) and len(set(keys)) == len(keys):
        return residual, {var for var, _ in parsed.values()}
    return residual, None


class PointResidual:
    """A coordinate polynomial read with point coordinates substituted.

    ``residual`` is the polynomial in the variables ``points`` leaves free
    (for a realization, the extra-vector coordinates), ``support`` the
    variables of the polynomial as written, after cancellation, and
    ``points`` the substitution it was read against.
    """

    __slots__ = ("residual", "support", "points")

    def __init__(self, residual: Polynomial, support: frozenset[Variable], points: Mapping[Variable, Scalar]):
        self.residual = residual
        self.support = support
        self.points = points


def read_point_residual(text: str, points: Mapping[Variable, Scalar]) -> PointResidual:
    """``from_text(text)`` with ``points`` substituted, without building it:
    equal to ``evaluate_partial(points)`` and ``support()`` of that polynomial.
    A line whose terms may cancel takes its support from the full polynomial."""
    terms, support = _read(text, points)
    if support is None:
        support = Polynomial.from_text(text).support()
    return PointResidual(Polynomial._from_clean(terms), frozenset(support), points)

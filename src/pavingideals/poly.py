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
operators; coefficients, exponents (>= 1) and indices are ASCII digits.  The
grammar of this "coordinate line" is in README.md, "Polynomial file
grammar".  ``read_point_residual`` is the same reader, one loop over the
terms, with some variables bound: it multiplies their values into each
term's coefficient, so a verifier gets the small residual polynomial in the
other variables without the full expansion being built.  The lines of one
file share a ``FactorTable``, so each written factor is parsed once per
file, and terms with the same free factors are summed before any monomial
is built.
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
    def from_text(text: str, table: "FactorTable | None" = None) -> "Polynomial":
        """The polynomial a line writes: ``read_point_residual``'s reader with
        no variable bound.  The lines of one file may share one ``table``
        with no points."""
        if table is None:
            table = FactorTable({})
        elif table.points:
            raise ValueError("a polynomial is read with a factor table of no points")
        return Polynomial._from_clean(_read(text, table)[0])

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


# Bits per variable in a term's order-free key: exponents up to 255 stay in
# their field.  A sum that carries across fields can only make two monomials
# look alike, which costs speed, not exactness; narrow keys keep a long
# line's per-term keys small.
_KEY_FIELD = 8


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


class FactorTable:
    """The written factors and coefficients of the lines of one file, each
    read once against the same ``points``.

    ``factors`` maps a factor's text, as written between the ``*`` of a term,
    to its (variable, exponent) pair, its point value (None when ``points``
    leaves the variable free) and its key weight (0 when free): exponent <<
    the variable's field.  ``coefficients`` maps (sign, written coefficient)
    to its value.  Lines share the table; each line still takes its support
    from the factors it uses itself.
    """

    __slots__ = ("points", "factors", "coefficients", "_parsed", "_fields")

    def __init__(self, points: Mapping[Variable, Scalar]):
        self.points = points
        self.factors: dict[str, tuple[tuple[Variable, int], Scalar | None, int]] = {}
        self.coefficients: dict[tuple[int, str], Scalar] = {}
        self._parsed: dict[str, tuple[Variable, int]] = {}
        self._fields: dict[Variable, int] = {}

    def read(self, factor: str) -> tuple[tuple[Variable, int], Scalar | None, int]:
        """Read a written factor into the table; a malformed one raises and
        is not kept."""
        stripped = factor.strip()
        pair = self._parsed.get(stripped)
        if pair is None:
            pair = self._parsed[stripped] = _parse_factor(stripped)
        var, exp = pair
        points = self.points
        if var in points:
            value = power(normalize_scalar(points[var]), exp)
            read = pair, value, exp << self._fields.setdefault(var, _KEY_FIELD * len(self._fields))
        else:
            read = pair, None, 0
        self.factors[factor] = read
        return read


def _read(text: str, table: FactorTable) -> tuple[dict[Monomial, Scalar], set[Variable] | None]:
    """One line read with the table's points substituted: the terms of the
    residual, the polynomial in the variables the points leave free, and,
    when there are points, the line's variables if they are the support of
    the polynomial it writes, else None.  They are when no coefficient is 0
    and the term keys are distinct, so no term cancels: a term's key is the
    hash of its free factors as written and the sum of its bound factors'
    key weights, and a shared key means a shared (or colliding) monomial.
    Two spellings of one free monomial (factors reordered, ``x[01,q]`` for
    ``x[1,q]``, ``x^2`` for ``x * x``) merge into one residual term and also
    answer None.

    One loop reads the terms, coefficient first and then factors in order, so
    the first malformed text raises.  Terms with the same written free factors
    are summed, and each such free part becomes a monomial once.
    """
    text = text.strip()
    if text == "0":
        return {}, set()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    # Bodies alternate with their signs; spaces left around a body are
    # stripped where its coefficient and factors are parsed.
    pieces = _TERM_SEPARATOR_RE.split(text)
    pieces[1::2] = [1 if op == "+" else -1 for op in pieces[1::2]]
    coefficients, known = table.coefficients, table.factors
    used: dict[str, tuple[tuple[Variable, int], Scalar | None, int]] = {}
    parts: dict[tuple[str, ...], Scalar] = {}
    keys: set[tuple[int, int]] = set()
    no_zero = True
    for i in range(0, len(pieces), 2):
        if i:
            sign = pieces[i - 1]
        coeff_text, *written = pieces[i].split("*")
        coeff = coefficients.get((sign, coeff_text))
        if coeff is None:
            coeff = coefficients[sign, coeff_text] = sign * parse_rational(coeff_text)
        if not coeff:
            no_zero = False
        free = []
        key = 0
        for factor in written:
            read = used.get(factor)
            if read is None:
                read = used[factor] = known.get(factor) or table.read(factor)
            _, value, weight = read
            if value is None:
                free.append(factor)
            else:
                coeff *= value
                key += weight
        free = tuple(free)
        # The free part by its hash: the split texts it holds are then freed.
        keys.add((key, hash(free)))
        parts[free] = parts.get(free, 0) + coeff
    terms: dict[Monomial, Scalar] = {}
    for free, coeff in parts.items():
        mono = _monomial([used[factor][0] for factor in free])
        terms[mono] = terms.get(mono, 0) + coeff
    residual = {mono: normalize_scalar(c) for mono, c in terms.items() if c}
    if table.points and no_zero and len(terms) == len(parts) and len(keys) == len(pieces) // 2 + 1:
        return residual, {pair[0] for pair, _, _ in used.values()}
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


def read_point_residual(
    text: str, points: Mapping[Variable, Scalar], table: FactorTable | None = None
) -> PointResidual:
    """``from_text(text)`` with ``points`` substituted, without building it:
    equal to ``evaluate_partial(points)`` and ``support()`` of that polynomial.
    The lines of one file share one ``table`` of ``points``.  A line whose
    terms may cancel takes its support from the full polynomial."""
    if table is None:
        table = FactorTable(points)
    elif table.points is not points:
        raise ValueError("factor table read against other points")
    terms, support = _read(text, table)
    if support is None:
        support = Polynomial.from_text(text).support()
    return PointResidual(Polynomial._from_clean(terms), frozenset(support), points)

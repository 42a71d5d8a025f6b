"""Sparse multivariate polynomials over the rationals, in one stored form.

A polynomial is a ring and a dict from packed monomial to nonzero scalar
coefficient; there is no floating point anywhere.  A ``Ring`` fixes a
sorted set of atoms (the variables ``x[r,c]`` of a ``Polynomial``, the
brackets of a ``BracketPolynomial``) and gives each a bit field of one
width, the first atom the most significant, so a monomial is one int: the
sum of each exponent shifted to its atom's field.  Descending int order is
the lex term order, and while no exponent passes the ring's bound no field
carries, so the product of two monomials is one int addition (Monagan &
Pearce, CASC 2007).  ``_add_product`` is the one polynomial product;
``MinorEngine`` expands minors with it.  Operands in different rings, or
whose product could pass their ring's bound, are first repacked into one
joined ring; equality and hashing do not depend on the ring.

Polynomials are built only through a ring (``Ring.polynomial`` of packed
terms, ``Ring.variable``), as constants (``zero``, ``one``, ``constant``),
by arithmetic, or by reading text.

The text form used in generated files is one polynomial per line, terms
sorted lexicographically (earlier variables and higher powers first) and
joined with `` + `` / `` - ``, written straight from the packed keys by
``Ring.write``, the one writer, which a bracket polynomial also uses::

    2 * x[1,3]^2 * x[2,q1] - 1/3 * x[1,4]

``from_text`` parses exactly this shape back, with free spacing around the
operators; coefficients, exponents (>= 1) and indices are ASCII digits.  The
grammar of this "coordinate line" is in README.md, "Polynomial file
grammar".  ``read_point_residual`` is the same reader, one loop over the
terms, with some variables bound: it multiplies their values into each
term's coefficient, so a verifier gets the small residual polynomial in the
other variables without the full expansion being built.  The lines of one
file share a ``FactorTable``, so each written factor is parsed once per
file, and terms with the same free factors are summed before their
monomial is packed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from math import prod
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping

from .scalars import Scalar, format_rational, normalize_scalar, parse_integer, parse_rational, power
from .variables import Variable, parse_variable

Packed = dict[int, Scalar]

_TERM_SEPARATOR_RE = re.compile(r" ([+-]) ")


def _add_product(total: Packed, a: Packed, b: Packed, sign: int) -> None:
    """total += sign * a * b, in place, for packed terms of one ring that
    holds the product's exponents."""
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


def _add_term(terms: Packed, key: int, coeff: Scalar) -> None:
    """terms[key] += coeff, in place, normalized; a term that cancels is dropped."""
    new = normalize_scalar(terms.get(key, 0) + coeff)
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


# Writing and folding read the atoms' fields in runs of at most this many
# atoms, one table lookup per run; the runs split the atoms evenly.
MAX_RUN_ATOMS = 10


class _RunTable(dict):
    """Value of a run of adjacent fields -> its atoms' powers joined: for
    example the monomial they make, or the text of their factors.

    An entry is built on first lookup; the terms of a polynomial repeat few
    values per run.
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


class Ring:
    """The monomials of one polynomial class over a fixed set of atoms, each
    packed into one int.

    The atoms are sorted in the class's atom order and each owns a bit field
    of ``width`` bits, the first atom the most significant, so descending
    int order is the lex term order.  Every exponent up to ``bound`` fits a
    field; while a product's exponents stay within it no field carries, and
    the product of two monomials is the sum of their ints.
    """

    def __init__(self, poly_class: type["Polynomial"], atoms: Iterable, bound: int):
        self.poly_class = poly_class
        self.atoms = sorted(set(atoms), key=poly_class._atom_key)
        self.width = width = max(bound, 1).bit_length()
        self.bound = (1 << width) - 1
        self.shift = dict(zip(self.atoms, range(width * (len(self.atoms) - 1), -1, -width)))
        self._writers: dict[Callable, list[tuple[_RunTable, int, int]]] = {}

    def pack(self, pairs: Iterable[tuple[object, int]]) -> int:
        """The int of the monomial with these (atom, exponent) pairs; the
        exponents of a repeated atom add up."""
        shift = self.shift
        return sum([exp << shift[atom] for atom, exp in pairs])

    def polynomial(self, packed: Packed) -> "Polynomial":
        """A polynomial of these packed terms, normalized and nonzero; they
        may be shared, never mutate them."""
        return self.poly_class._wrap(self, packed)

    def variable(self, atom) -> "Polynomial":
        return self.polynomial({1 << self.shift[atom]: 1})

    def top(self, packed: Iterable[int]) -> int:
        """A bound on the exponents of these monomials, below twice the
        largest: the largest field of their bitwise or."""
        bits, mask = reduce(or_, packed, 0), self.bound
        return max([bits >> shift & mask for shift in self.shift.values()], default=0) if bits else 0

    def held(self, packed: Iterable[int]) -> list:
        """The atoms that some of these monomials hold, in atom order."""
        bits, mask = reduce(or_, packed, 0), self.bound
        return [atom for atom, shift in self.shift.items() if bits >> shift & mask] if bits else []

    def repack(self, poly: "Polynomial") -> Packed:
        """The terms of ``poly`` packed in this ring, which holds its atoms
        and exponents; its own when it is of this ring."""
        if poly._ring is self:
            return poly._packed
        shift = self.shift
        weights = poly._ring.fold(poly._packed, lambda atom, exp: exp << shift[atom], sum)
        return {sum(values): coeff for coeff, values in weights}

    def _run_tables(self, power, join) -> list[tuple[_RunTable, int, int]]:
        """Per run of atoms: its table, the shift of its last field, its mask."""
        width, atoms = self.width, self.atoms
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

    def fold(self, packed: Mapping[int, Scalar], power, join) -> Iterator[tuple[Scalar, list]]:
        """Per term, in order: its coefficient and, per run of atoms it holds,
        ``join`` of ``power(atom, exponent)`` over the run's atoms in atom
        order.  Each run value is joined once, when first met."""
        runs = None
        for key, coeff in packed.items():
            if key and runs is None:
                runs = self._run_tables(power, join)
            yield coeff, [table[value] for table, low, mask in runs if (value := key >> low & mask)] if key else []

    def write(self, packed: Mapping[int, Scalar], factor: Callable[[object, int], str], units: bool = True) -> str:
        """The text form of packed terms: in descending key order, which is
        lex order, each its coefficient and then ``factor(atom, exponent)``
        of each atom it holds.  With ``units`` false a coefficient of 1 or
        -1 is written as its sign alone, except on the constant term.  Each
        factor function gets one set of run tables per ring."""
        if not packed:
            return "0"
        runs = self._writers.get(factor)
        if runs is None:
            runs = self._writers[factor] = self._run_tables(cache(factor), "".join)
        keys = sorted(packed, reverse=True)
        head = {c: _head(c, units) for c in set(packed.values())}
        heads = [head[packed[key]] for key in keys]
        if not keys[-1]:
            heads[-1] = _head(packed[0], True)
        texts = [[table[key >> low & mask] for key in keys] for table, low, mask in runs]
        text = "".join(chain.from_iterable(zip(heads, *texts)))
        return text[3:] if text[1] == "+" else "-" + text[3:]


def _head(coeff: Scalar, units: bool) -> str:
    """A term's sign and coefficient as written before its factors."""
    return (" - " if coeff < 0 else " + ") + (format_rational(abs(coeff)) if units or abs(coeff) != 1 else "")


def _coordinate_factor(var: Variable, exp: int) -> str:
    return f" * {var.text()}^{exp}" if exp > 1 else f" * {var.text()}"


@cache
def _bare_ring(poly_class: type["Polynomial"]) -> Ring:
    """The ring of a class with no atoms: its constants'."""
    return Ring(poly_class, (), 0)


def joined_ring(rings: Iterable[Ring], bound: int) -> Ring:
    """A ring holding the atoms of all these rings with every exponent up to
    ``bound``: the one of them with the most atoms when it does, else a new
    ring over them all."""
    rings = list(dict.fromkeys(rings))
    widest = max(rings, key=lambda ring: len(ring.atoms))
    atoms = widest.shift.keys()
    if widest.bound >= bound and all(ring is widest or atoms >= ring.shift.keys() for ring in rings):
        return widest
    return Ring(widest.poly_class, chain.from_iterable(ring.atoms for ring in rings), bound)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients: packed
    terms over a ring."""

    __slots__ = ("_ring", "_packed")

    # -- constructors -------------------------------------------------

    def __init__(self, *_):
        raise TypeError(f"a {type(self).__name__} is built by a ring, a constant, arithmetic or from_text")

    @classmethod
    def _wrap(cls, ring: Ring, packed: Packed) -> "Polynomial":
        poly = cls.__new__(cls)
        poly._ring = ring
        poly._packed = packed
        return poly

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._wrap(_bare_ring(cls), {})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._wrap(_bare_ring(cls), {0: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = normalize_scalar(value)
        return cls._wrap(_bare_ring(cls), {0: value} if value else {})

    @staticmethod
    def variable(var: Variable) -> "Polynomial":
        return Ring(Polynomial, (var,), 1).variable(var)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return not self._packed or (len(self._packed) == 1 and 0 in self._packed)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant {type(self).__name__}")
        return self._packed.get(0, 0)

    def support(self) -> set:
        """The atoms that occur in some term."""
        return set(self._ring.held(self._packed))

    def __len__(self) -> int:
        return len(self._packed)

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            if type(other) is not type(self):
                return self.is_constant() and other.is_constant() and self.constant_value() == other.constant_value()
            if self._ring is other._ring or len(self) != len(other):
                return self._packed == other._packed
            ring = joined_ring((self._ring, other._ring), max(self._top(), other._top()))
            return ring.repack(self) == ring.repack(other)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # Equal polynomials hold the same atoms and coefficients, in any ring.
        return hash((frozenset(self._ring.held(self._packed)), sum(map(hash, self._packed.values()))))

    # The atom order of the class's rings; None sorts coordinate variables
    # by their own order.
    _atom_key = None

    # -- ring operations ------------------------------------------------
    #
    # Every result has the class of its operands, so a subclass with its own
    # atoms only supplies their order.

    def _coerce(self, value):
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction)):
            return self.constant(value)
        return NotImplemented

    def _top(self) -> int:
        return self._ring.top(self._packed)

    def _joined(self, other: "Polynomial", bound: int) -> tuple[Ring, Packed, Packed]:
        """One ring for both operands holding exponents up to ``bound``, and
        both operands' terms in it."""
        ring = joined_ring((self._ring, other._ring), bound)
        return ring, ring.repack(self), ring.repack(other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._packed:
            return other
        if not other._packed:
            return self
        bound = 0 if self._ring is other._ring else max(self._top(), other._top())
        ring, a, b = self._joined(other, bound)
        terms = dict(a)
        for mono, coeff in b.items():
            _add_term(terms, mono, coeff)
        return self._wrap(ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._wrap(self._ring, {m: -c for m, c in self._packed.items()})

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
        if not self._packed or not other._packed:
            return self.zero()
        ring, a, b = self._joined(other, self._top() + other._top())
        terms: Packed = {}
        _add_product(terms, a, b, 1)
        return self._wrap(ring, terms)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "Polynomial":
        value = normalize_scalar(value)
        if value == 0:
            return self.zero()
        if value == 1:
            return self
        return self._wrap(self._ring, {m: c * value for m, c in self._packed.items()})

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Scalar:
        """Exact value at a full assignment of the support.

        Raises UnboundVariable listing every missing variable, and ValueError
        for a power past ``scalars.POWER_BIT_BUDGET``.
        """

        def value(var: Variable, exp: int) -> Scalar:
            if var not in assignment:
                raise UnboundVariable(sorted(v for v in self.support() if v not in assignment))
            return power(normalize_scalar(assignment[var]), exp)

        terms = self._ring.fold(self._packed, value, prod)
        return normalize_scalar(sum([coeff * prod(values) for coeff, values in terms]))

    def evaluate_partial(self, assignment: Mapping[Variable, Scalar]) -> "Polynomial":
        """Substitute a subset of the variables; a ring homomorphism."""
        ring = self._ring

        def value(var: Variable, exp: int) -> Scalar:
            return power(normalize_scalar(assignment[var]), exp) if var in assignment else 1

        free = ~ring.pack((var, ring.bound) for var in ring.atoms if var in assignment)
        terms: Packed = {}
        for key, (coeff, values) in zip(self._packed, ring.fold(self._packed, value, prod)):
            _add_term(terms, key & free, coeff * prod(values))
        return self._wrap(ring, terms)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        return self._ring.write(self._packed, _coordinate_factor)

    @staticmethod
    def from_text(text: str, table: "FactorTable | None" = None) -> "Polynomial":
        """The polynomial a line writes: ``read_point_residual``'s reader with
        no variable bound.  The lines of one file may share one ``table``
        with no points."""
        if table is None:
            table = FactorTable({})
        elif table.points:
            raise ValueError("a polynomial is read with a factor table of no points")
        return _read(text, table)[0]

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


def _read(text: str, table: FactorTable) -> tuple[Polynomial, set[Variable] | None]:
    """One line read with the table's points substituted: the residual, the
    polynomial in the variables the points leave free, and,
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
    are summed, and each such free part is packed once, its factors'
    weights summed in a ring over the line's free variables.
    """
    text = text.strip()
    if text == "0":
        return Polynomial.zero(), set()
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
    pairs = [[used[factor][0] for factor in free] for free in parts]
    # A term's degree bounds each of its exponents, repeated variables too.
    degree = max((sum(e for _, e in each) for each in pairs), default=0)
    ring = Ring(Polynomial, (var for each in pairs for var, _ in each), degree)
    terms: Packed = {}
    for each, coeff in zip(pairs, parts.values()):
        key = ring.pack(each)
        terms[key] = terms.get(key, 0) + coeff
    residual = ring.polynomial({key: normalize_scalar(c) for key, c in terms.items() if c})
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
    residual, support = _read(text, table)
    if support is None:
        support = Polynomial.from_text(text).support()
    return PointResidual(residual, frozenset(support), points)

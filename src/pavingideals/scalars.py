"""Exact rational scalars.

Every number in this package is an exact rational: either a Python int or a
``fractions.Fraction``.  Fractions are always kept in lowest terms with a
positive denominator (the stdlib guarantees this), and no operation ever
rounds.  Ints are accepted everywhere a scalar is expected; they interoperate
with Fraction under arithmetic and compare/hash equal to the corresponding
Fraction, so mixed use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class NotRational(ValueError):
    """A value that is not an exact rational (a float, a bool, a list...)."""


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and 'p/q' strings to an exact scalar."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return normalize_scalar(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise NotRational(f"not an exact rational: {value!r}")


def normalize_scalar(value: Scalar) -> Scalar:
    """Prefer int over Fraction-with-denominator-one (canonical and faster)."""
    # Not isinstance: Fraction's ABC check is slow on the ints that pass here.
    if type(value) is Fraction and value.denominator == 1:
        return int(value)
    return value


def _is_integer(text: str) -> bool:
    # int() also takes other Unicode digits, '_' separators, a '+' and spaces.
    return text.isascii() and text.removeprefix("-").isdigit()


def parse_integer(text: str) -> int:
    """Parse an integer: ASCII digits with an optional leading '-'."""
    if not _is_integer(text):
        raise NotRational(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Scalar:
    """Parse 'n' or 'p/q' into an exact scalar: ASCII digits, with a leading
    '-' allowed on n and p only.  A q that reads 0 is named a zero
    denominator; any other text is checked for that shape before int()
    sees it.  Both raise NotRational."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if slash and den.strip().isdecimal() and int(den) == 0:
        raise NotRational(f"zero denominator: {text!r}")
    if not (_is_integer(num) and (den.isascii() and den.isdigit() or not slash)):
        raise NotRational(f"not an ASCII rational: {text!r}")
    return normalize_scalar(Fraction(int(num), int(den))) if slash else int(num)


# Digits per piece of a long int's text: below 640, CPython's least settable digit limit.
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def _int_text(n: int) -> str:
    """``str(n)`` in full, whatever the interpreter's int-to-str digit limit:
    a longer int is written in pieces of ``_PIECE_DIGITS`` digits."""
    if -_PIECE < n < _PIECE:
        return str(n)
    rest, pieces = abs(n), []
    while rest >= _PIECE:
        rest, low = divmod(rest, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(pieces))


def format_rational(value: Scalar) -> str:
    """Render an exact scalar as 'n' or 'p/q' (lowest terms), every digit."""
    value = normalize_scalar(value)
    if isinstance(value, int):
        return _int_text(value)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"

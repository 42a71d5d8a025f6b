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
    if isinstance(value, Fraction) and value.denominator == 1:
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
    '-' allowed on n and p only; q = 0 raises NotRational."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if slash:
        denominator = int(den)
        if denominator == 0:
            raise NotRational(f"zero denominator: {text!r}")
        value = normalize_scalar(Fraction(int(num), denominator))
    else:
        value = int(num)
    if not (_is_integer(num) and (den.isascii() and den.isdigit() or not slash)):
        raise NotRational(f"not an ASCII rational: {text!r}")
    return value


def format_rational(value: Scalar) -> str:
    """Render an exact scalar as 'n' or 'p/q' (lowest terms)."""
    value = normalize_scalar(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"

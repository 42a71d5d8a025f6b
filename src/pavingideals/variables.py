"""Polynomial variables.

Two kinds of variables occur:

* matrix entries ``x[r,p]`` — row ``r`` of the generic coordinate matrix,
  column the integer id ``p`` of a configuration point;
* coordinates of named extra vectors ``x[r,name]`` — row ``r`` of an
  auxiliary symbolic vector such as ``q1``.

A Variable is a NamedTuple, so tuple comparison gives the total order used
for canonical form: kind first ("entry" sorts before "extra"), then row,
then column.  Columns of the same kind always have the same type (int for
entries, str for extras), so comparisons never mix types.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

KIND_ENTRY = "entry"
KIND_EXTRA = "extra"

_EXTRA_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_VARIABLE_RE = re.compile(r"^x\[([0-9]+),([^\]]+)\]$")


class Variable(NamedTuple):
    kind: str
    row: int
    column: Union[int, str]

    def text(self) -> str:
        return f"x[{self.row},{self.column}]"


def entry_var(row: int, point: int) -> Variable:
    if row < 1 or point < 1:
        raise ValueError(f"matrix-entry indices are 1-based: ({row},{point})")
    return Variable(KIND_ENTRY, row, point)


def is_extra_id(name: str) -> bool:
    """An extra-vector name is an ASCII identifier."""
    return _EXTRA_ID_RE.fullmatch(name) is not None


def extra_var(row: int, name: str) -> Variable:
    if row < 1:
        raise ValueError(f"row index is 1-based: {row}")
    if not is_extra_id(name):
        raise ValueError(f"bad extra-vector id: {name!r}")
    return Variable(KIND_EXTRA, row, name)


def parse_variable(text: str) -> Variable:
    m = _VARIABLE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad variable syntax: {text!r}")
    row = int(m.group(1))
    col = m.group(2)
    if col.isascii() and col.isdigit():
        return entry_var(row, int(col))
    return extra_var(row, col)

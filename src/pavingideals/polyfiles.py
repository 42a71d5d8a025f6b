"""Reading and writing generated-polynomial files.

One polynomial per line, preceded by a provenance comment::

    # source: circuit B=[1, 2, 3]
    1 * x[1,1] * x[2,2] * x[3,3] - ...

Every generator is a minor of one signed-bracket matrix, so each line is
either its coordinate expansion (the coordinate text form) or, when that
expansion would be impractically large, the exact bracket text form
(factors like ``<1 2 q1>``) under an extra ``# form: bracket`` comment.
The k-minors of a restriction's liftability matrix with a symbolic q are
one ``LiftingMinors`` record: the source names N's points, its circuits
and q, ``# form: minors <k>`` follows, and one line holds the bracket
matrix, entries separated by ``,`` and rows by ``;``.  The record is read
off its source line, and k and the matrix line must be exactly the ones
written for it.  README.md, "Polynomial file grammar", gives the three
kinds of line in EBNF.  Given a realization's point coordinates, a
coordinate line is read straight into its point residual
(``poly.read_point_residual``), which is what ``verify`` evaluates; the full
expansion is then never built.  The coordinate lines of a file share one
``poly.FactorTable``, so each written factor is parsed once per file.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Mapping

from .brackets import BracketPolynomial
from .generators import ExtraVector, LabeledPolynomial, LiftingMinors
from .matroids import is_point_list
from .poly import FactorTable, Polynomial, Scalar, Variable, read_point_residual
from .scalars import parse_integer

_RECORD_LABEL = re.compile(r"lifting N=(\[[^]]*\]) rows=(\[.*\]) q=(\S+)")


def render_polynomials(items: Iterable[LabeledPolynomial | LiftingMinors]) -> str:
    lines: list[str] = []
    for item in items:
        lines.append(f"# source: {item.label}")
        if isinstance(item, LiftingMinors):
            if not item.q.is_symbolic:
                raise ValueError("a minors record names a symbolic extra vector")
            lines.append(f"# form: minors {item.k}")
            lines.append(_matrix_line(item))
        elif isinstance(item.polynomial, BracketPolynomial):
            lines.append("# form: bracket")
            lines.append(item.polynomial.to_text())
        else:
            lines.append(item.polynomial.to_text())
    return "\n".join(lines) + "\n"


def _matrix_line(record: LiftingMinors) -> str:
    return "; ".join(", ".join(e.to_text() for e in row) for row in record.matrix)


def _parse_record(label: str | None, k_text: str, line: str) -> LiftingMinors:
    """The record its source line names, once k and the matrix line are the
    ones ``render_polynomials`` writes for it."""
    got = _RECORD_LABEL.fullmatch(label or "")
    if not got:
        raise ValueError(f"minors record without a 'lifting N=... rows=... q=...' source: {label!r}")
    points, circuits = json.loads(got[1]), json.loads(got[2])
    if not (is_point_list(points) and isinstance(circuits, list) and all(map(is_point_list, circuits))):
        raise ValueError(f"minors record source names no point lists: {label!r}")
    if len(set(points)) != len(points):
        raise ValueError(f"minors record: N = {points} repeats a point")
    n = len(circuits[0]) if circuits else 0
    if not (n and all(len(c) == len(set(c)) == n and set(c) <= set(points) for c in circuits)):
        raise ValueError(f"minors record: its rows are not n > 0 distinct points each, within N = {points}")
    if len(set(map(frozenset, circuits))) != len(circuits):
        raise ValueError(f"minors record: it repeats a row of {circuits}")
    q = ExtraVector.from_json_dict({"symbolic": got[3]})
    record = LiftingMinors(tuple(points), tuple(map(tuple, circuits)), q)
    k = parse_integer(k_text)
    if k != record.k or k > len(circuits):
        raise ValueError(f"minors record: k = {k}, not |N| - n + 1 = {record.k} within {len(circuits)} rows")
    if line != _matrix_line(record):
        raise ValueError(f"minors record: the matrix is not the bracket matrix of {label!r}")
    return record


def parse_polynomials(
    text: str, points: Mapping[Variable, Scalar] | None = None
) -> list[LabeledPolynomial | LiftingMinors]:
    """The labeled polynomials and minors records of a file; with ``points``,
    each coordinate line is its ``PointResidual`` against them, and bracket
    lines and records are unchanged."""
    out: list[LabeledPolynomial | LiftingMinors] = []
    table = FactorTable({} if points is None else points)
    label = None
    form: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("source:"):
                label = body[len("source:") :].strip()
                form = []
            elif body.startswith("form:"):
                form = body[len("form:") :].split()
            continue
        if form[:1] == ["minors"]:
            out.append(_parse_record(label, " ".join(form[1:]), line))
        else:
            if form == ["bracket"] or "<" in line:
                poly = BracketPolynomial.from_text(line)
            elif points is None:
                poly = Polynomial.from_text(line, table)
            else:
                poly = read_point_residual(line, points, table)
            out.append(LabeledPolynomial(label or f"poly{len(out)}", poly))
        label = None
        form = []
    return out

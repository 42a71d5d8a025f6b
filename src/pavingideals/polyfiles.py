"""Reading and writing generated-polynomial files.

One polynomial per line, preceded by a provenance comment::

    # source: circuit B=[1, 2, 3]
    1 * x[1,1] * x[2,2] * x[3,3] - ...

Every generator is a minor of one signed-bracket matrix, so each line is
either its coordinate expansion (the coordinate text form) or, when that
expansion would be impractically large, the exact bracket text form
(factors like ``<1 2 q1>``) under an extra ``# form: bracket`` comment.
Both forms parse back losslessly.  Given a realization's point
coordinates, a coordinate line is read straight into its point residual
(``poly.read_point_residual``), which is what ``verify`` evaluates; the
full expansion is then never built.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .brackets import BracketPolynomial
from .generators import LabeledPolynomial
from .poly import Polynomial, Scalar, Variable, read_point_residual


def render_polynomials(items: Iterable[LabeledPolynomial]) -> str:
    lines: list[str] = []
    for labeled in items:
        lines.append(f"# source: {labeled.label}")
        if isinstance(labeled.polynomial, BracketPolynomial):
            lines.append("# form: bracket")
            lines.append(labeled.polynomial.to_text())
        else:
            lines.append(labeled.polynomial.to_text())
    return "\n".join(lines) + "\n"


def parse_polynomials(text: str, points: Mapping[Variable, Scalar] | None = None) -> list[LabeledPolynomial]:
    """The labeled polynomials of a file; with ``points``, each coordinate line
    is its ``PointResidual`` against them, and bracket lines are unchanged."""
    out: list[LabeledPolynomial] = []
    label = None
    bracket_form = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("source:"):
                label = body[len("source:") :].strip()
                bracket_form = False
            elif body.startswith("form:"):
                bracket_form = body[len("form:") :].strip() == "bracket"
            continue
        if bracket_form or "<" in line:
            poly = BracketPolynomial.from_text(line)
        elif points is None:
            poly = Polynomial.from_text(line)
        else:
            poly = read_point_residual(line, points)
        out.append(LabeledPolynomial(label or f"poly{len(out)}", poly))
        label = None
        bracket_form = False
    return out

"""Exact vanishing verification of generated polynomials on realizations.

Every check is an exact evaluation: a polynomial passes in ``zero`` mode
when its value is the zero scalar under each requested assignment of the
auxiliary symbolic vectors, and in ``nonzero`` mode when no assignment
evaluates to zero.  Assignments are explicit vectors per symbolic name, or
the canonical-basis sweep over every combination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .brackets import BracketPolynomial, DimensionMismatch, UnboundLabel, evaluator
from .generators import LabeledPolynomial
from .poly import Polynomial, UnboundVariable
from .realizations import Realization
from .scalars import Scalar, format_rational
from .variables import KIND_EXTRA, Variable, extra_var


@dataclass(frozen=True)
class VanishingCheck:
    poly_id: str
    assignment: tuple[tuple[str, tuple[Scalar, ...]], ...]
    value: Scalar
    passed: bool

    def to_json_dict(self, vector_texts: dict[tuple, list[str]]) -> dict:
        """The check as a JSON object; ``vector_texts`` keeps each assignment
        vector's formatted coordinates for the next check that names it."""
        assignment = {}
        for name, vec in self.assignment:
            text = vector_texts.get(vec)
            if text is None:
                text = vector_texts[vec] = [format_rational(c) for c in vec]
            assignment[name] = text
        return {
            "poly_id": self.poly_id,
            "assignment": assignment,
            "value": format_rational(self.value),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VanishingReport:
    checks: tuple[VanishingCheck, ...]
    expect: str

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_lines(self) -> str:
        # A sweep names a few distinct vectors in every check: format each once.
        texts: dict[tuple, list[str]] = {}
        return "\n".join(json.dumps(c.to_json_dict(texts), sort_keys=True) for c in self.checks)


def extra_names(poly) -> tuple[str, ...]:
    if isinstance(poly, BracketPolynomial):
        return tuple(sorted(l for l in poly.labels() if isinstance(l, str)))
    return tuple(sorted({v.column for v in poly.support() if v.kind == KIND_EXTRA}))


def canonical_basis_sweep(names: Sequence[str], dim: int) -> list[dict[str, tuple[int, ...]]]:
    """Every assignment of canonical basis vectors to the named extras."""
    basis = [tuple(1 if i == j else 0 for i in range(1, dim + 1)) for j in range(1, dim + 1)]
    out = []
    for pick in product(range(dim), repeat=len(names)):
        out.append({name: basis[i] for name, i in zip(names, pick)})
    return out


def evaluate_poly(
    poly,
    realization: Realization,
    extra: Mapping[str, Sequence[Scalar]],
    *,
    brackets: Callable[..., Scalar] | None = None,
) -> Scalar:
    """Exact value of an expanded or bracket-form polynomial; calls that pass
    one ``evaluator`` of the realization's points as ``brackets`` share it."""
    if isinstance(poly, BracketPolynomial):
        try:
            return (brackets or evaluator(realization.vectors))(poly, extra)
        except (UnboundLabel, DimensionMismatch):
            missing = [n for n in extra_names(poly) if n not in extra]
            if missing:
                raise UnboundVariable([extra_var(1, n) for n in missing]) from None
            raise
    full = dict(realization.assignment())
    full.update(_extra_assignment(extra))
    return poly.evaluate(full)


def _extra_assignment(extra: Mapping[str, Sequence[Scalar]]) -> dict[Variable, Scalar]:
    return {
        extra_var(r, name): value
        for name, vec in extra.items()
        for r, value in enumerate(vec, start=1)
    }


def _point_residual(
    poly: Polynomial, points: Mapping[Variable, Scalar]
) -> tuple[tuple[str, ...], Callable[[Mapping[str, Sequence[Scalar]]], Scalar]]:
    """The extra-vector names of ``poly`` and its value at an assignment of them.

    The point coordinates are substituted once; each assignment then
    evaluates only the residual in the extra variables.  Variables that
    neither the points nor the assignment bind raise UnboundVariable first,
    so a substitution that cancels their terms cannot hide them.
    """
    support = poly.support()
    open_vars = sorted(v for v in support if v not in points)
    residual = poly.evaluate_partial(points)

    def value(extra: Mapping[str, Sequence[Scalar]]) -> Scalar:
        values = _extra_assignment(extra)
        unbound = [v for v in open_vars if v not in values]
        if unbound:
            raise UnboundVariable(unbound)
        return residual.evaluate(values)

    return tuple(sorted({v.column for v in support if v.kind == KIND_EXTRA})), value


def verify_vanishing(
    polynomials: Iterable[LabeledPolynomial],
    realization: Realization,
    extra_assignments: Sequence[Mapping[str, Sequence[Scalar]]] | None = None,
    sweep: bool = False,
    expect: str = "zero",
) -> VanishingReport:
    """Evaluate each polynomial exactly on the realization.

    ``extra_assignments`` maps symbolic extra-vector names to concrete
    vectors, one dict per evaluation; ``sweep`` instead runs the full
    canonical-basis sweep over each polynomial's own symbolic names.
    Polynomials may be expanded or in bracket form.  Unassigned symbolic
    vectors raise UnboundVariable.
    """
    if expect not in ("zero", "nonzero"):
        raise ValueError("expect must be 'zero' or 'nonzero'")
    dim = realization.dim
    points = realization.assignment()
    brackets = evaluator(realization.vectors)
    checks: list[VanishingCheck] = []
    for labeled in polynomials:
        poly = labeled.polynomial
        if isinstance(poly, BracketPolynomial):
            names = extra_names(poly)
            value_at = partial(evaluate_poly, poly, realization, brackets=brackets)
        else:
            names, value_at = _point_residual(poly, points)
        if sweep:
            assigns: Sequence[Mapping[str, Sequence[Scalar]]] = canonical_basis_sweep(names, dim)
        elif extra_assignments is not None:
            assigns = extra_assignments
        else:
            assigns = [{}]
        for extra in assigns:
            key = tuple(sorted((n, tuple(v)) for n, v in extra.items() if n in names))
            value = value_at(extra)
            passed = (value == 0) if expect == "zero" else (value != 0)
            checks.append(VanishingCheck(labeled.label, key, value, passed))
    return VanishingReport(tuple(checks), expect)

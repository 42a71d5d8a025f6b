"""Exact vanishing verification of generated polynomials on realizations.

Every check is an exact evaluation: a polynomial passes in ``zero`` mode
when its value is the zero scalar under each requested assignment of the
auxiliary symbolic vectors, and in ``nonzero`` mode when no assignment
evaluates to zero.  Assignments are explicit vectors per symbolic name, or
the canonical-basis sweep over every combination.

Coordinate polynomials take the realization's point coordinates once and
evaluate the residual per assignment.  A ``PointResidual``, which
``polyfiles.parse_polynomials`` reads straight from a line given the point
coordinates, is that residual with the support of its polynomial; one read
against other points is refused.  Bracket-form polynomials share one
``brackets.evaluator`` per run, which computes each bracket once per
distinct tuple of columns and compiles a polynomial checked more than once
into per-bracket value tables, so a sweep check is a few lookups and a sum
of products.  The sweep yields each check's (name, vector) key directly,
and the report writes each polynomial id and vector once.

A ``LiftingMinors`` record is checked minor by minor without expanding
anything: per assignment its bracket matrix is evaluated once with the
run's evaluator, every k-minor is 0 when the exact rank is below k, and at
full rank each is one Bareiss determinant.  The checks carry the ids and
values its expanded minors would, in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .brackets import BracketPolynomial, DimensionMismatch, UnboundLabel, evaluator
from .generators import LabeledPolynomial, LiftingMinors
from .linalg import bareiss_determinant, matrix_rank
from .poly import PointResidual, Polynomial, UnboundVariable
from .realizations import Realization
from .scalars import Scalar, format_rational
from .variables import KIND_EXTRA, Variable, extra_var


@dataclass(frozen=True)
class VanishingCheck:
    poly_id: str
    # (name, vector) pairs sorted by name.
    assignment: tuple[tuple[str, tuple[Scalar, ...]], ...]
    value: Scalar
    passed: bool


@dataclass(frozen=True)
class VanishingReport:
    checks: tuple[VanishingCheck, ...]
    expect: str

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_lines(self) -> str:
        """One line per check, byte for byte ``json.dumps(obj, sort_keys=True)``
        of ``{"poly_id", "assignment": {name: [coordinates]}, "value", "pass"}``.

        A sweep repeats a few polynomial ids and vectors in every check, so
        each id, and each (name, vector) pair, is encoded once; each vector's
        coordinates are formatted once.  ``format_rational`` writes only
        digits, ``-`` and ``/``, which JSON quotes without escapes.
        """
        ids: dict[str, str] = {}
        pairs: dict[tuple, str] = {}
        vectors: dict[tuple, str] = {}

        def pair_text(pair: tuple[str, tuple]) -> str:
            name, vec = pair
            text = vectors.get(vec)
            if text is None:
                text = vectors[vec] = json.dumps([format_rational(c) for c in vec])
            text = pairs[pair] = f"{json.dumps(name)}: {text}"
            return text

        lines = []
        for check in self.checks:
            poly_id = ids.get(check.poly_id)
            if poly_id is None:
                poly_id = ids[check.poly_id] = json.dumps(check.poly_id)
            assignment = ", ".join([pairs.get(pair) or pair_text(pair) for pair in check.assignment])
            verdict = "true" if check.passed else "false"
            value = format_rational(check.value)
            lines.append(
                f'{{"assignment": {{{assignment}}}, "pass": {verdict}, "poly_id": {poly_id}, "value": "{value}"}}'
            )
        return "\n".join(lines)


def extra_names(poly) -> tuple[str, ...]:
    if isinstance(poly, LabeledPolynomial):
        return extra_names(poly.polynomial)
    if isinstance(poly, LiftingMinors):
        return tuple(sorted({name for row in poly.matrix for e in row for name in extra_names(e)}))
    if isinstance(poly, BracketPolynomial):
        return tuple(sorted(l for l in poly.labels() if isinstance(l, str)))
    return _extra_columns(poly.support if isinstance(poly, PointResidual) else poly.support())


def _extra_columns(support: Iterable[Variable]) -> tuple[str, ...]:
    return tuple(sorted({v.column for v in support if v.kind == KIND_EXTRA}))


def _basis_pairs(names: Sequence[str], dim: int) -> list[tuple[tuple[str, tuple[int, ...]], ...]]:
    """The canonical-basis sweep as (name, vector) pairs in the order of
    ``names``; every assignment shares the name's pair objects."""
    basis = [tuple(1 if i == j else 0 for i in range(1, dim + 1)) for j in range(1, dim + 1)]
    return list(product(*[[(name, e) for e in basis] for name in names]))


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


def _residual_value(
    residual: Polynomial, support: Iterable[Variable], points: Mapping[Variable, Scalar]
) -> tuple[tuple[str, ...], Callable[[Mapping[str, Sequence[Scalar]]], Scalar]]:
    """The extra-vector names of a polynomial with this support and its value
    at an assignment of them, from its residual after substituting ``points``.

    Each assignment evaluates only the residual in the extra variables.
    Variables that neither the points nor the assignment bind raise
    UnboundVariable first, so a substitution that cancels their terms cannot
    hide them.
    """
    open_vars = sorted(v for v in support if v not in points)

    def value(extra: Mapping[str, Sequence[Scalar]]) -> Scalar:
        values = _extra_assignment(extra)
        unbound = [v for v in open_vars if v not in values]
        if unbound:
            raise UnboundVariable(unbound)
        return residual.evaluate(values)

    return _extra_columns(support), value


def _minor_values(
    record: LiftingMinors, realization: Realization, extra: Mapping[str, Sequence[Scalar]], brackets
) -> list[Scalar]:
    """Every k-minor of the record at one assignment, in ``index_sets`` order."""
    m = [[evaluate_poly(e, realization, extra, brackets=brackets) for e in row] for row in record.matrix]
    index_sets = list(record.index_sets())
    if matrix_rank(m) < record.k:
        return [0] * len(index_sets)
    return [bareiss_determinant([[m[i][j] for j in cols] for i in rows]) for rows, cols in index_sets]


def verify_vanishing(
    polynomials: Iterable[LabeledPolynomial | LiftingMinors],
    realization: Realization,
    extra_assignments: Sequence[Mapping[str, Sequence[Scalar]]] | None = None,
    sweep: bool = False,
    expect: str = "zero",
) -> VanishingReport:
    """Evaluate each polynomial exactly on the realization.

    ``extra_assignments`` maps symbolic extra-vector names to concrete
    vectors, one dict per evaluation; ``sweep`` instead runs the full
    canonical-basis sweep over each polynomial's own symbolic names.
    Polynomials may be expanded, point residuals read against this
    realization's points, or in bracket form; a minors record stands for
    its minors.  Unassigned symbolic vectors raise UnboundVariable.
    """
    if expect not in ("zero", "nonzero"):
        raise ValueError("expect must be 'zero' or 'nonzero'")
    dim = realization.dim
    points = realization.assignment()
    brackets = evaluator(realization.vectors)
    read_against = None
    zero = expect == "zero"
    checks: list[VanishingCheck] = []

    def assignments(names: tuple[str, ...]) -> Iterator[tuple[tuple, Mapping[str, Sequence[Scalar]]]]:
        """(check key, assignment) pairs, made one at a time: a sweep's dicts
        are then freed as they go, which keeps the collector quiet."""
        if sweep:
            # The names are sorted, so each sweep's pairs are already a check's key.
            return ((pairs, dict(pairs)) for pairs in _basis_pairs(names, dim))
        return (
            (tuple(sorted((n, tuple(v)) for n, v in extra.items() if n in names)), extra)
            for extra in (extra_assignments if extra_assignments is not None else [{}])
        )

    for labeled in polynomials:
        if isinstance(labeled, LiftingMinors):
            assigns = list(assignments(extra_names(labeled)))
            columns = [_minor_values(labeled, realization, extra, brackets) for _, extra in assigns]
            for label, values in zip(labeled.minor_labels(), zip(*columns)):
                checks.extend(
                    VanishingCheck(label, key, v, (v == 0) == zero) for (key, _), v in zip(assigns, values)
                )
            continue
        poly = labeled.polynomial
        if isinstance(poly, BracketPolynomial):
            names = extra_names(poly)
            value_at = partial(evaluate_poly, poly, realization, brackets=brackets)
        elif isinstance(poly, PointResidual):
            # A file's residuals share one mapping, so it is compared once.
            if poly.points is not read_against:
                if poly.points != points:
                    raise ValueError(f"{labeled.label}: residual read against other points")
                read_against = poly.points
            names, value_at = _residual_value(poly.residual, poly.support, points)
        else:
            names, value_at = _residual_value(poly.evaluate_partial(points), poly.support(), points)
        for key, extra in assignments(names):
            value = value_at(extra)
            checks.append(VanishingCheck(labeled.label, key, value, (value == 0) == zero))
    return VanishingReport(tuple(checks), expect)

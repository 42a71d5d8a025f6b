"""Exact vanishing verification of generated polynomials on realizations.

Every check is an exact evaluation: a polynomial passes in ``zero`` mode
when its value is the zero scalar under each requested assignment of the
auxiliary symbolic vectors, and in ``nonzero`` mode when no assignment
evaluates to zero.  As ``verify --q`` chooses, extra vectors are left
unbound, swept over the canonical basis, or all bound to one vector.

Coordinate polynomials take the realization's point coordinates once and
evaluate the residual per assignment.  A ``PointResidual``, which
``polyfiles.parse_polynomials`` reads straight from a line given the point
coordinates, is that residual with the support of its polynomial; one read
against other points is refused.  Bracket-form lines share one
``brackets.evaluator`` per run, which computes each bracket once per
distinct tuple of columns.  A canonical-basis sweep of a bracket line is
one call of its ``sweep``, which reads every value off one pass over the
terms; its checks share one list of assignment keys per tuple of names.
The report writes each polynomial id and vector once.

A ``LiftingMinors`` record is checked minor by minor without expanding
anything: per value of its q the record evaluates its own matrix
(``LiftingMinors.matrix_at``), every k-minor is 0 when the exact rank is
below k, and at full rank each is one Bareiss determinant.  The checks
carry the ids and values its expanded minors would, in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .brackets import BracketPolynomial, DimensionMismatch, UnboundLabel, evaluator
from .generators import LabeledPolynomial, LiftingMinors
from .linalg import bareiss_determinant, matrix_rank
from .poly import PointResidual, Polynomial, UnboundVariable
from .realizations import Realization
from .scalars import Scalar, format_rational
from .variables import KIND_EXTRA, Variable, extra_var


class VanishingCheck(NamedTuple):
    poly_id: str
    # (name, vector) pairs sorted by name.
    assignment: tuple[tuple[str, tuple[Scalar, ...]], ...]
    value: Scalar
    passed: bool


@dataclass(frozen=True)
class VanishingReport:
    checks: tuple[VanishingCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_lines(self) -> str:
        """One line per check, byte for byte ``json.dumps(obj, sort_keys=True)``
        of ``{"poly_id", "assignment": {name: [coordinates]}, "value", "pass"}``.

        A sweep repeats a few polynomial ids, vectors and values in every
        check, so each id, and each (name, vector) pair, is encoded once; each
        vector's coordinates, and each distinct value, are formatted once.
        ``format_rational`` writes only digits, ``-`` and ``/``, which JSON
        quotes without escapes.
        """
        ids: dict[str, str] = {}
        pairs: dict[tuple, str] = {}
        vectors: dict[tuple, str] = {}
        values: dict[Scalar, str] = {}

        def pair_text(pair: tuple[str, tuple]) -> str:
            name, vec = pair
            text = vectors.get(vec)
            if text is None:
                text = vectors[vec] = json.dumps([format_rational(c) for c in vec])
            text = pairs[pair] = f"{json.dumps(name)}: {text}"
            return text

        lines = []
        for poly_id, assignment, value, passed in self.checks:
            poly_text = ids.get(poly_id)
            if poly_text is None:
                poly_text = ids[poly_id] = json.dumps(poly_id)
            assignment = ", ".join([pairs.get(pair) or pair_text(pair) for pair in assignment])
            verdict = "true" if passed else "false"
            text = values.get(value)
            if text is None:
                text = values[value] = format_rational(value)
            lines.append(
                f'{{"assignment": {{{assignment}}}, "pass": {verdict}, "poly_id": {poly_text}, "value": "{text}"}}'
            )
        return "\n".join(lines)


def extra_names(poly) -> tuple[str, ...]:
    if isinstance(poly, LiftingMinors):
        return (poly.q.name,)
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
    record: LiftingMinors, columns: Mapping[int, tuple[tuple[int, ...], int]], extra: Mapping[str, Sequence[Scalar]]
) -> list[Scalar]:
    """Every k-minor of the record at one assignment, in ``index_sets`` order,
    with the points at their integer ``columns``."""
    q = extra.get(record.q.name)
    if q is None:
        raise UnboundVariable([extra_var(1, record.q.name)])
    m = record.matrix_at(columns, q)
    index_sets = list(record.index_sets())
    if matrix_rank(m) < record.k:
        return [0] * len(index_sets)
    return [bareiss_determinant([[m[i][j] for j in cols] for i in rows]) for rows, cols in index_sets]


def verify_vanishing(
    polynomials: Iterable[LabeledPolynomial | LiftingMinors],
    realization: Realization,
    q: str | Sequence[Scalar] | None = None,
    expect: str = "zero",
) -> VanishingReport:
    """Evaluate each polynomial exactly on the realization.

    ``q`` binds the symbolic extra vectors as ``verify --q`` does: ``None``
    binds none, ``"canonical"`` runs the canonical-basis sweep over each
    polynomial's own names, and a vector is bound to every name.
    Polynomials may be expanded, point residuals read against this
    realization's points, or in bracket form; a minors record stands for
    its minors.  Unbound symbolic vectors raise UnboundVariable.
    """
    if expect not in ("zero", "nonzero"):
        raise ValueError("expect must be 'zero' or 'nonzero'")
    sweep = q == "canonical"
    if isinstance(q, str) and not sweep:
        raise ValueError(f"q must be None, 'canonical' or a vector, not {q!r}")
    vector = None if q is None or sweep else tuple(q)
    dim = realization.dim
    points = realization.assignment()
    brackets = evaluator(realization.vectors)
    # The names are sorted, so each sweep's pairs are already a check's key.
    basis_keys = cache(partial(_basis_pairs, dim=dim))
    read_against = None
    zero = expect == "zero"
    checks: list[VanishingCheck] = []

    def assignments(names: tuple[str, ...]) -> Iterator[tuple[tuple, Mapping[str, Sequence[Scalar]]]]:
        """(check key, assignment) pairs, made one at a time: a sweep's dicts
        are then freed as they go, which keeps the collector quiet."""
        keys = basis_keys(names) if sweep else [() if vector is None else tuple((n, vector) for n in names)]
        return ((pairs, dict(pairs)) for pairs in keys)

    def check(label: str, keyed: Iterable[tuple[tuple, Scalar]]) -> None:
        checks.extend(VanishingCheck(label, key, v, (v == 0) == zero) for key, v in keyed)

    for labeled in polynomials:
        if isinstance(labeled, LiftingMinors):
            assigns = list(assignments(extra_names(labeled)))
            columns = [_minor_values(labeled, brackets.columns, extra) for _, extra in assigns]
            checks.extend(
                VanishingCheck(label, key, v, (v == 0) == zero)
                for label, values in zip(labeled.minor_labels(), zip(*columns))
                for (key, _), v in zip(assigns, values)
            )
            continue
        poly = labeled.polynomial
        if isinstance(poly, BracketPolynomial):
            names = extra_names(poly)
            if sweep:
                check(labeled.label, zip(basis_keys(names), brackets.sweep(poly, names, dim)))
                continue
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
        check(labeled.label, ((key, value_at(extra)) for key, extra in assignments(names)))
    return VanishingReport(tuple(checks))

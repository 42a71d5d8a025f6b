"""Command-line interface.

Subcommands: validate, generate, sample, verify, gc, liftcheck.  All I/O is
UTF-8 JSON or plain text on files or stdio, and output is byte-identical
for identical inputs, seeds and budgets.

Exit codes: 0 success, 1 usage/parse error, 2 validation failure,
3 verification failure.  A subcommand that fails raises ``_Exit``; ``main``
is the one place that prints its single stderr line and returns its code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain
from pathlib import Path

from .brackets import Label, meet_then_join, parse_label, to_bracket_polynomial
from .generators import (
    ExtraVector,
    GraphData,
    HypothesisViolation,
    LabeledPolynomial,
    builtin_graph_data,
    builtin_graph_data_names,
    circuit_polynomials,
    emitted_graph_polynomial,
    graph_label,
    lifting_minors,
    lifting_polynomials,
)
from .matroids import (
    MatroidError,
    MatroidSchemaError,
    PavingMatroid,
    builtin_matroid,
    builtin_matroid_names,
)
from .polyfiles import parse_polynomials, render_polynomials
from .realizations import Realization
from .samplers import ResamplingExhausted, sample_realization
from .scalars import parse_integer, parse_rational
from .verify import verify_vanishing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

MATROID_PARSE_ERRORS = (json.JSONDecodeError, OSError, MatroidSchemaError)


class _Exit(Exception):
    """A failed subcommand: its exit code, and as its message the one line
    ``main`` prints to stderr."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


def _load_matroid(spec: str, invalid: str, family: bool = False) -> PavingMatroid:
    """The matroid a ``--matroid`` spec names: the JSON file at that path, else
    the builtin of that name.

    A spec that does not parse exits 1 with ``parse error:``, an invalid
    matroid exits 2 with ``<invalid>:``.  With ``family`` (``sample``), a
    name that is no file and no valid builtin exits 1 as an unknown family.
    """
    path = Path(spec)
    try:
        return PavingMatroid.from_json(path.read_text()) if path.exists() else builtin_matroid(spec)
    except MATROID_PARSE_ERRORS as exc:
        raise _Exit(EXIT_USAGE, f"parse error: {exc}")
    except MatroidError as exc:
        if family and not path.exists():
            raise _Exit(EXIT_USAGE, f"error: unknown realization family: {spec!r} ({exc})")
        raise _Exit(EXIT_VALIDATION, f"{invalid}: {exc}")


def _write_out(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot write {out}: {exc.strerror}")


def _parse_coords(text: str, dim: int) -> tuple:
    coords = tuple(parse_rational(c) for c in text.split(","))
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    if not any(coords):
        raise ValueError(f"extra vector is zero: {text!r}")
    return coords


def _parse_q(q: str, dim: int) -> list[ExtraVector]:
    if q == "symbolic":
        return [ExtraVector.symbolic("q")]
    if q == "canonical":
        return [ExtraVector.basis(i, dim) for i in range(1, dim + 1)]
    return [ExtraVector.concrete(_parse_coords(q, dim))]


# -- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    matroid = _load_matroid(args.matroid, "invalid")
    print(
        f"valid {matroid.rank}-paving matroid on {matroid.size} points, "
        f"{len(matroid.hyperplanes)} hyperplanes"
    )
    return EXIT_OK


def _generate_lifting(matroid, extras: list[ExtraVector], budget: int) -> list:
    """Per restriction with minor size k <= budget: its minors record for a
    symbolic q, its expanded minors for a concrete one (bracket text names
    symbolic vectors only)."""
    rank = matroid.rank
    subs = [s for s in matroid.full_rank_submatroids() if 0 < s.size - rank + 1 <= budget]
    items = []
    for sub in subs:
        for q in extras:
            if not q.is_symbolic:
                items.extend(lifting_polynomials(sub, q))
            elif (record := lifting_minors(sub, q)).k <= len(record.circuits):
                items.append(record)
    return items


def _builtin_graph_data(matroid) -> GraphData | None:
    """The worked-example data when ``matroid`` is that builtin matroid itself;
    a file matroid that only borrows a builtin name gets none."""
    name = matroid.name
    if name in builtin_graph_data_names() and builtin_matroid(name) == matroid:
        return builtin_graph_data(name)
    return None


def cmd_generate(args) -> int:
    matroid = _load_matroid(args.matroid, "invalid matroid")
    graph = args.which in ("graph", "all")
    data = None
    try:
        extras = _parse_q(args.q, matroid.rank)
        if args.budget_minor <= 0:
            raise ValueError("budgets must be positive")
        if graph and args.graph_data:
            payload = json.loads(Path(args.graph_data).read_text())
            data = GraphData.from_json_dict(matroid, payload)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"parse error: {exc}")
    if data is not None:
        try:
            data.validate()
        except HypothesisViolation as exc:
            raise _Exit(EXIT_VALIDATION, f"invalid graph data: {exc}")
    elif graph:
        data = _builtin_graph_data(matroid)
        if data is None:
            missing = f"no worked-example graph data for --matroid {args.matroid!r}"
            if args.which == "graph":
                raise _Exit(EXIT_VALIDATION, f"error: {missing}; pass --graph-data")
            print(f"note: {missing}; graph polynomials skipped", file=sys.stderr)
    items: list[LabeledPolynomial] = []
    if args.which in ("circuits", "all"):
        items.extend(circuit_polynomials(matroid))
    if args.which in ("lifting", "all"):
        items.extend(_generate_lifting(matroid, extras, args.budget_minor))
    if data is not None:
        label = graph_label(data.anchor, data.points, data.circuits, [e.label() for e in data.extras])
        items.append(LabeledPolynomial(label, emitted_graph_polynomial(data)))
    _write_out(render_polynomials(items), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    matroid = _load_matroid(args.matroid, "invalid matroid", family=True)
    try:
        realization = sample_realization(matroid, args.seed)
    except ResamplingExhausted as exc:
        raise _Exit(EXIT_VALIDATION, f"error: {exc}")
    _write_out(realization.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # The realization is loaded first, so coordinate lines are read straight
    # into point residuals; a fault in the polynomial file is still reported
    # before one in the realization.
    parse_errors = (OSError, json.JSONDecodeError, ValueError, KeyError)
    realization = bad_realization = None
    try:
        realization = Realization.from_json(Path(args.realization).read_text())
    except parse_errors as exc:
        bad_realization = exc
    try:
        points = realization.assignment() if realization is not None else None
        polys = parse_polynomials(Path(args.polys).read_text(), points)
        if bad_realization is not None:
            raise bad_realization
        q = args.q or None
        if q not in (None, "canonical"):
            q = _parse_coords(q, realization.dim)
    except parse_errors as exc:
        raise _Exit(EXIT_USAGE, f"parse error: {exc}")
    try:
        report = verify_vanishing(polys, realization, q, args.expect)
    except (KeyError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")
    _write_out(report.to_json_lines() + "\n", args.out)
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def _parse_point_list(text: str) -> tuple[Label, ...]:
    """Comma-separated positive integer point ids and extra-vector identifiers."""
    return tuple(parse_label(t.strip()) for t in text.split(","))


def cmd_gc(args) -> int:
    try:
        operands = [_parse_point_list(spec) for spec in args.extensors]
        # Lazy, so a bad --join label is reported after the operands' faults.
        joins = map(_parse_point_list, args.join or [])
        if args.op == "meet":
            if len(operands) != 2:
                raise ValueError("meet takes exactly two extensors")
            result = meet_then_join(args.dim, [operands], joins)
        else:
            result = meet_then_join(args.dim, [], chain(operands, joins))
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")
    if result.grade == args.dim:
        print(to_bracket_polynomial(result).pretty())
    elif result.is_zero():
        print("0")
    else:
        parts = []
        for key in sorted(result.parts, key=lambda k: tuple(str(x) for x in k)):
            coeff = result.parts[key].pretty()
            parts.append(f"({coeff}) * [{' '.join(str(l) for l in key)}]")
        print(" + ".join(parts))
    return EXIT_OK


def cmd_liftcheck(args) -> int:
    matroid = _load_matroid(args.matroid, "invalid")
    k = len(matroid.circuits_n())
    n = matroid.rank
    if matroid.liftable_sufficient():
        print(f"liftable: certified (|M| >= k+n: {matroid.size} >= {k + n})")
    else:
        print(f"inconclusive ({matroid.size} < {k + n})")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavingideals",
        description="Generators of matroid ideals for paving matroids, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = ", ".join(builtin_matroid_names())

    p = sub.add_parser("validate", help="validate a matroid JSON file or builtin name")
    p.add_argument("--matroid", required=True, help=f"path or builtin name ({names})")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("generate", help="emit circuit/lifting/graph polynomials")
    p.add_argument("--matroid", required=True)
    p.add_argument("--which", choices=("circuits", "lifting", "graph", "all"), default="all")
    p.add_argument(
        "--q", default="symbolic",
        help="the lifting family's auxiliary vector: symbolic | canonical | comma-separated "
        "rationals (graph polynomials keep their graph data's extra vectors)",
    )
    p.add_argument("--budget-minor", type=parse_integer, default=4)
    p.add_argument("--graph-data", help="GraphData JSON path (defaults to the builtin instance)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("sample", help="sample an exact rational realization")
    p.add_argument(
        "--matroid", "--family", dest="matroid", required=True,
        help=f"path or builtin name ({names}); needs a constructible order",
    )
    p.add_argument("--seed", type=parse_integer, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="evaluate generated polynomials on a realization")
    p.add_argument("--polys", required=True)
    p.add_argument("--realization", required=True)
    p.add_argument(
        "--q", help="canonical (basis sweep) or comma-separated rationals bound to every extra vector"
    )
    p.add_argument("--expect", choices=("zero", "nonzero"), default="zero")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gc", help="join/meet of labeled point extensors")
    p.add_argument("op", choices=("meet", "join"))
    p.add_argument("extensors", nargs="+", help="comma-separated point labels, e.g. 3,4")
    p.add_argument("--join", action="append", help="join the result with more points")
    p.add_argument("--dim", type=parse_integer, required=True)
    p.set_defaults(fn=cmd_gc)

    p = sub.add_parser("liftcheck", help="sufficient-liftability verdict")
    p.add_argument("--matroid", required=True)
    p.set_defaults(fn=cmd_liftcheck)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses, built on the first call, not at
    import.  Parsing leaves it unchanged: each call gets a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

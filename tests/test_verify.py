"""The verifier against a direct oracle.

``verify_vanishing`` substitutes a realization into a coordinate polynomial
once and evaluates the residual per extra-vector assignment.  The oracle
here evaluates the original polynomial on the full assignment for every
check, so any difference in a value, a verdict or an unbound-variable list
shows up.  Bracket-form polynomials go through one evaluator per run that
computes each bracket once per distinct tuple of columns, in integers, and
compiles a polynomial evaluated more than once into per-bracket value
tables; the tests below pin its output bytes, its determinant count, its
checks and its errors.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavingideals import brackets, verify
from pavingideals import poly as poly_module
from pavingideals.brackets import BracketPolynomial, DimensionMismatch, UnboundLabel, evaluator
from oracles import expand_records
from pavingideals.cli import main
from pavingideals.generators import ExtraVector, LabeledPolynomial, bracket, lifting_polynomials
from pavingideals.linalg import bareiss_determinant, echelon
from pavingideals.matroids import builtin_matroid
from pavingideals.polymatrix import MinorEngine
from pavingideals.poly import Polynomial, UnboundVariable, read_point_residual
from pavingideals.polyfiles import render_polynomials
from pavingideals.realizations import Realization
from pavingideals.samplers import sample_family
from pavingideals.scalars import format_rational
from pavingideals.variables import KIND_EXTRA, entry_var, extra_var
from pavingideals.verify import VanishingCheck, VanishingReport, evaluate_poly, verify_vanishing

EXTRAS = ("q1", "q2", "q3")


def var(v) -> Polynomial:
    return Polynomial.variable(v)


def random_factor(rng: random.Random, variables, n_terms: int) -> Polynomial:
    p = Polynomial.zero()
    for _ in range(n_terms):
        term = Polynomial.constant(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3)))
        for v in rng.sample(variables, rng.randint(0, 3)):
            for _ in range(rng.randint(1, 2)):
                term = term * var(v)
        p = p + term
    return p


def random_polynomials(rng: random.Random, realization: Realization, with_extras: bool):
    """Random coordinate polynomials, half of them multiples of a circuit."""
    dim = realization.dim
    entries = [entry_var(r, p) for r in range(1, dim + 1) for p in realization.vectors]
    lines = [sorted(h) for h in realization.matroid.hyperplanes if len(h) >= dim]
    out = []
    for i in range(12):
        names = rng.sample(EXTRAS, rng.randint(1, 3)) if with_extras else []
        extras = [extra_var(r, n) for n in names for r in range(1, dim + 1)]
        poly = random_factor(rng, entries + extras, rng.randint(1, 6))
        # Every chosen extra occurs at least once.
        for n in names:
            poly = poly + var(extra_var(rng.randint(1, dim), n)) * var(rng.choice(entries))
        if i % 2:
            # A circuit times anything vanishes on every realization,
            # whatever the extra vectors are.
            circuit = bracket(rng.sample(rng.choice(lines), dim), dim)
            poly = circuit * poly
        out.append(LabeledPolynomial(f"p{i}", poly))
    return out


def canonical_basis_sweep(names, dim: int) -> list[dict[str, tuple[int, ...]]]:
    """Every assignment of canonical basis vectors to the named extras, the
    last name varying fastest."""
    basis = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    return [dict(zip(names, vectors)) for vectors in product(basis, repeat=len(names))]


def full_assignment(realization: Realization, extra) -> dict:
    full = dict(realization.assignment())
    for name, vec in extra.items():
        for r, value in enumerate(vec, start=1):
            full[extra_var(r, name)] = value
    return full


def oracle_report(polys, realization, assignments_of, expect) -> VanishingReport:
    checks = []
    for labeled in polys:
        poly = labeled.polynomial
        names = tuple(sorted({v.column for v in poly.support() if v.kind == KIND_EXTRA}))
        for extra in assignments_of(names):
            value = poly.evaluate(full_assignment(realization, extra))
            passed = value == 0 if expect == "zero" else value != 0
            key = tuple(sorted((n, tuple(v)) for n, v in extra.items() if n in names))
            checks.append(VanishingCheck(labeled.label, key, value, passed))
    return VanishingReport(tuple(checks), expect)


def random_vector(rng: random.Random, dim: int) -> tuple:
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))


SAMPLES = [("qs", 0), ("qs", 5), ("fig2r", 0), ("fig2r", 2)]


@pytest.mark.parametrize("expect", ["zero", "nonzero"])
@pytest.mark.parametrize("family, seed", SAMPLES, ids=[f"{f}-{s}" for f, s in SAMPLES])
def test_verify_matches_full_evaluation_oracle(family, seed, expect):
    realization = sample_family(family, seed)
    dim = realization.dim
    rng = random.Random(f"{family}-{seed}-{expect}")
    polys = random_polynomials(rng, realization, with_extras=True)
    plain = random_polynomials(rng, realization, with_extras=False)
    explicit = [{n: random_vector(rng, dim) for n in EXTRAS} for _ in range(3)]
    explicit.append({n: canonical_basis_sweep([n], dim)[0][n] for n in EXTRAS})

    runs = [
        # --q canonical
        (polys, dict(sweep=True), lambda names: canonical_basis_sweep(names, dim)),
        # --q a,b,c (one vector for every name) and several explicit vectors
        (polys, dict(extra_assignments=explicit), lambda names: explicit),
        # no --q: only polynomials without extras evaluate
        (plain, {}, lambda names: [{}]),
    ]
    values = set()
    for items, kwargs, assignments_of in runs:
        got = verify_vanishing(items, realization, expect=expect, **kwargs)
        want = oracle_report(items, realization, assignments_of, expect)
        assert got.to_json_lines() == want.to_json_lines()
        assert got.all_pass == want.all_pass
        values.update(c.value == 0 for c in got.checks)
    # The data exercises both verdicts.
    assert values == {True, False}


def unbound_list(fn) -> list:
    with pytest.raises(UnboundVariable) as exc:
        fn()
    return exc.value.variables


def test_unbound_extra_is_reported_even_when_the_residual_vanishes():
    realization = sample_family("qs", 3)
    line = sorted(next(h for h in realization.matroid.hyperplanes if len(h) >= 3))[:3]
    circuit = bracket(line, 3)
    q1, q2 = extra_var(1, "q1"), extra_var(2, "q2")
    poly = circuit * (var(q1) + var(q2)) + var(q1) * var(entry_var(1, 1))
    labeled = [LabeledPolynomial("p", poly)]
    only_q1 = {"q1": (1, 2, 3)}
    want = unbound_list(lambda: poly.evaluate(full_assignment(realization, only_q1)))
    assert want == [q2]
    got = unbound_list(lambda: verify_vanishing(labeled, realization, extra_assignments=[only_q1]))
    assert got == want
    # No assignment at all: both extras are unbound.
    got = unbound_list(lambda: verify_vanishing(labeled, realization))
    assert got == unbound_list(lambda: poly.evaluate(realization.assignment()))
    # A vector shorter than the rows used leaves x[2,q2] unbound as well.
    short = {"q1": (1, 2, 3), "q2": (1,)}
    got = unbound_list(lambda: verify_vanishing(labeled, realization, extra_assignments=[short]))
    assert got == [q2]


def test_unbound_point_is_reported_even_when_its_terms_vanish():
    sampled = sample_family("qs", 3)
    vectors = dict(sampled.vectors)
    vectors[1] = (1, 0, 0)
    realization = Realization(sampled.matroid, vectors)
    missing = 99
    assert missing not in realization.vectors
    # Every term naming point 99 has a coordinate of point 1 that is zero.
    poly = (
        var(entry_var(2, 1)) * var(entry_var(1, missing))
        + var(entry_var(3, 1)) * var(entry_var(2, missing)) * var(extra_var(1, "q1"))
        + var(entry_var(1, 2)) * var(extra_var(2, "q1"))
        + var(entry_var(1, 3))
    )
    assert poly.evaluate_partial(realization.assignment()).support() == {extra_var(2, "q1")}
    labeled = [LabeledPolynomial("p", poly)]
    want = [entry_var(1, missing), entry_var(2, missing)]
    extra = {"q1": (0, 1, 0)}
    assert unbound_list(lambda: poly.evaluate(full_assignment(realization, extra))) == want
    assert unbound_list(lambda: verify_vanishing(labeled, realization, sweep=True)) == want
    assert unbound_list(lambda: verify_vanishing(labeled, realization, extra_assignments=[extra])) == want
    no_extras = [LabeledPolynomial("p", var(entry_var(2, 1)) * var(entry_var(1, missing)))]
    assert unbound_list(lambda: verify_vanishing(no_extras, realization)) == [entry_var(1, missing)]


# -- coordinate lines read against the points ----------------------------------------

READ_POINTS = {entry_var(r, p): v for (r, p), v in zip(
    [(r, p) for p in range(1, 5) for r in range(1, 4)],
    [3, -1, 0, Fraction(1, 2), 2, 1, Fraction(-7, 3), 0, 5, 1, -2, Fraction(9, 4)],
)}
# Bound and unbound point coordinates, and the coordinates of two extras.
READ_VARIABLES = (
    list(READ_POINTS)
    + [entry_var(r, 99) for r in (1, 2)]
    + [extra_var(r, name) for name in ("q1", "q2") for r in (1, 2, 3)]
)


def written_term(rng: random.Random, coeff, factors, first: bool) -> str:
    """One term as a person might write it: factors shuffled, a variable
    repeated or raised to a power, ``^1`` spelled out, free spacing."""
    pieces = []
    for var, exp in factors:
        split = rng.randint(1, exp)
        parts = [exp - split + 1] + [1] * (split - 1)
        for e in parts:
            pieces.append(var.text() + (f"^{e}" if e > 1 or rng.random() < 0.1 else ""))
    rng.shuffle(pieces)
    star = rng.choice(["*", " * ", "* ", " *", "  *  "])
    magnitude = format_rational(abs(coeff))
    body = star.join([magnitude] + pieces)
    if first:
        return ("-" if coeff < 0 else "") + body
    return (rng.choice([" - ", "  -  "]) if coeff < 0 else rng.choice([" + ", "  +  "])) + body


def random_line(rng: random.Random) -> str:
    """Seeded terms with 0 and Fraction coefficients, and, often, a term
    written again (shuffled) with its sign flipped or kept, so monomials
    merge or cancel, extras included."""
    terms = []
    for _ in range(rng.randint(1, 7)):
        coeff = rng.choice([1, -1, 2, -3, 0, Fraction(1, 2), Fraction(-5, 3)])
        chosen = rng.sample(READ_VARIABLES, rng.randint(0, 4))
        terms.append((coeff, [(v, rng.randint(1, 3)) for v in chosen]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        coeff, factors = rng.choice(terms)
        terms.insert(rng.randint(0, len(terms)), (rng.choice([-coeff, -coeff, coeff, 2]), list(factors)))
    return "".join(written_term(rng, c, f, i == 0) for i, (c, f) in enumerate(terms))


def test_a_line_read_against_points_equals_substituting_its_polynomial():
    rng = random.Random("read-point-residual")
    routes = {True: 0, False: 0}
    for _ in range(3000):
        line = random_line(rng)
        full = Polynomial.from_text(line)
        read = read_point_residual(line, READ_POINTS)
        assert read.residual == full.evaluate_partial(READ_POINTS), line
        assert read.support == full.support(), line
        assert all(isinstance(c, int) or c.denominator > 1 for c in read.residual.terms.values()), line
        routes[poly_module._read(line, READ_POINTS)[1] is None] += 1
    # Both the direct and the general route are taken.
    assert min(routes.values()) > 300, routes


def test_verify_takes_a_point_residual_as_its_polynomial():
    realization = sample_family("qs", 3)
    points = realization.assignment()
    rng = random.Random("verify-point-residual")
    for _ in range(40):
        line = random_line(rng).replace("x[1,99]", "x[1,1]").replace("x[2,99]", "x[2,2]")
        from_text = [LabeledPolynomial("p", Polynomial.from_text(line))]
        read = [LabeledPolynomial("p", read_point_residual(line, points))]
        for kwargs in (dict(sweep=True), dict(extra_assignments=[{"q1": (1, 2, 3), "q2": (0, -1, 5)}])):
            want = verify_vanishing(from_text, realization, **kwargs).to_json_lines()
            assert verify_vanishing(read, realization, **kwargs).to_json_lines() == want, line
        assert verify.extra_names(read[0].polynomial) == verify.extra_names(from_text[0].polynomial)


def test_verify_refuses_a_point_residual_read_against_other_points():
    realization, other = sample_family("qs", 3), sample_family("qs", 4)
    line = "1 * x[1,1] * x[2,q] - 2 * x[3,2]"
    good = LabeledPolynomial("good", read_point_residual(line, realization.assignment()))
    bad = LabeledPolynomial("bad", read_point_residual(line, other.assignment()))
    for polys in ([bad], [good, good, bad]):
        with pytest.raises(ValueError, match="bad: residual read against other points"):
            verify_vanishing(polys, realization, sweep=True)


def test_unbound_variables_of_a_point_residual_are_named_at_verification():
    realization = sample_family("qs", 3)
    line = "1 * x[1,99] * x[2,q] + 1 * x[1,1]"
    read = [LabeledPolynomial("p", read_point_residual(line, realization.assignment()))]
    assert unbound_list(lambda: verify_vanishing(read, realization, sweep=True)) == [entry_var(1, 99)]
    assert unbound_list(lambda: verify_vanishing(read, realization)) == [entry_var(1, 99), extra_var(2, "q")]


# -- numeric brackets --------------------------------------------------------------

# sha256 and line count of `verify --q canonical --out` on the bracket-form
# graph polynomials of each family, on `sample --family F --seed 7`.
VERIFY_DIGESTS = {
    "pascal": ("974a78f33a490d1ab6995bb580676aa98240b6d18119f1bd596178761fbbd5b5", 729),
    "grid3x4": ("7f83b6c374239871765b49059df0054dca4a1299d38ff0ad2ee45cf5e7188bee", 729),
    "fig2c": ("0fa4ce28855d2f5460029862b8870e9abfe507a0e27d1f0a3efa63809e96f806", 243),
}


def verify_graph_sweep(tmp_path, family: str) -> bytes:
    polys, real, out = (tmp_path / name for name in ("polys.txt", "real.json", "checks.jsonl"))
    assert main(["generate", "--matroid", family, "--which", "graph", "--out", str(polys)]) == 0
    assert main(["sample", "--family", family, "--seed", "7", "--out", str(real)]) == 0
    argv = ["verify", "--polys", str(polys), "--realization", str(real), "--q", "canonical"]
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("family", sorted(VERIFY_DIGESTS))
def test_canonical_sweep_of_graph_polynomials_matches_recorded_digest(tmp_path, family):
    text = verify_graph_sweep(tmp_path, family)
    assert (hashlib.sha256(text).hexdigest(), text.count(b"\n")) == VERIFY_DIGESTS[family]


# sha256 and line count of `verify --q canonical --out` on the coordinate-form
# files of `generate --matroid M ...`, on `sample --family M --seed 7`.
COORDINATE_VERIFY_DIGESTS = {
    "qs --which lifting": ("7b21a8c2d6d49febbf3a3ddfd4d25fe919b947d9d479838bee38653059f199cc", 45),
    "qs --which all": ("f33ee39277c1d9dc87ff05d4a84baa36dab0e6800cfc501bbc230ee79368a057", 76),
    "fig2r --which all": ("28d4d9e55e4f2e88e67042ed6ef3a425868c3a5e6f370309a676b67b876f1884", 86),
    "grid3x4 --which lifting": ("5a1bac96084fea02cac37cf2a062d8ad496ff68f345d03441063ded89c466044", 2700),
    "qs --which lifting --q canonical": ("37fc37a685d156419ee7abad6219a087562fb073b7e184902bdd94c5fb2e0799", 45),
}


# The same for files whose minors records are expanded into their minors:
# grid3x4's were 900 lines of `0`, each one check naming no extra vector,
# where its records give one check per minor and basis vector.
EXPANDED_VERIFY_DIGESTS = {
    "grid3x4 --which lifting": ("6c1e3574af92d9ab45c6d16172f71c45263ec1183a9d56a59269f95bae9bbe6d", 900),
}


def verify_generated_sweep(tmp_path, generate: str, expand: bool = False) -> bytes:
    family, *rest = generate.split()
    polys, real, out = (tmp_path / name for name in ("polys.txt", "real.json", "checks.jsonl"))
    assert main(["generate", "--matroid", family, *rest, "--out", str(polys)]) == 0
    if expand:
        polys.write_text(expand_records(polys.read_text()))
    assert main(["sample", "--family", family, "--seed", "7", "--out", str(real)]) == 0
    argv = ["verify", "--polys", str(polys), "--realization", str(real), "--q", "canonical"]
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("generate", sorted(COORDINATE_VERIFY_DIGESTS))
def test_canonical_sweep_of_coordinate_polynomials_matches_recorded_digest(tmp_path, generate):
    text = verify_generated_sweep(tmp_path, generate)
    assert (hashlib.sha256(text).hexdigest(), text.count(b"\n")) == COORDINATE_VERIFY_DIGESTS[generate]


@pytest.mark.parametrize("generate", sorted(EXPANDED_VERIFY_DIGESTS))
def test_canonical_sweep_of_expanded_records_matches_recorded_digest(tmp_path, generate):
    text = verify_generated_sweep(tmp_path, generate, expand=True)
    assert (hashlib.sha256(text).hexdigest(), text.count(b"\n")) == EXPANDED_VERIFY_DIGESTS[generate]


def test_canonical_sweep_computes_each_bracket_once(tmp_path, monkeypatch):
    calls = []
    determinant = brackets.bareiss_determinant

    def counted(rows):
        calls.append(1)
        return determinant(rows)

    monkeypatch.setattr(brackets, "bareiss_determinant", counted)
    verify_graph_sweep(tmp_path, "grid3x4")
    # 729 assignments of e1..e3 to six q's, 18 brackets each: only 54 distinct.
    assert 0 < len(calls) <= 54


def test_canonical_sweep_converts_and_formats_each_vector_once(tmp_path, monkeypatch):
    columns, texts = [], []
    to_column, to_text = brackets._integer_column, verify.format_rational

    def counted_column(vector):
        columns.append(tuple(vector))
        return to_column(vector)

    def counted_text(value):
        texts.append(value)
        return to_text(value)

    monkeypatch.setattr(brackets, "_integer_column", counted_column)
    monkeypatch.setattr(verify, "format_rational", counted_text)
    lines = verify_graph_sweep(tmp_path, "grid3x4").count(b"\n")
    # 12 points, then e1..e3 once each: before, 4,374 conversions.
    assert len(columns) == 12 + 3
    # One value per check, then the 3 coordinates of e1..e3: before, 13,851 calls.
    assert len(texts) == lines + 3 * 3


def test_report_lines_equal_json_dumps_with_sorted_keys():
    e1, half = (1, 0, 0), (Fraction(-1, 2), 0, Fraction(7, 3))
    ids = ['say "hi"', "back\\slash", "⟨1 2 q⟩ - ⟨1 3 q⟩", "tab\there", "plain"]
    assignments = [
        (),
        (("q1", e1),),
        (("q1", half), ("q10", e1), ("q2", half)),
        (("q", (Fraction(1, 3), -2, 0)),),
    ]
    values = [0, -3, Fraction(-5, 7), Fraction(9, 4), 12345678901234567890, 7]
    checks = [
        VanishingCheck(ids[i % len(ids)], assignments[i % len(assignments)], values[i % len(values)], i % 3 == 0)
        for i in range(40)
    ]
    want = "\n".join(
        json.dumps(
            {
                "poly_id": c.poly_id,
                "assignment": {name: [format_rational(x) for x in vec] for name, vec in c.assignment},
                "value": format_rational(c.value),
                "pass": c.passed,
            },
            sort_keys=True,
        )
        for c in checks
    )
    assert VanishingReport(tuple(checks), "zero").to_json_lines() == want
    assert VanishingReport((), "zero").to_json_lines() == ""


def pascal_collinear_witness(path) -> None:
    """Nine points on one line at which the Pascal hexagon graph polynomial
    with every extra vector e3 is nonzero (criterion 5)."""
    xs = [0, 1, 3, 7, 12, 20, -5, -9, 15]
    points = {str(p): [x, 1, 0] for p, x in enumerate(xs, start=1)}
    path.write_text(json.dumps({"matroid": "pascal", "points": points}))


def test_witness_catches_a_verifier_that_always_returns_zero(tmp_path, monkeypatch):
    polys, witness = tmp_path / "polys.txt", tmp_path / "witness.json"
    assert main(["generate", "--matroid", "pascal", "--which", "graph", "--out", str(polys)]) == 0
    pascal_collinear_witness(witness)
    argv = ["verify", "--polys", str(polys), "--realization", str(witness), "--q", "0,0,1", "--expect", "nonzero"]
    assert main(argv + ["--out", str(tmp_path / "good.jsonl")]) == 0
    monkeypatch.setattr(verify, "evaluate_poly", lambda *args, **kwargs: 0)
    assert main(argv + ["--out", str(tmp_path / "bad.jsonl")]) == 3


def test_expansion_rejects_a_bracket_of_the_wrong_size():
    with pytest.raises(DimensionMismatch, match=r"bracket \(1, 2\) has 2 columns in dimension 3"):
        BracketPolynomial.from_text("<1 2 3> - <1 2><1 3 4>").expand(3)


def squared_column(label) -> list[Polynomial]:
    """Column entries with exponents up to 2, so products of brackets need
    fields wider than their bracket count."""
    x = [var(entry_var(r, label)) for r in (1, 2, 3)]
    return [x[0] * x[0], x[1] + 2, x[2] * x[0] - 1]


def test_bracket_products_expand_as_ring_products():
    rng = random.Random("packed-bracket-products")
    expand = brackets.expander(3, squared_column)

    def determinant(key) -> Polynomial:
        return MinorEngine([[squared_column(label)[r] for label in key] for r in range(3)]).determinant()

    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 3)):
            keys = ["<%s>" % " ".join(map(str, rng.sample(range(1, 6), 3))) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
            terms.append(f"{rng.randint(1, 5)}{''.join(keys)}")
        poly = BracketPolynomial.from_text(" - ".join(terms) if rng.random() < 0.5 else " + ".join(terms))
        want = Polynomial.zero()
        for mono, coeff in poly.terms.items():
            term = Polynomial.constant(coeff)
            for key in mono:
                term = term * determinant(key)
            want = want + term
        assert expand([poly]) == [want], poly.to_text()


INTS = st.integers(-9, 9)
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_integer_column_brackets_match_fraction_bareiss(data):
    n = data.draw(st.sampled_from([3, 4]), label="n")
    entries = [INTS, FRACTIONS, st.one_of(INTS, FRACTIONS)]
    cols = [
        data.draw(st.lists(st.sampled_from(entries).flatmap(lambda e: e), min_size=n, max_size=n))
        for _ in range(n)
    ]
    shape = data.draw(st.sampled_from(["generic", "zero", "dependent"]), label="shape")
    if shape == "zero":
        cols[data.draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "dependent":
        a, b = data.draw(FRACTIONS), data.draw(INTS)
        cols[-1] = [a * x + b * y for x, y in zip(cols[0], cols[1])]
    rows = [[Fraction(col[i]) for col in cols] for i in range(n)]
    reduced, _, sign = echelon(rows)
    want = sign * reduced[-1][-1]
    got = evaluator(dict(enumerate(cols, start=1)))(BracketPolynomial.bracket(range(1, n + 1)))
    assert got == want
    assert isinstance(got, int) == (Fraction(want).denominator == 1)


def random_bracket_polynomials(rng: random.Random, realization: Realization):
    labels = sorted(realization.vectors) + list(EXTRAS)
    out = []
    for i in range(8):
        poly = BracketPolynomial.zero()
        for _ in range(rng.randint(1, 4)):
            term = BracketPolynomial.constant(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2)):
                term = term * BracketPolynomial.bracket(rng.sample(labels, realization.dim))
            poly = poly + term
        out.append(LabeledPolynomial(f"b{i}", poly))
    return out


def shaped_bracket_polynomials(realization: Realization):
    """Constant terms, repeated brackets and brackets holding two extra labels."""
    assert realization.dim == 3
    a, b, c, d = sorted(realization.vectors)[:4]
    texts = [
        f"2/3 - <{a} {b} q1><{a} {b} q1> + 3 <{a} q1 q2>",
        f"<{b} q2 q3><{a} {c} q1> - 5 <{d} q1 q3><{d} q1 q3><{c} q1 q2> + <{a} {b} {c}>",
        f"<{a} {b} {c}><{a} {b} {d}> - 4",
        "7",
    ]
    return [LabeledPolynomial(f"s{i}", BracketPolynomial.from_text(t)) for i, t in enumerate(texts)]


@pytest.mark.parametrize("family, seed", SAMPLES, ids=[f"{f}-{s}" for f, s in SAMPLES])
def test_bracket_verify_matches_the_expanded_oracle(family, seed):
    sampled = sample_family(family, seed)
    rng = random.Random(f"brackets-{family}-{seed}")
    # Fraction points: each vector rescaled, which keeps it a realization.
    scaled = {
        p: tuple(c * Fraction(rng.randint(1, 5), rng.randint(1, 7)) for c in vec)
        for p, vec in sampled.vectors.items()
    }
    dim = sampled.dim
    explicit = [{n: random_vector(rng, dim) for n in EXTRAS} for _ in range(3)]
    # List-valued vectors cannot key a value table; repeat one so a plan meets it twice.
    listed = {n: list(random_vector(rng, dim)) for n in EXTRAS}
    explicit += [listed, explicit[0], dict(listed)]
    for realization in (sampled, Realization(sampled.matroid, scaled)):
        polys = random_bracket_polynomials(rng, realization) + shaped_bracket_polynomials(realization)
        expanded = [LabeledPolynomial(p.label, p.polynomial.expand(dim)) for p in polys]
        for kwargs, assignments_of in [
            (dict(sweep=True), lambda names: canonical_basis_sweep(names, dim)),
            (dict(extra_assignments=explicit), lambda names: explicit),
        ]:
            got = verify_vanishing(polys, realization, expect="nonzero", **kwargs)
            want = oracle_report(expanded, realization, assignments_of, "nonzero")
            assert got.to_json_lines() == want.to_json_lines()


def test_evaluator_checks_labels_and_lengths_with_a_warm_memo():
    value = evaluator({1: (1, 0, 0), 2: (0, 1, 0), 3: (Fraction(1, 2), 0, 1), 4: (1, 1)})
    b123, b12q = BracketPolynomial.bracket([1, 2, 3]), BracketPolynomial.bracket([1, 2, "q"])
    assert value(b123) == 1
    assert value(b12q, {"q": (1, 1, 3)}) == 3
    for poly, extra in [(b12q, None), (BracketPolynomial.bracket([1, 2, 5]), {"q": (1, 1, 3)})]:
        with pytest.raises(UnboundLabel):
            value(poly, extra)
    for poly, extra in [
        (BracketPolynomial.bracket([1, 2, 4]), None),
        (BracketPolynomial.bracket([1, 2]), None),
        (b12q, {"q": (1, 1)}),
    ]:
        with pytest.raises(DimensionMismatch):
            value(poly, extra)
    assert value(b12q * b123, {"q": (0, 0, Fraction(1, 3))}) == Fraction(1, 3)


def test_one_evaluator_serves_several_polynomials_with_shared_brackets():
    realization = sample_family("fig2r", 1)
    dim = realization.dim
    rng = random.Random("shared-evaluator")
    polys = [p.polynomial for p in random_bracket_polynomials(rng, realization)]
    polys += [p.polynomial for p in shaped_bracket_polynomials(realization)]
    polys.append(polys[0] * polys[1] - polys[2])
    expanded = [p.expand(dim) for p in polys]
    vectors = [random_vector(rng, dim) for _ in range(2)] + [(1, 0, 0), (0, 0, 1)]
    value = evaluator(realization.vectors)
    # Interleaved calls: first calls, plan compilations, table hits and misses.
    for _ in range(4):
        for poly, coords in zip(polys, expanded):
            extra = {n: rng.choice(vectors) for n in EXTRAS}
            want = coords.evaluate(full_assignment(realization, extra))
            assert value(poly, extra) == want
            assert value(poly, {**extra, "unused": (1, 2)}) == want


WARM_POINTS = {1: (1, 0, 0), 2: (0, 1, 0), 3: (Fraction(1, 2), 0, 1), 4: (1, 1)}


def bracket_fault(value, poly, extra) -> tuple[type, str]:
    with pytest.raises((UnboundLabel, DimensionMismatch)) as exc:
        value(poly, extra)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize(
    "bad",
    [
        {"q": (1, 0, 0)},
        {"r": [0, 1, 0]},
        {"q": (1, 0, 0), "r": (0, 1)},
        {"q": (1, 0), "r": (0, 1, 0)},
        {"q": (1, 0, 0), "r": (0, 1, 0), 2: (1, 1)},
    ],
)
def test_a_compiled_plan_reports_the_first_bad_bracket_of_a_cold_evaluation(bad):
    poly = BracketPolynomial.from_text("<1 2 3><2 3 q> - <1 3 r><2 3 q> + <1 2 q>")
    want = bracket_fault(evaluator(WARM_POINTS), poly, bad)
    warm = evaluator(WARM_POINTS)
    for q in [(1, 1, 3), (0, 0, 1), (1, 1, 3)]:
        good = {"q": q, "r": (2, 0, 1)}
        assert warm(poly, good) == evaluator(WARM_POINTS)(poly, good)
    assert bracket_fault(warm, poly, bad) == want
    assert bracket_fault(warm, poly, bad) == want


@pytest.mark.parametrize(
    "poly, message",
    [
        (BracketPolynomial.from_text("<1 2 3> + <2 3 q><1 2 4>"), "bracket (1, 2, 4) on vectors of length [2, 3]"),
        (BracketPolynomial.bracket([]) + 1, "bracket () on vectors of length []"),
    ],
)
def test_a_bad_point_bracket_fails_every_call(poly, message):
    value = evaluator(WARM_POINTS)
    faults = {bracket_fault(value, poly, {"q": (1, 2, 3)}) for _ in range(4)}
    assert faults == {(DimensionMismatch, message)}


@pytest.mark.parametrize("second, error", [("<1 2 77>", UnboundLabel), ("<1 2>", DimensionMismatch)])
def test_verify_checks_every_bracket_after_others_are_stored(second, error):
    realization = sample_family("qs", 0)
    polys = [
        LabeledPolynomial(f"p{i}", BracketPolynomial.from_text(text))
        for i, text in enumerate(["<1 2 3> - <1 2 4>", "<1 2 3>" + second])
    ]
    with pytest.raises(error):
        verify_vanishing(polys, realization)


@pytest.mark.parametrize("text", ["<1 2 q1><1 3 q2>", "<1 2 q1><1 77 q2>", "<1 2><1 3 q2>"])
def test_a_missing_extra_vector_is_reported_before_other_bracket_faults(text):
    realization = sample_family("qs", 0)
    poly = BracketPolynomial.from_text(text)
    want = [extra_var(1, "q2")]
    assert unbound_list(lambda: evaluate_poly(poly, realization, {"q1": (1, 0, 0)})) == want
    # The same through one evaluator: a first call, a plan compilation, then the plan.
    value = evaluator(realization.vectors)
    for _ in range(3):
        with contextlib.suppress(UnboundLabel, DimensionMismatch):
            value(poly, {"q1": (1, 0, 0), "q2": (0, 1, 0)})
        got = unbound_list(lambda: evaluate_poly(poly, realization, {"q1": (1, 0, 0)}, brackets=value))
        assert got == want


# -- minors records ------------------------------------------------------------------

QS_LIFTING = render_polynomials(lifting_polynomials(builtin_matroid("qs"), ExtraVector.symbolic("q")))


def qs_record(tmp_path) -> Path:
    record = tmp_path / "record.txt"
    assert main(["generate", "--matroid", "qs", "--which", "lifting", "--out", str(record)]) == 0
    assert expand_records(record.read_text()) == QS_LIFTING
    return record


def collinear_qs(path: Path) -> None:
    """Six distinct points of qs on one line, in a plane that holds no basis
    vector, so no maximal lifting minor vanishes at any of them."""
    xs = (3, -1, 4, 7, -5, 2)
    path.write_text(json.dumps({"matroid": "qs", "points": {str(p): [x, 1, x + 2] for p, x in enumerate(xs, 1)}}))


def verify_bytes(tmp_path, polys: Path, real: Path, *extra: str) -> tuple[int, bytes]:
    out = tmp_path / "checks.jsonl"
    code = main(["verify", "--polys", str(polys), "--realization", str(real), *extra, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("expect", ["zero", "nonzero"])
@pytest.mark.parametrize("q", ["canonical", "0,0,1"])
@pytest.mark.parametrize("where", ["sample", "collinear"])
def test_a_record_verifies_byte_identical_to_its_expanded_minors(tmp_path, monkeypatch, where, q, expect):
    record, expanded, real = qs_record(tmp_path), tmp_path / "expanded.txt", tmp_path / "real.json"
    expanded.write_text(QS_LIFTING)
    if where == "sample":
        assert main(["sample", "--family", "qs", "--seed", "7", "--out", str(real)]) == 0
    else:
        collinear_qs(real)
    determinants = []
    monkeypatch.setattr(verify, "bareiss_determinant", lambda rows: determinants.append(rows) or bareiss_determinant(rows))
    argv = ["--q", q, "--expect", expect]
    got = verify_bytes(tmp_path, record, real, *argv)
    assert len(determinants) == (0 if where == "sample" else 15 * (3 if q == "canonical" else 1))
    assert got == verify_bytes(tmp_path, expanded, real, *argv)
    lines = got[1].count(b"\n")
    assert lines == (45 if q == "canonical" else 15)
    passes = (where == "sample") == (expect == "zero")
    assert got[1].count(b'"pass": true') == (lines if passes else 0)
    assert got[0] == (0 if passes else 3)


def malformed(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


NARROW_RECORD = "# source: lifting N=[1] rows=[[1, 2, 3], [1, 2, 3]] q=q\n# form: minors 2\n1<2 3 q>; 1<2 3 q>\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: malformed(t, ", 0; ", "; "),
        lambda t: malformed(t, "minors 4", "minors 0"),
        lambda t: malformed(t, "minors 4", "minors -1"),
        lambda t: malformed(t, "minors 4", "minors 5"),
        lambda t: NARROW_RECORD,
        lambda t: malformed(t, "minors 4", "minors 2.5"),
        lambda t: malformed(t, "minors 4", "minors \u0664"),
        lambda t: malformed(t, "minors 4", "minors"),
        lambda t: malformed(t, "1<2 3 q>", "1 * x[1,1]"),
        lambda t: malformed(t, "lifting N=", "lifting M="),
        lambda t: malformed(t, "q=q", "q=1q"),
    ],
    ids=[
        "ragged-row", "k-zero", "k-negative", "k-above-rows", "k-above-columns",
        "k-fraction", "k-arabic-indic", "k-missing", "coordinate-entry", "bad-source", "bad-q",
    ],
)
def test_a_malformed_record_is_a_parse_error(tmp_path, capsys, edit):
    record, real = qs_record(tmp_path), tmp_path / "real.json"
    assert main(["sample", "--family", "qs", "--seed", "7", "--out", str(real)]) == 0
    text = edit(record.read_text())
    if text == NARROW_RECORD:
        # With k within its one column, the same record parses.
        record.write_text(NARROW_RECORD.replace("minors 2", "minors 1"))
        assert verify_bytes(tmp_path, record, real, "--q", "canonical")[0] == 3
    record.write_text(text)
    capsys.readouterr()
    code = main(["verify", "--polys", str(record), "--realization", str(real), "--q", "canonical"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("parse error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("family", ["uniform(4,6)", "uniform(3,5)"], ids=["wrong-dimension", "missing-point"])
def test_a_record_on_a_realization_it_does_not_fit_is_an_error(tmp_path, capsys, family):
    record, real = qs_record(tmp_path), tmp_path / "real.json"
    assert main(["sample", "--family", family, "--seed", "1", "--out", str(real)]) == 0
    capsys.readouterr()
    code = main(["verify", "--polys", str(record), "--realization", str(real), "--q", "canonical"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: "), captured.err
    assert "Traceback" not in captured.err

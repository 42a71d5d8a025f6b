"""The verifier against a direct oracle.

``verify_vanishing`` substitutes a realization into a coordinate polynomial
once and evaluates the residual per extra-vector assignment.  The oracle
here evaluates the original polynomial on the full assignment for every
check, so any difference in a value, a verdict or an unbound-variable list
shows up.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pavingideals.generators import LabeledPolynomial, bracket
from pavingideals.poly import Polynomial, UnboundVariable
from pavingideals.realizations import Realization
from pavingideals.samplers import sample_family
from pavingideals.variables import KIND_EXTRA, entry_var, extra_var
from pavingideals.verify import (
    VanishingCheck,
    VanishingReport,
    canonical_basis_sweep,
    verify_vanishing,
)

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

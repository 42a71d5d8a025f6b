"""Acceptance criteria, one test per criterion, all tolerances exactly zero.

Each criterion prints one PASS line (visible with ``pytest -s``); a failed
assertion keeps the line unprinted.  Exactness notes:

* "all maximal minors of an evaluated matrix vanish" is checked as the
  equivalent exact rank bound (rank <= columns - ambient rank), with direct
  numeric minor determinants spot-checked alongside;
* polynomial identities on the large worked examples (pascal, grid3x4,
  paving4_9) are compared in the exact bracket-level canonical form, whose
  coordinate expansion is checked against the coordinate route on the small
  examples.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from displays import (
    ALL_DISPLAYS,
    bracket_equal_up_to_unit,
    equal_up_to_sign,
    equal_up_to_unit,
)
from oracles import (
    collinear_points,
    cycle_identity_value,
    dependency_digraph_from_vectors,
    find_sdr,
    graph_polynomial_via_cycles,
    graph_polynomial_via_cycles_brackets,
    identity_minus_weights,
    liftability_matrix,
    pascal_gc_quartic,
    perm_parity,
    random_hyperplane_and_center,
    random_weighted_digraph,
)
from pavingideals.brackets import BracketPolynomial
from pavingideals.generators import (
    ExtraVector,
    GraphData,
    LabeledPolynomial,
    builtin_graph_data,
    circuit_polynomials,
    emitted_graph_polynomial,
    graph_polynomial,
    graph_polynomial_brackets,
    liftability_matrix_at,
    lifting_polynomials,
)
from pavingideals.lifting import lift, project
from pavingideals.linalg import bareiss_determinant, kernel_basis, matrix_rank
from pavingideals.matroids import PavingMatroid, builtin_matroid, grid_matroid
from pavingideals.polymatrix import MinorEngine
from pavingideals.realizations import Realization, in_circuit_variety, in_realization_space
from pavingideals.samplers import sample_family
from pavingideals.verify import evaluate_poly, verify_vanishing

FAMILIES = ("qs", "grid3x4", "pascal", "concurrent3", "fig2c", "fig2r")
SEEDS = range(50)

_LINES: list[str] = []


def report(number: int, text: str) -> None:
    line = f"ACCEPTANCE criterion {number}: PASS - {text}"
    _LINES.append(line)
    print(line)


@lru_cache(maxsize=None)
def realization(family: str, seed: int) -> Realization:
    return sample_family(family, seed)


@lru_cache(maxsize=None)
def emitted_graph_items(name: str) -> tuple[LabeledPolynomial, ...]:
    """The graph polynomial in the form the CLI writes it."""
    poly = emitted_graph_polynomial(builtin_graph_data(name))
    return (LabeledPolynomial(f"graph {name}", poly),)


def random_extra_assignment(rng: random.Random, names, dim: int):
    return {name: tuple(rng.randint(-9, 9) for _ in range(dim)) for name in names}


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_cycle_identity_equals_determinant():
    rng = random.Random(20240_1)
    for _ in range(200):
        g = random_weighted_digraph(rng)
        assert cycle_identity_value(g) == bareiss_determinant(identity_minus_weights(g))
    produced = 0
    rng = random.Random(20240_2)
    while produced < 100:
        g = dependency_digraph_from_vectors(rng)
        if g is None:
            continue
        produced += 1
        assert cycle_identity_value(g) == 0
    report(1, "cycle identity = det(I-A) on 200 digraphs; 0 on 100 dependency weightings")


# -- criterion 2 -------------------------------------------------------------------


def random_admissible_data(rng: random.Random) -> GraphData | None:
    name = rng.choice(("qs", "pascal", "fig2c", "fig2r", "grid3x4", "concurrent3", "paving4_9"))
    m = builtin_matroid(name)
    anchor = m.closure(rng.sample(m.points, rng.randint(0, min(4, m.size - 2))))
    complement = [p for p in m.points if p not in anchor]
    if len(complement) < 2:
        return None
    k = rng.randint(2, min(5, len(complement)))
    points = tuple(sorted(rng.sample(complement, k)))
    allowed = set(anchor) | set(points)
    circuits: list[tuple[int, ...]] = []
    for p in points:
        cands = [
            c for c in m.circuits_n() if p in c and set(c) <= allowed and c not in circuits
        ]
        if not cands:
            return None
        circuits.append(rng.choice(cands))
    extras = []
    for i in range(k):
        shared = rng.random() < 0.25 and i > 0
        extras.append(ExtraVector.symbolic(f"q{rng.randint(1, i) if shared else i + 1}"))
    data = GraphData(m, frozenset(anchor), points, tuple(circuits), tuple(extras))
    try:
        data.validate()
    except Exception:
        return None
    return data


def test_criterion_2_dual_graph_polynomial_construction():
    for name in ("qs", "pascal", "fig2c", "fig2r", "grid3x4"):
        data = builtin_graph_data(name)
        det_route = graph_polynomial_brackets(data)
        cycle_route = graph_polynomial_via_cycles_brackets(data)
        assert bracket_equal_up_to_unit(det_route, cycle_route) is not None, name
    for name in ("qs", "fig2r"):
        data = builtin_graph_data(name)
        unit = equal_up_to_unit(graph_polynomial(data), graph_polynomial_via_cycles(data))
        assert unit is not None and unit != 0
    rng = random.Random(20240_3)
    produced = 0
    while produced < 50:
        data = random_admissible_data(rng)
        if data is None:
            continue
        produced += 1
        det_route = graph_polynomial_brackets(data)
        cycle_route = graph_polynomial_via_cycles_brackets(data)
        unit = bracket_equal_up_to_unit(det_route, cycle_route)
        assert unit is not None and unit != 0
    report(2, "determinant and cycle routes agree up to a unit on 5 named + 50 random instances")


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_worked_example_displays_reproduced():
    # Determinant route against the hand-encoded displays.
    for name in ("qs", "pascal", "fig2c", "fig2r", "paving4_9"):
        generated = graph_polynomial_brackets(builtin_graph_data(name))
        assert equal_up_to_sign(generated, ALL_DISPLAYS[name]()), name
    # The grid display clears each distinct denominator once.
    grid = graph_polynomial_via_cycles_brackets(
        builtin_graph_data("grid3x4"), dedupe_denominators=True
    )
    assert equal_up_to_sign(grid, ALL_DISPLAYS["grid3x4"]())
    # Coordinate-level cross-check where expansion is small.
    qs_expanded = graph_polynomial(builtin_graph_data("qs"))
    assert equal_up_to_sign(qs_expanded, ALL_DISPLAYS["qs"]().expand(3))
    report(3, "qs, pascal, fig2c, fig2r, grid3x4 (and paving4_9) displays match up to sign")


# -- criterion 4 -------------------------------------------------------------------


def submatroids_under_budget(matroid, budget_minor: int = 4):
    return [
        sub
        for sub in matroid.full_rank_submatroids()
        if 0 < sub.size - matroid.rank + 1 <= budget_minor
    ]


def basis_vectors(dim: int):
    return [tuple(1 if i == j else 0 for i in range(1, dim + 1)) for j in range(1, dim + 1)]


def test_criterion_4_vanishing_on_realizations():
    for family in FAMILIES:
        matroid = realization(family, 0).matroid
        n = matroid.rank
        circuit_items = circuit_polynomials(matroid)
        graph_items = emitted_graph_items(matroid.name)
        submatroids = submatroids_under_budget(matroid)
        for seed in SEEDS:
            r = realization(family, seed)
            vectors = r.vectors
            if seed < 10:
                # The sampler certifies this before returning; re-assert the
                # stated invariant explicitly on a prefix of the seeds.
                assert in_realization_space(vectors, matroid)
            # Circuit polynomials: numeric determinants vanish.
            for c in matroid.circuits_n():
                det = bareiss_determinant([[vectors[p][i] for p in c] for i in range(n)])
                assert det == 0, (family, seed, c)
            # Lifting polynomials, canonical-basis sweep: the exact rank
            # bound says every maximal minor of every evaluated liftability
            # matrix vanishes (whole matroid and budgeted submatroids).
            for q in basis_vectors(n):
                evaluated = liftability_matrix_at(matroid, vectors, q)
                assert matrix_rank(evaluated) <= matroid.size - n, (family, seed, q)
                for sub in submatroids:
                    sub_eval = liftability_matrix_at(sub, vectors, q)
                    assert matrix_rank(sub_eval) <= sub.size - n, (family, seed, q)
            # Graph polynomials: emitted form, random rational extras.
            rng = random.Random(f"c4-{family}-{seed}")
            for labeled in graph_items:
                names = sorted(
                    l for l in (
                        labeled.polynomial.labels()
                        if isinstance(labeled.polynomial, BracketPolynomial)
                        else {v.column for v in labeled.polynomial.support() if v.kind == "extra"}
                    )
                    if isinstance(l, str)
                )
                for _ in range(3):
                    extra = random_extra_assignment(rng, names, n)
                    assert evaluate_poly(labeled.polynomial, r, extra) == 0
            # The hand-encoded display vanishes as well (transcription guard).
            if matroid.name in ALL_DISPLAYS:
                display = ALL_DISPLAYS[matroid.name]()
                names = sorted(l for l in display.labels() if isinstance(l, str))
                extra = random_extra_assignment(rng, names, n)
                full = dict(vectors)
                full.update(extra)
                assert display.evaluate(full) == 0, (family, seed)
        # Expanded-polynomial evaluation ties the numeric route to the
        # emitted objects on a few seeds.
        if family == "qs":
            expanded = lifting_polynomials(matroid, ExtraVector.symbolic("q"))
            assert len(expanded) == 15
            for seed in range(3):
                rep = verify_vanishing(
                    expanded + list(circuit_items), realization(family, seed), q="canonical"
                )
                assert rep.all_pass
    report(4, "circuit, lifting (basis sweep) and graph generators vanish on 50 seeds x 6 families")


# -- criterion 5 -------------------------------------------------------------------


def collinear_pascal_witness(seed: int = 0):
    rng = random.Random(97_000 + seed)
    while True:
        xs = {p: rng.randint(-40, 40) for p in range(1, 10)}
        if len(set(xs.values())) != 9:
            continue
        lhs = (
            (xs[1] - xs[9]) * (xs[6] - xs[8]) * (xs[5] - xs[7])
            * (xs[4] - xs[9]) * (xs[3] - xs[8]) * (xs[2] - xs[7])
        )
        rhs = (
            (xs[6] - xs[9]) * (xs[5] - xs[8]) * (xs[4] - xs[7])
            * (xs[3] - xs[9]) * (xs[2] - xs[8]) * (xs[1] - xs[7])
        )
        if lhs != rhs:
            return {p: (x, 1, 0) for p, x in xs.items()}


def test_criterion_5_pascal_non_membership_witness():
    vectors = collinear_pascal_witness()
    e3 = (0, 0, 1)
    # Every pure point bracket vanishes on the collinear configuration.
    for triple in combinations(range(1, 10), 3):
        det = bareiss_determinant([[vectors[p][i] for p in triple] for i in range(3)])
        assert det == 0
    # The meet-expansion quartic (a polynomial in point brackets) vanishes.
    quartic = pascal_gc_quartic()
    matroid = builtin_matroid("pascal")
    flat = Realization(matroid, {p: vectors[p] for p in matroid.points})
    assert evaluate_poly(quartic, flat, {}) == 0
    gc3 = BracketPolynomial.from_text("<1 2 3><4 5 6> - <1 2 4><3 5 6>").expand(3)
    assert evaluate_poly(gc3, flat, {}) == 0
    # The hexagon-cycle polynomial does not vanish with every extra = e3.
    poly = graph_polynomial_brackets(builtin_graph_data("pascal"))
    assignment = dict(vectors)
    assignment.update({f"q{i}": e3 for i in range(1, 7)})
    assert poly.evaluate(assignment) != 0
    report(5, "collinear witness kills all bracket products but not the hexagon-cycle polynomial")


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_6_lifting_round_trip():
    rng = random.Random(20240_6)
    for family in ("qs", "grid3x4"):
        matroid = realization(family, 0).matroid
        n = matroid.rank
        for seed in SEEDS:
            r = realization(family, seed)
            h, center = random_hyperplane_and_center(rng)
            while True:
                try:
                    flat = project(r, h, center)
                    break
                except Exception:
                    h, center = random_hyperplane_and_center(rng)
            evaluated = liftability_matrix_at(matroid, flat.vectors, center)
            kernel = kernel_basis(evaluated, matroid.size)
            assert len(kernel) >= n, (family, seed)
            # The shift recovering the original realization is in the kernel.
            nq = h.pairing(center)
            z = [Fraction(h.pairing(r.vectors[p]), nq) for p in matroid.points]
            for row in evaluated:
                assert sum(a * b for a, b in zip(row, z)) == 0
            lifted = lift(flat, center)
            assert lifted is not None
            assert matrix_rank(list(lifted.vectors.values())) == n
            assert in_circuit_variety(lifted.vectors, matroid)
    # Conversely: generic collinear 6-point sets have a nonzero maximal
    # minor and refuse to lift.
    qs = builtin_matroid("qs")
    rng = random.Random(20240_66)
    accepted = 0
    seed = 0
    while accepted < 50:
        seed += 1
        vectors = collinear_points(6, seed=seed)
        h, center = random_hyperplane_and_center(rng)
        if matrix_rank([list(v) for v in vectors.values()] + [list(center)]) != 3:
            continue
        evaluated = liftability_matrix_at(qs, vectors, center)
        if matrix_rank(evaluated) != 4:
            continue  # non-generic draw: certify and resample
        accepted += 1
        witness = None
        for cols in combinations(range(6), 4):
            minor = bareiss_determinant([[evaluated[i][j] for j in cols] for i in range(4)])
            if minor != 0:
                witness = minor
                break
        assert witness is not None
        assert lift(Realization(qs, vectors), center) is None
    report(6, "project->kernel>=n->lift on 50 seeds x 2 families; 50 collinear sets refuse to lift")


# -- criterion 7 -------------------------------------------------------------------


def test_criterion_7_uniform_kernel_law():
    for n in (3, 4):
        for d in range(n + 1, n + 5):
            matroid = PavingMatroid.uniform(n - 1, d)
            for seed in range(20):
                rng = random.Random(7_000_000 + 1000 * n + 10 * d + seed)
                while True:
                    vectors = {
                        p: tuple(rng.randint(-9, 9) for _ in range(n)) for p in matroid.points
                    }
                    center = tuple(rng.randint(-9, 9) for _ in range(n))
                    if any(not any(v) for v in vectors.values()) or not any(center):
                        continue
                    if matrix_rank(list(vectors.values()) + [list(center)]) == n:
                        break
                evaluated = liftability_matrix_at(matroid, vectors, center)
                assert len(kernel_basis(evaluated, matroid.size)) == n - 1, (n, d, seed)
    report(7, "uniform rank-(n-1) kernels have dimension exactly n-1 (n in {3,4}, 20 seeds each)")


# -- criterion 8 -------------------------------------------------------------------


def closed_complement_pairs(matroid, size: int):
    """Closed sets J whose complement has the given size."""
    out = []
    for anchor in combinations(matroid.points, matroid.size - size):
        if matroid.closure(anchor) == set(anchor):
            out.append(frozenset(anchor))
    return out


def test_criterion_8_minors_reproduced_by_graph_polynomials():
    q = ExtraVector.symbolic("q")
    for name in ("qs", "fig2r"):
        matroid = builtin_matroid(name)
        n = matroid.rank
        circuits = matroid.circuits_n()
        k = len(circuits)
        matrix = liftability_matrix(matroid, q)
        engine = MinorEngine(matrix)
        column_of = {p: j for j, p in enumerate(matroid.points)}
        anchors = closed_complement_pairs(matroid, k)
        assert anchors, name
        for anchor in anchors:
            points_sorted = tuple(sorted(p for p in matroid.points if p not in anchor))
            sdr = find_sdr(circuits, points_sorted)
            assert sdr is not None, (name, anchor)
            data = GraphData(
                matroid, anchor, tuple(sdr), circuits, tuple(q for _ in circuits)
            )
            graph_poly = graph_polynomial(data)
            minor = engine.minor(
                tuple(range(k)), tuple(column_of[p] for p in points_sorted)
            )
            # Rows already sorted; the column order differs from the pairing
            # order by a known permutation.
            sign = perm_parity([points_sorted.index(p) for p in sdr])
            assert minor == graph_poly.scale(sign), (name, anchor)
    # Hall-deficient selections: a row subset missing the chosen columns
    # forces structural zeros (Case 2), and duplicated circuits with one
    # extra vector collapse the graph polynomial to zero.
    qs = builtin_matroid("qs")
    matrix = liftability_matrix(qs, q)
    engine = MinorEngine(matrix)
    # Circuits ((2,4,6),(1,5,6)) against columns (1,5): the first row has no
    # support among the chosen columns, so the minor is structurally zero.
    deficient = engine.minor((2, 1), (0, 4))
    assert deficient.is_zero()
    zero_witness = engine.minor((0, 1), (3, 5))  # circuit (1,2,3) misses columns 4,6
    assert zero_witness.is_zero()
    dup = GraphData(
        qs,
        frozenset({1, 5, 6}),
        (2, 3),
        ((1, 2, 3), (1, 2, 3)),
        (q, q),
    )
    assert graph_polynomial(dup).is_zero()
    report(8, "maximal minors outside closed anchors equal graph polynomials bit-exactly; Hall-deficient cases vanish")


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_9_sufficient_liftability_counts():
    grid33 = grid_matroid(3, 3)
    assert grid33.size == 9 and len(grid33.circuits_n()) == 6
    assert grid33.liftable_sufficient()
    qs = builtin_matroid("qs")
    assert qs.size == 6 and len(qs.circuits_n()) == 4
    assert not qs.liftable_sufficient()
    report(9, "3x3 grid certified liftable (9 >= 9); quadrilateral inconclusive (6 < 7)")


# -- criterion 10 ------------------------------------------------------------------


def determinism_bundle() -> bytes:
    """A slice through criteria 1-9 rendered to canonical text."""
    from pavingideals.polyfiles import render_polynomials
    from pavingideals.scalars import format_rational

    chunks: list[str] = []
    rng = random.Random(555)
    for _ in range(25):
        g = random_weighted_digraph(rng)
        chunks.append(format_rational(cycle_identity_value(g)))
    for name in ("qs", "pascal", "fig2c", "fig2r", "grid3x4"):
        data = builtin_graph_data(name)
        chunks.append(graph_polynomial_brackets(data).to_text())
        chunks.append(graph_polynomial_via_cycles_brackets(data).to_text())
    chunks.append(
        graph_polynomial_via_cycles_brackets(
            builtin_graph_data("grid3x4"), dedupe_denominators=True
        ).to_text()
    )
    qs = builtin_matroid("qs")
    chunks.append(render_polynomials(circuit_polynomials(qs)))
    chunks.append(
        render_polynomials(lifting_polynomials(qs, ExtraVector.symbolic("q")))
    )
    for family in ("qs", "fig2c"):
        r = realization(family, 0)
        chunks.append(r.to_json())
        rep = verify_vanishing(list(circuit_polynomials(r.matroid)), r, q="canonical")
        chunks.append(rep.to_json_lines())
    vectors = collinear_pascal_witness()
    poly = graph_polynomial_brackets(builtin_graph_data("pascal"))
    assignment = dict(vectors)
    assignment.update({f"q{i}": (0, 0, 1) for i in range(1, 7)})
    chunks.append(format_rational(poly.evaluate(assignment)))
    rng = random.Random(556)
    r = realization("qs", 1)
    h, center = random_hyperplane_and_center(rng)
    flat = project(r, h, center)
    lifted = lift(flat, center)
    chunks.append(lifted.to_json())
    matroid = PavingMatroid.uniform(2, 5)
    rng = random.Random(557)
    vecs = {p: tuple(rng.randint(-9, 9) for _ in range(3)) for p in matroid.points}
    evaluated = liftability_matrix_at(matroid, vecs, (1, 2, 3))
    chunks.append(str(len(kernel_basis(evaluated, matroid.size))))
    chunks.append(str(grid_matroid(3, 3).liftable_sufficient()))
    chunks.append(str(qs.liftable_sufficient()))
    return "\n===\n".join(chunks).encode()


def test_criterion_10_determinism_across_runs():
    first = determinism_bundle()
    second = determinism_bundle()
    assert first == second
    report(10, "byte-identical artifacts across repeated runs")


def test_zz_acceptance_summary(capsys):
    with capsys.disabled():
        print()
        for line in _LINES:
            print(line)

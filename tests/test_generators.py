"""Circuit, lifting and graph polynomial generators."""

from __future__ import annotations

import ast
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    BadIndexSet,
    DependencyDigraph,
    build_graph,
    cycle_identity_value,
    dependency_digraph_from_vectors,
    graph_polynomial_via_cycles,
    graph_polynomial_via_cycles_brackets,
    identity_minus_weights,
    liftability_matrix,
    normalized_sign,
    pascal_gc_quartic,
    pascal_gc_quartic_brackets,
    random_weighted_digraph,
    rename_labels,
    rnc_polynomial_brackets,
)
from displays import (
    ALL_DISPLAYS,
    bracket_equal_up_to_unit,
    equal_up_to_sign,
    equal_up_to_unit,
)
from pavingideals import cli, generators
from pavingideals.brackets import BracketPolynomial, evaluator, symbolic_column
from pavingideals.generators import (
    ExtraVector,
    GraphData,
    HypothesisViolation,
    bracket_matrix,
    builtin_graph_data,
    builtin_graph_data_names,
    circuit_polynomials,
    finite_generating_family,
    graph_matrix_brackets,
    graph_polynomial,
    graph_polynomial_brackets,
    liftability_matrix_at,
    lifting_polynomials,
)
from pavingideals.linalg import bareiss_determinant, solve_particular
from pavingideals.matroids import PavingMatroid, builtin_matroid, builtin_matroid_names
from pavingideals.poly import Polynomial, Ring
from pavingideals.polymatrix import MinorEngine
from pavingideals.variables import Variable, entry_var, extra_var

QS = builtin_matroid("qs")
Q_SYM = ExtraVector.symbolic("q")


def evaluated(matrix, assignment):
    """A polynomial matrix evaluated entrywise, as a list of rows."""
    return [[p.evaluate(assignment) for p in row] for row in matrix]


# -- circuit polynomials ------------------------------------------------------


def test_qs_circuit_polynomials():
    polys = circuit_polynomials(QS)
    assert len(polys) == 4
    expected = BracketPolynomial.bracket([1, 2, 3]).expand(3)
    assert polys[0].polynomial == expected


def test_uniform_has_no_circuit_polynomials():
    assert circuit_polynomials(PavingMatroid.uniform(3, 6)) == []


# -- liftability matrices ---------------------------------------------------------


def test_qs_liftability_matrix_pattern():
    m = liftability_matrix(QS, Q_SYM)
    assert len(m) == 4 and all(len(row) == 6 for row in m)
    assert QS.circuits_n()[0] == (1, 2, 3)
    row = m[0]
    assert row[0] == BracketPolynomial.bracket([2, 3, "q"]).expand(3)
    assert row[1] == -BracketPolynomial.bracket([1, 3, "q"]).expand(3)
    assert row[2] == BracketPolynomial.bracket([1, 2, "q"]).expand(3)
    assert all(row[j].is_zero() for j in (3, 4, 5))


def test_row_support_is_the_circuit():
    for name in ("qs", "pascal", "grid3x4", "paving4_9"):
        mat = builtin_matroid(name)
        m = liftability_matrix(mat, Q_SYM)
        for circuit, row in zip(mat.circuits_n(), m, strict=True):
            nonzero = {mat.points[j] for j, e in enumerate(row) if not e.is_zero()}
            assert nonzero == set(circuit)


def test_uniform_matrix_is_empty():
    m = liftability_matrix(PavingMatroid.uniform(3, 6), Q_SYM)
    assert m == []


def test_uniform_rank_deficient_matrix_uses_larger_circuits():
    u = PavingMatroid.uniform(2, 4)
    m = liftability_matrix(u, Q_SYM, ambient=3)
    assert len(m) == 4  # all 3-subsets of a 4-point set
    assert all(len(row) == 4 for row in m)


def test_symbolic_and_numeric_matrices_commute():
    # Every builtin matroid in its own rank, plus the rank-(n-1) uniform
    # matroid on the same points in ambient n, as lifting uses it.
    rng = random.Random(1)
    for name in builtin_matroid_names():
        matroid = builtin_matroid(name)
        n = matroid.rank
        for mat in (matroid, PavingMatroid.uniform(n - 1, matroid.size)):
            vectors = {p: tuple(rng.randint(-5, 5) for _ in range(n)) for p in mat.points}
            assignment = {
                entry_var(r, p): vectors[p][r - 1] for p in mat.points for r in range(1, n + 1)
            }
            drawn = tuple(rng.randint(-5, 5) for _ in range(n))
            extras = [(ExtraVector.symbolic("q"), drawn)]
            extras += [(e, e.coords) for e in (ExtraVector.basis(i, n) for i in range(1, n + 1))]
            concrete = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            extras.append((ExtraVector.concrete(concrete), concrete))
            for extra, q in extras:
                point = dict(assignment)
                point.update({extra_var(r, "q"): q[r - 1] for r in range(1, n + 1)})
                symbolic = liftability_matrix(mat, extra, ambient=n)
                direct = liftability_matrix_at(mat, vectors, q)
                assert evaluated(symbolic, point) == direct, (name, mat.rank, extra)


@pytest.mark.parametrize("fractions", [False, True], ids=["integer", "fraction"])
def test_liftability_matrix_at_is_the_evaluated_bracket_matrix(fractions):
    # The general bracket evaluator is the reference for the record's own
    # integer-determinant evaluation, for every builtin in ambient n and for
    # the rank-(n-1) uniform matroid on its points, as lifting uses it.
    rng = random.Random(3)

    def draw(n):
        if fractions:
            return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        return tuple(rng.randint(-9, 9) for _ in range(n))

    for name in builtin_matroid_names():
        n = builtin_matroid(name).rank
        for mat in (builtin_matroid(name), PavingMatroid.uniform(n - 1, builtin_matroid(name).size)):
            vectors = {p: draw(n) for p in mat.points}
            q = draw(n)
            value = evaluator({**vectors, "q": q})
            matrix = bracket_matrix(((c, "q") for c in mat.circuits_of_size(n)), mat.points)
            assert matrix, (name, mat.rank)
            expected = [[value(e) for e in row] for row in matrix]
            assert liftability_matrix_at(mat, vectors, q) == expected, (name, mat.rank)


def test_graph_polynomial_is_the_determinant_of_the_numeric_bracket_matrix():
    # At random integer vectors, the determinant of the evaluated bracket
    # matrix is the value of the bracket-level determinant on every data
    # set, and the value of the coordinate graph polynomial (with symbolic
    # extras, and with the same extras made concrete) wherever its expansion
    # is feasible (the expansion estimate rank!^k is at most fig2c's 6^5;
    # pascal, grid3x4 and paving4_9 expand to 10^5 to 10^7 terms).
    rng = random.Random(2)
    for name in builtin_graph_data_names():
        data = builtin_graph_data(name)
        n = data.matroid.rank
        labels = list(data.matroid.points) + [e.name for e in data.extras]
        values = {l: tuple(rng.randint(-5, 5) for _ in range(n)) for l in labels}
        assignment = {
            (entry_var(r, l) if isinstance(l, int) else extra_var(r, l)): vec[r - 1]
            for l, vec in values.items()
            for r in range(1, n + 1)
        }
        numeric = [[e.evaluate(values) for e in row] for row in graph_matrix_brackets(data)]
        det = bareiss_determinant(numeric)
        assert graph_polynomial_brackets(data).evaluate(values) == det, name
        if factorial(n) ** data.k > 6**5:
            continue
        assert graph_polynomial(data).evaluate(assignment) == det, name
        concrete = GraphData(
            data.matroid,
            data.anchor,
            data.points,
            data.circuits,
            tuple(ExtraVector.concrete(values[e.name]) for e in data.extras),
        )
        assert graph_polynomial(concrete).evaluate(assignment) == det, name


# -- lifting polynomials -----------------------------------------------------------


def test_qs_maximal_minors_count():
    polys = lifting_polynomials(QS, Q_SYM)
    assert len(polys) == 15  # 4x4 minors of the 4x6 matrix
    assert all(not p.polynomial.is_zero() for p in polys)


def test_undersized_minor_requests_yield_nothing():
    two_lines = QS.restrict(QS.hyperplanes[0] | QS.hyperplanes[1])
    # |N| = 5 points, two circuits: 3x3 minors need 3 rows but only 2 exist.
    assert lifting_polynomials(two_lines, Q_SYM) == []


def test_lifting_polynomials_respect_submatroid_columns():
    sub = QS.restrict(QS.hyperplanes[0] | QS.hyperplanes[3])
    polys = lifting_polynomials(sub, Q_SYM)
    cols = set(sub.points)
    for labeled in polys:
        for var in labeled.polynomial.support():
            if var.kind == "entry":
                assert var.column in cols


# -- graph data and digraphs ----------------------------------------------------------


def test_qs_digraph_is_a_three_cycle():
    g = build_graph(builtin_graph_data("qs"))
    assert set(g.edges) == {(2, 3), (3, 4), (4, 2)}
    assert g.simple_cycles() == [(2, 3, 4)]
    assert g.cycle_collections() == [((2, 3, 4),)]


def test_pascal_digraph_is_a_six_cycle():
    g = build_graph(builtin_graph_data("pascal"))
    assert g.simple_cycles() == [(1, 2, 3, 4, 5, 6)]


def test_fig2c_digraph_edges_and_cycles():
    g = build_graph(builtin_graph_data("fig2c"))
    assert set(g.edges) == {(1, 2), (1, 3), (2, 5), (5, 1), (3, 4), (4, 1)}
    assert g.simple_cycles() == [(1, 2, 5), (1, 3, 4)]
    # The two cycles share vertex 1, so only singleton collections remain.
    assert g.cycle_collections() == [((1, 2, 5),), ((1, 3, 4),)]


def test_fig2r_digraph_edges_and_cycles():
    g = build_graph(builtin_graph_data("fig2r"))
    assert set(g.edges) == {(1, 3), (2, 1), (3, 2), (3, 4), (4, 1)}
    assert g.simple_cycles() == [(1, 3, 2), (1, 3, 4)]


def test_paving4_9_digraph():
    g = build_graph(builtin_graph_data("paving4_9"))
    assert set(g.edges) == {(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 1)}
    assert g.simple_cycles() == [(1, 2, 5), (1, 3, 5), (1, 4, 5)]


def test_graph_data_validation_errors():
    with pytest.raises(HypothesisViolation):
        GraphData(
            QS, frozenset({1, 2}), (3,), ((1, 2, 3),), (Q_SYM,)
        ).validate()  # closure of {1,2} contains 3
    with pytest.raises(HypothesisViolation):
        GraphData(
            QS, frozenset({1, 5, 6}), (4,), ((1, 2, 3),), (Q_SYM,)
        ).validate()  # 4 not in its circuit
    with pytest.raises(HypothesisViolation):
        GraphData(
            QS, frozenset({1, 5}), (2, 3), ((1, 2, 3), (1, 2, 3)), (Q_SYM,)
        ).validate()  # circuit leaves J union P


def test_numeric_weights_from_actual_dependencies():
    # Exact quadrilateral built from four integer lines.
    from pavingideals.samplers import sample_family

    realization = sample_family("qs", seed=3)
    data = builtin_graph_data("qs")
    basis = {f"q{i}": tuple(1 if j == i else 0 for j in (1, 2, 3)) for i in (1, 2, 3)}
    g = build_graph(data, vectors=realization.vectors, extra_values=basis)
    assert set(g.edges) <= {(2, 3), (3, 4), (4, 2)}
    assert all(isinstance(w, (int, Fraction)) for w in g.weights.values())
    assert cycle_identity_value(g) == 0


# -- cycle identity -------------------------------------------------------------------


def test_cycle_identity_matches_determinant():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_weighted_digraph(rng)
        assert cycle_identity_value(g) == bareiss_determinant(identity_minus_weights(g))


def test_cycle_identity_vanishes_on_genuine_dependencies():
    rng = random.Random(77)
    produced = 0
    while produced < 25:
        g = dependency_digraph_from_vectors(rng)
        if g is None:
            continue
        produced += 1
        assert cycle_identity_value(g) == 0


def test_two_cycle_with_reciprocal_weights():
    g = DependencyDigraph(
        (1, 2),
        ((1, 2), (2, 1)),
        {(1, 2): Fraction(3, 7), (2, 1): Fraction(7, 3)},
    )
    assert cycle_identity_value(g) == 0


def test_disjoint_two_cycles_enumerate_three_collections():
    g = DependencyDigraph(
        (1, 2, 3, 4),
        ((1, 2), (2, 1), (3, 4), (4, 3)),
        None,
    )
    assert len(g.cycle_collections()) == 3


# -- graph polynomials -------------------------------------------------------------------


def test_qs_graph_polynomial_matches_display():
    poly = graph_polynomial_brackets(builtin_graph_data("qs"))
    assert equal_up_to_sign(poly, ALL_DISPLAYS["qs"]())


def test_bracket_route_expands_to_coordinate_route():
    """The bracket determinant, expanded term by term, equals the determinant
    of the entrywise-expanded matrix, with symbolic extras and with e1, e2,
    e3 in place of qs's q1, q2, q3."""
    for name in ("qs", "fig2c", "fig2r", "concurrent3"):
        data = builtin_graph_data(name)
        expanded = graph_polynomial_brackets(data).expand(data.matroid.rank)
        assert expanded == graph_polynomial(data)
    data = builtin_graph_data("qs")
    basis = {f"q{b}": ExtraVector.basis(b, 3) for b in (1, 2, 3)}
    concrete = GraphData(data.matroid, data.anchor, data.points, data.circuits, tuple(basis.values()))

    def column(label):
        return basis[label].column(3) if label in basis else symbolic_column(label, 3)

    expanded = graph_polynomial_brackets(data).expand(3, column)
    assert not expanded.is_zero()
    assert expanded == graph_polynomial(concrete)


def test_duplicate_circuits_with_equal_extras_vanish():
    data = GraphData(
        QS,
        frozenset({1, 5, 6}),
        (2, 3),
        ((1, 2, 3), (1, 2, 3)),
        (Q_SYM, Q_SYM),
    )
    assert graph_polynomial(data).is_zero()


def test_duplicate_circuits_with_distinct_extras_do_not_vanish():
    data = builtin_graph_data("concurrent3")
    assert not graph_polynomial(data).is_zero()


def test_pair_order_does_not_change_the_polynomial():
    base = builtin_graph_data("qs")
    shuffled = GraphData(
        base.matroid,
        base.anchor,
        (base.points[2], base.points[0], base.points[1]),
        (base.circuits[2], base.circuits[0], base.circuits[1]),
        (base.extras[2], base.extras[0], base.extras[1]),
    )
    assert graph_polynomial(base) == graph_polynomial(shuffled)


def test_dual_routes_agree_on_worked_examples():
    for name in ("qs", "fig2c", "fig2r", "concurrent3"):
        data = builtin_graph_data(name)
        det_route = graph_polynomial(data)
        cycle_route = graph_polynomial_via_cycles(data)
        unit = equal_up_to_unit(det_route, cycle_route)
        assert unit is not None, name
        assert unit != 0


def test_dual_routes_agree_at_bracket_level():
    for name in builtin_graph_data_names():
        data = builtin_graph_data(name)
        det_route = graph_polynomial_brackets(data)
        cycle_route = graph_polynomial_via_cycles_brackets(data)
        unit = bracket_equal_up_to_unit(det_route, cycle_route)
        assert unit is not None, name
        assert unit != 0


def test_grid_deduped_cycles_match_the_display():
    data = builtin_graph_data("grid3x4")
    deduped = graph_polynomial_via_cycles_brackets(data, dedupe_denominators=True)
    assert equal_up_to_sign(deduped, ALL_DISPLAYS["grid3x4"]())


def test_grid_determinant_is_display_times_redundant_denominators():
    data = builtin_graph_data("grid3x4")
    det_route = graph_polynomial_brackets(data)
    deduped = graph_polynomial_via_cycles_brackets(data, dedupe_denominators=True)
    # The 9-row clearing repeats each row denominator bracket once per
    # parallel row; dividing out, the two routes agree up to sign.
    from pavingideals.matroids import grid_point

    extra = BracketPolynomial.one()
    for i in (1, 2, 3):
        extra = extra * BracketPolynomial.bracket(
            (grid_point(i, i, 4), grid_point(i, 4, 4), f"q{i}")
        )
    assert equal_up_to_sign(det_route, deduped * extra)


def test_single_point_data_is_structurally_impossible():
    # A lone threaded point whose circuit otherwise sits in the anchor set
    # lies in the anchor's closure, so the hypotheses reject it; every valid
    # instance gives each vertex an out-neighbour, hence contains a cycle.
    data = GraphData(
        QS, frozenset({1, 5, 6}), (2,), ((1, 2, 3),), (ExtraVector.symbolic("q1"),)
    )
    with pytest.raises(HypothesisViolation):
        graph_polynomial_via_cycles(data)


# -- finite family ---------------------------------------------------------------------


def test_uniform_family_is_empty():
    family = finite_generating_family(PavingMatroid.uniform(3, 6))
    assert family.polynomials == ()


def test_qs_family_contains_circuits_and_graph_polys():
    family = finite_generating_family(QS)
    labels = [p.label for p in family.polynomials]
    assert sum(1 for l in labels if l.startswith("circuit")) == 4
    assert any(l.startswith("graph") for l in labels)
    # Deduplication up to sign leaves no repeated polynomial.
    normals = [normalized_sign(p.polynomial)[0] for p in family.polynomials]
    assert len(set(normals)) == len(normals)


@pytest.fixture
def unpacked(monkeypatch) -> list[list[tuple]]:
    """The monomials of each ``Ring.unpack`` call, the one conversion of
    packed terms to tuple monomials, in call order."""
    calls = []
    unpack = Ring.unpack

    def counted(self, packed):
        calls.append(unpack(self, packed))
        return calls[-1]

    monkeypatch.setattr(Ring, "unpack", counted)
    return calls


def test_the_graph_determinant_is_written_without_unpacking(unpacked):
    line = graph_polynomial(builtin_graph_data("fig2r")).to_text()
    assert not unpacked
    assert len(Polynomial.from_text(line)) == 3024


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_family_unpacks_no_terms(unpacked):
    # The bracket entries expand, and the circuits, candidates and members
    # stay, packed in the family's one ring.
    family = finite_generating_family(QS)
    graph = [p for p in family.polynomials if p.label.startswith("graph")]
    assert len(graph) == 102
    assert unpacked == []
    assert len({p.polynomial._ring for p in graph}) == 1


def test_generate_all_canonical_unpacks_no_terms(unpacked, tmp_path):
    out = tmp_path / "qs-all.txt"
    assert cli.main(["generate", "--matroid", "qs", "--which", "all", "--q", "canonical", "--out", str(out)]) == 0
    assert out.read_text().count("# source: lifting") > 0
    assert unpacked == []


# sha256 over "label\ntext\n" of every family member, so that a change in
# any member's bytes shows up here; the CLI digests do not cover the family.
# Each builtin maps to (members, truncated, that sha256).
FAMILY_DIGESTS = {
    "qs": (106, True, "b719cf2ea5460b1d64a9c7ca7a13082a550699ee337b48c393f00201cc1ae291"),
    "concurrent3": (3, True, "46b1ff42d45571a7e9e2eff18f09d35cd991f63d615c7578dd7dc64339768fe0"),
    "pascal": (7, True, "18b6e3c37bb90cfe11f9b15860f29baf64348a23fe447584815ad8d06c18673b"),
    "fig2c": (6, True, "3ce12208ccde7442e2e168278935550e9202e6f3b89233f26503c65f989532ce"),
    "fig2r": (84, True, "70dc30e4fa7b82a7665e82a16af60234b3d59689f46fb1aba84865739bee3a56"),
    "grid3x3": (6, True, "bc15370dbd0dcb901be25acac025d3867f77beeb7def1fd40bdce6fd9520a15f"),
    "grid3x4": (16, True, "abb911455f3d89955afe3423519c8ab31dab4fbc1f8a12c79ec524901e42cf7b"),
    "grid3x5": (35, True, "5084e9781f492f823bdf38963110705ea82a0ba892d705fd46f3cefae15acf2c"),
    "grid3x6": (66, True, "d54ada5e86ac6cc2deb13f2f5d95c71df9113e879aed64e9819d192a080a196a"),
    "paving4_9": (6, True, "d16dcf1b982f415d45dcc2de9deb5a98bd86b4e55ea9395614cc860d1fd7651d"),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_matches_recorded_digest(name):
    family = finite_generating_family(builtin_matroid(name))
    text = "".join(f"{p.label}\n{p.polynomial.to_text()}\n" for p in family.polynomials)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(family.polynomials), family.truncated, digest) == FAMILY_DIGESTS[name]


GRAPH_LABEL = re.compile(r"graph J=(\[.*?\]) P=(\[.*?\]) C=(\[.*\]) q=(\[.*?\])")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["qs", "fig2r"])
def test_family_members_are_their_graph_polynomials(name):
    # Each member is read off the family's stacked matrix; rebuild it here
    # from its label through the per-assignment determinant route.
    matroid = builtin_matroid(name)
    members = [p for p in finite_generating_family(matroid).polynomials if p.label.startswith("graph ")]
    assert members
    for member in members:
        anchor, points, circuits, q = map(ast.literal_eval, GRAPH_LABEL.fullmatch(member.label).groups())
        extras = tuple(ExtraVector.basis(int(e.removeprefix("e")), matroid.rank) for e in q)
        data = GraphData(matroid, frozenset(anchor), tuple(points), tuple(map(tuple, circuits)), extras)
        assert equal_up_to_sign(graph_polynomial(data), member.polynomial), member.label


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_family_builds_engines_and_validates_per_tuple_not_per_assignment(monkeypatch):
    counts = Counter()
    for cls, name in ((MinorEngine, "__init__"), (GraphData, "validate")):

        def counted(*args, _original=getattr(cls, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    runs = {}
    for cap in (1, generators.FAMILY_MAX_BASIS_ASSIGNMENTS):
        monkeypatch.setattr(generators, "FAMILY_MAX_BASIS_ASSIGNMENTS", cap)
        counts.clear()
        family = finite_generating_family(QS)
        runs[cap] = (counts.copy(), family)
    (few, small), (many, full) = runs.values()
    assert len(small.polynomials) < len(full.polynomials)
    assert few == many
    tuples = {p.label.split(" q=")[0] for p in full.polynomials if p.label.startswith("graph ")}
    assert many["validate"] == len(tuples)
    # A circuit's bracket, then per anchor set its stacked matrix and at
    # most one expansion of the brackets new to it.
    anchors = {t.split(" P=")[0] for t in tuples}
    assert many["__init__"] <= len(circuit_polynomials(QS)) + 2 * len(anchors)


def test_family_warns_on_high_degree():
    with pytest.warns(UserWarning):
        finite_generating_family(builtin_matroid("pascal"))


# -- named constructions ----------------------------------------------------------------


def test_pascal_gc_quartic_is_degree_twelve():
    quartic = pascal_gc_quartic()
    assert max(sum(e for _, e in mono) for mono in quartic.terms) == 12
    brackets = pascal_gc_quartic_brackets()
    assert all(len(mono) == 4 for mono in brackets.terms)
    assert brackets.expand(3) == quartic


def test_rnc_reduces_to_the_hexagon_cycle_shape():
    form = rnc_polynomial_brackets(2, (1, 2, 3, 4, 5, 6))
    mapping = {"x1": 7, "x2": 8, "x3": 9,
               "r1_1": "q6", "r2_1": "q5", "r3_1": "q4",
               "q1": "q3", "q2": "q2", "q3": "q1"}
    renamed = rename_labels(form, mapping)
    assert equal_up_to_sign(renamed, ALL_DISPLAYS["pascal"]())


def test_rnc_cyclic_shift_is_equal_up_to_sign():
    base = rnc_polynomial_brackets(2, (1, 2, 3, 4, 5, 6))
    shifted = rnc_polynomial_brackets(2, (2, 3, 4, 5, 6, 1))
    mapping = {"x1": "x2", "x2": "x3", "x3": "x1",
               "r1_1": "r2_1", "r2_1": "r3_1", "r3_1": "q1",
               "q1": "q2", "q2": "q3", "q3": "r1_1"}
    relabeled = rename_labels(shifted, mapping)
    assert equal_up_to_sign(relabeled, base)


def test_rnc_bad_index_sets():
    with pytest.raises(BadIndexSet):
        rnc_polynomial_brackets(2, (1, 2, 3, 4, 5))
    with pytest.raises(BadIndexSet):
        rnc_polynomial_brackets(2, (1, 2, 3, 4, 5, 9))
    with pytest.raises(BadIndexSet):
        rnc_polynomial_brackets(2, (1, 1, 3, 4, 5, 6))


def test_rnc_degree_three_bracket_form():
    form = rnc_polynomial_brackets(3, (1, 2, 3, 4, 5, 6))
    assert len(form.terms) == 2
    for mono in form.terms:
        assert len(mono) == 6
        for key in mono:
            assert len(key) == 4  # ambient dimension d+1

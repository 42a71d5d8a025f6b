"""Join, meet and bracket identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from extensor_oracle import (
    Extensor,
    extensor_from_vectors,
    join,
    meet,
    point_extensor,
    top_coefficient,
)
from pavingideals.brackets import (
    BracketPolynomial,
    DimensionMismatch,
    LabeledExtensor,
    labeled_join,
    labeled_meet,
    meet_then_join,
    to_bracket_polynomial,
)
from pavingideals.linalg import matrix_rank
from pavingideals.poly import Polynomial
from pavingideals.polymatrix import MinorEngine
from pavingideals.variables import entry_var


def symbolic_bracket(points, dim=3) -> Polynomial:
    rows = [
        [Polynomial.variable(entry_var(r, p)) for p in points] for r in range(1, dim + 1)
    ]
    return MinorEngine(rows).determinant()


def random_vector(rng, dim):
    return tuple(rng.randint(-6, 6) for _ in range(dim))


# -- join ------------------------------------------------------------------


def test_standard_basis_join_is_top():
    e = [Extensor.basis_vector(3, i) for i in (1, 2, 3)]
    top = join(join(e[0], e[1]), e[2])
    assert top_coefficient(top) == 1


def test_self_join_vanishes():
    rng = random.Random(0)
    for _ in range(10):
        v = Extensor.from_vector(random_vector(rng, 4))
        assert join(v, v).is_zero()


def test_proportional_vectors_join_to_zero():
    v = Extensor.from_vector((2, -4, 6))
    w = Extensor.from_vector((1, -2, 3))
    assert join(v, w).is_zero()


def test_join_vanishes_iff_dependent():
    rng = random.Random(42)
    for _ in range(30):
        vectors = [random_vector(rng, 3) for _ in range(3)]
        wedge = extensor_from_vectors(vectors)
        dependent = matrix_rank(vectors) < 3
        assert wedge.is_zero() == dependent


def test_join_graded_anticommutativity():
    rng = random.Random(7)
    for _ in range(20):
        k, j = rng.randint(1, 2), rng.randint(1, 2)
        v = extensor_from_vectors([random_vector(rng, 4) for _ in range(k)])
        w = extensor_from_vectors([random_vector(rng, 4) for _ in range(j)])
        lhs = join(v, w)
        rhs = join(w, v)
        sign = (-1) ** (k * j)
        assert lhs.coeffs == (rhs if sign == 1 else -rhs).coeffs


def test_join_associativity():
    rng = random.Random(11)
    for _ in range(15):
        a, b, c = (Extensor.from_vector(random_vector(rng, 4)) for _ in range(3))
        lhs = join(join(a, b), c)
        rhs = join(a, join(b, c))
        assert lhs.coeffs == rhs.coeffs


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        join(Extensor.from_vector((1, 2)), Extensor.from_vector((1, 2, 3)))


# -- meet ---------------------------------------------------------------------


def test_meet_below_dim_is_zero():
    v = Extensor.from_vector((1, 2, 3))
    w = Extensor.from_vector((4, 5, 6))
    assert meet(v, w).is_zero()


def test_meet_of_planes_is_their_intersection():
    rng = random.Random(3)
    hits = 0
    for _ in range(25):
        p1 = [random_vector(rng, 3) for _ in range(2)]
        p2 = [random_vector(rng, 3) for _ in range(2)]
        v, w = extensor_from_vectors(p1), extensor_from_vectors(p2)
        if v.is_zero() or w.is_zero():
            continue
        got = meet(v, w)
        spans_all = matrix_rank(p1 + p2) == 3
        assert (not got.is_zero()) == spans_all
        if got.is_zero():
            continue
        hits += 1
        line = [got.coeffs.get((i,), 0) for i in (1, 2, 3)]
        # The meet lies in both planes.
        assert join(Extensor.from_vector(line), v).is_zero()
        assert join(Extensor.from_vector(line), w).is_zero()
    assert hits >= 15


def test_meet_nonzero_iff_spans_cover():
    rng = random.Random(13)
    for _ in range(25):
        k, j = rng.randint(1, 3), rng.randint(1, 3)
        if k + j < 3:
            continue
        a = [random_vector(rng, 3) for _ in range(k)]
        b = [random_vector(rng, 3) for _ in range(j)]
        v, w = extensor_from_vectors(a), extensor_from_vectors(b)
        if v.is_zero() or w.is_zero():
            continue
        assert (not meet(v, w).is_zero()) == (matrix_rank(a + b) == 3)


# -- the concurrency identity ---------------------------------------------------


def test_three_lines_meet_identity_symbolic():
    v34 = join(point_extensor(3, 3), point_extensor(4, 3))
    v12 = join(point_extensor(1, 3), point_extensor(2, 3))
    v56 = join(point_extensor(5, 3), point_extensor(6, 3))
    expanded = top_coefficient(join(meet(v34, v12), v56))
    expected = symbolic_bracket([1, 2, 3]) * symbolic_bracket([4, 5, 6]) - symbolic_bracket(
        [1, 2, 4]
    ) * symbolic_bracket([3, 5, 6])
    assert expanded == expected or expanded == -expected


def test_three_lines_label_level_matches_expansion():
    label_level = to_bracket_polynomial(meet_then_join(3, [((3, 4), (1, 2))], [(5, 6)]))
    assert label_level.pretty() in (
        "⟨1 2 3⟩⟨4 5 6⟩ - ⟨1 2 4⟩⟨3 5 6⟩",
        "-⟨1 2 3⟩⟨4 5 6⟩ + ⟨1 2 4⟩⟨3 5 6⟩",
    )
    v34 = join(point_extensor(3, 3), point_extensor(4, 3))
    v12 = join(point_extensor(1, 3), point_extensor(2, 3))
    v56 = join(point_extensor(5, 3), point_extensor(6, 3))
    assert label_level.expand(3) == top_coefficient(join(meet(v34, v12), v56))


def test_meet_identity_vanishes_on_concurrent_lines():
    # Three lines through a common point, built exactly.
    rng = random.Random(5)
    for _ in range(10):
        center = random_vector(rng, 3)
        dirs = [random_vector(rng, 3) for _ in range(3)]
        pts = {}
        pts[1] = tuple(center[i] + dirs[0][i] for i in range(3))
        pts[2] = tuple(center[i] + 2 * dirs[0][i] for i in range(3))
        pts[3] = tuple(center[i] + dirs[1][i] for i in range(3))
        pts[4] = tuple(center[i] + 3 * dirs[1][i] for i in range(3))
        pts[5] = tuple(center[i] + dirs[2][i] for i in range(3))
        pts[6] = tuple(center[i] + 5 * dirs[2][i] for i in range(3))
        identity = to_bracket_polynomial(meet_then_join(3, [((3, 4), (1, 2))], [(5, 6)]))
        assert identity.evaluate(pts) == 0


def test_labeled_join_repeated_point_is_zero():
    a = LabeledExtensor.points((1, 2), 3)
    b = LabeledExtensor.points((2,), 3)
    assert labeled_join(a, b).is_zero()


def test_bracket_polynomial_normalizes_sign():
    assert BracketPolynomial.bracket((3, 1, 2)) == BracketPolynomial.bracket((1, 2, 3))
    assert BracketPolynomial.bracket((2, 1, 3)) == -BracketPolynomial.bracket((1, 2, 3))
    assert BracketPolynomial.bracket((1, 1, 2)).is_zero()


def test_bracket_support_is_the_set_of_brackets():
    product = BracketPolynomial.bracket((1, 2, 3)) * BracketPolynomial.bracket((1, 2, 4))
    assert product.support() == {(1, 2, 3), (1, 2, 4)}
    assert (product * BracketPolynomial.bracket((3, 2, 1))).support() == {(1, 2, 3), (1, 2, 4)}
    assert BracketPolynomial.bracket((2, 1)).support() == {(1, 2)}
    assert (BracketPolynomial.bracket((1, "q")) + 1).support() == {(1, "q")}
    assert BracketPolynomial().support() == set()

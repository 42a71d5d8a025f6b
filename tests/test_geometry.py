"""Samplers, membership predicates, projection and lifting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pavingideals.generators import ExtraVector, liftability_matrix_at, lifting_polynomials
from pavingideals.lifting import (
    CenterOnHyperplane,
    Hyperplane,
    PointThroughCenter,
    RankDefect,
    lift,
    lifting_number,
    project,
    regular_hyperplanes,
)
from pavingideals.linalg import kernel_basis, matrix_rank
from pavingideals.matroids import PavingMatroid, builtin_matroid
from pavingideals.realizations import (
    IndexMismatch,
    Realization,
    in_circuit_variety,
    in_realization_space,
)
from pavingideals.samplers import (
    ResamplingExhausted,
    UnknownFamily,
    sample_collinear_points,
    sample_family,
)

QS = builtin_matroid("qs")


def random_hyperplane_and_center(rng: random.Random, dim: int = 3):
    while True:
        normal = tuple(rng.randint(-7, 7) for _ in range(dim))
        center = tuple(rng.randint(-7, 7) for _ in range(dim))
        pairing = sum(a * b for a, b in zip(normal, center))
        if any(normal) and pairing != 0:
            return Hyperplane(normal), center


# -- samplers -----------------------------------------------------------------


def test_sampler_families_land_in_realization_space():
    for family in ("qs", "concurrent3", "pascal", "fig2c", "fig2r", "grid3x4"):
        for seed in (0, 1, 2):
            r = sample_family(family, seed)
            assert in_realization_space(r.vectors, r.matroid), (family, seed)
            assert in_circuit_variety(r.vectors, r.matroid)


def test_sampler_is_deterministic():
    a = sample_family("qs", seed=5)
    b = sample_family("qs", seed=5)
    assert a.vectors == b.vectors


def test_pascal_sampler_aligns_the_three_meets():
    r = sample_family("pascal", seed=1)
    assert matrix_rank([r.vectors[7], r.vectors[8], r.vectors[9]]) == 2


def test_uniform_samplers():
    r = sample_family("uniform(2,6)", seed=0)
    assert matrix_rank(list(r.vectors.values())) == 2
    r34 = sample_family("uniform(3,4)", seed=0)
    assert in_realization_space(r34.vectors, r34.matroid)


def test_grid_4x6_sampler():
    r = sample_family("grid4x6", seed=0)
    assert r.matroid.rank == 4
    assert in_realization_space(r.vectors, r.matroid)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        sample_family("nope", 0)


def test_realization_json_round_trip():
    r = sample_family("qs", seed=7)
    again = Realization.from_json(r.to_json())
    assert again.vectors == r.vectors
    assert again.matroid.hyperplanes == r.matroid.hyperplanes
    assert again.seed == 7


def test_index_mismatch():
    with pytest.raises(IndexMismatch):
        Realization(QS, {1: (1, 0, 0)})


# -- membership predicates ------------------------------------------------------


def test_zero_vectors_are_in_circuit_variety_only():
    zeros = {p: (0, 0, 0) for p in QS.points}
    assert in_circuit_variety(zeros, QS)
    assert not in_realization_space(zeros, QS)


def test_collinear_points_are_degenerate_qs():
    vectors = sample_collinear_points(6, seed=3)
    assert in_circuit_variety(vectors, QS)
    assert not in_realization_space(vectors, QS)


# -- projection ---------------------------------------------------------------


def test_projection_fixes_hyperplane_points():
    h = Hyperplane((0, 0, 1))
    r = Realization(
        PavingMatroid.uniform(2, 3),
        {1: (1, 2, 0), 2: (3, 1, 0), 3: (1, 1, 5)},
    )
    image = project(r, h, (0, 0, 1))
    assert image.vectors[1] == (1, 2, 0)
    assert image.vectors[2] == (3, 1, 0)
    assert image.vectors[3] == (1, 1, 0)


def test_projection_rejects_center_on_hyperplane():
    h = Hyperplane((0, 0, 1))
    r = sample_family("qs", seed=0)
    with pytest.raises(CenterOnHyperplane):
        project(r, h, (1, 1, 0))


def test_projection_rejects_point_through_center():
    h = Hyperplane((0, 0, 1))
    r = Realization(PavingMatroid.uniform(2, 3), {1: (0, 0, 3), 2: (1, 0, 0), 3: (0, 1, 0)})
    with pytest.raises(PointThroughCenter):
        project(r, h, (0, 0, 1))


def test_projected_configuration_is_flat_and_in_circuit_variety():
    rng = random.Random(11)
    for seed in range(4):
        r = sample_family("qs", seed)
        h, center = random_hyperplane_and_center(rng)
        flat = project(r, h, center)
        assert matrix_rank(list(flat.vectors.values())) == 2
        assert in_circuit_variety(flat.vectors, QS)


# -- lifting ---------------------------------------------------------------------


def test_projection_then_lift_round_trip():
    rng = random.Random(23)
    for seed in range(5):
        r = sample_family("qs", seed)
        h, center = random_hyperplane_and_center(rng)
        flat = project(r, h, center)
        evaluated = liftability_matrix_at(QS, flat.vectors, center)
        assert len(kernel_basis(evaluated, QS.size)) >= 3
        lifted = lift(flat, center)
        assert lifted is not None
        assert matrix_rank(list(lifted.vectors.values())) == 3
        assert in_circuit_variety(lifted.vectors, QS)


def test_lift_scale_moves_arbitrarily_close():
    rng = random.Random(29)
    r = sample_family("qs", 1)
    h, center = random_hyperplane_and_center(rng)
    flat = project(r, h, center)
    tiny = lift(flat, center, scale=Fraction(1, 10**9))
    assert tiny is not None
    for p in QS.points:
        drift = [a - b for a, b in zip(tiny.vectors[p], flat.vectors[p])]
        assert all(abs(Fraction(d)) < Fraction(1, 1000) for d in drift)


def test_generic_collinear_points_do_not_lift():
    rng = random.Random(31)
    found = 0
    seed = 0
    while found < 5:
        seed += 1
        vectors = sample_collinear_points(6, seed=seed)
        flat = Realization(QS, vectors)
        h, center = random_hyperplane_and_center(rng)
        if any(sum(a * b for a, b in zip(vectors[p], center)) is None for p in vectors):
            continue
        stacked = [list(vectors[p]) for p in QS.points] + [list(center)]
        if matrix_rank(stacked) != 3:
            continue
        evaluated = liftability_matrix_at(QS, vectors, center)
        minors_vanish = len(kernel_basis(evaluated, QS.size)) >= 3
        if minors_vanish:
            continue  # not generic enough; certify and skip
        found += 1
        assert lift(flat, center) is None


def test_lift_requires_flat_input():
    r = sample_family("qs", 0)
    with pytest.raises(RankDefect):
        lift(r, (1, 1, 1))


def flat_uniform_vectors(rng: random.Random, n: int, d: int):
    """d nonzero vectors spanning exactly an (n-1)-subspace of C^n."""
    while True:
        basis = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n - 1)]
        if matrix_rank(basis) != n - 1:
            continue
        vectors = {}
        for p in range(1, d + 1):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
            vectors[p] = vec
        if any(not any(v) for v in vectors.values()):
            continue
        if matrix_rank(list(vectors.values())) == n - 1:
            return vectors


def test_uniform_matroid_kernel_law_and_no_lift():
    # Rank-(n-1) uniform matroids in ambient n: whenever the vectors span
    # the whole space together with the center, the kernel dimension is
    # exactly n-1, so only degenerate lifts exist.
    rng = random.Random(5)
    for n in (3, 4):
        for d in (n + 1, n + 2):
            matroid = PavingMatroid.uniform(n - 1, d)
            for _ in range(3):
                # Arbitrary-rank vectors: the law needs only the span condition.
                while True:
                    vectors = {
                        p: tuple(rng.randint(-6, 6) for _ in range(n))
                        for p in matroid.points
                    }
                    center = tuple(rng.randint(-6, 6) for _ in range(n))
                    if matrix_rank(list(vectors.values()) + [list(center)]) == n:
                        break
                evaluated = liftability_matrix_at(matroid, vectors, center)
                assert len(kernel_basis(evaluated, matroid.size)) == n - 1
            for _ in range(2):
                # Flat vectors with an off-span center: lift must refuse.
                vectors = flat_uniform_vectors(rng, n, d)
                while True:
                    center = tuple(rng.randint(-6, 6) for _ in range(n))
                    if matrix_rank(list(vectors.values()) + [list(center)]) == n:
                        break
                evaluated = liftability_matrix_at(matroid, vectors, center)
                assert len(kernel_basis(evaluated, matroid.size)) == n - 1
                flat = Realization(matroid, vectors)
                assert lift(flat, center, matroid) is None


# -- regular hyperplanes and the lifting number -------------------------------------


def test_sampled_qs_is_regular_with_zero_lifting_number():
    r = sample_family("qs", 2)
    assert regular_hyperplanes(r.vectors, QS) == QS.hyperplanes
    assert lifting_number(r.vectors, QS) == 0


def test_collinear_qs_has_maximal_lifting_number():
    vectors = sample_collinear_points(6, seed=1)
    assert len(regular_hyperplanes(vectors, QS)) == 4
    assert lifting_number(vectors, QS) == 12  # all ordered pairs of 4 lines


def test_zero_vectors_have_no_regular_hyperplanes():
    zeros = {p: (0, 0, 0) for p in QS.points}
    assert regular_hyperplanes(zeros, QS) == ()
    assert lifting_number(zeros, QS) == 0


# -- circuit-variety dichotomy for the quadrilateral --------------------------------


def test_circuit_variety_sample_dichotomy():
    # Every exact point we construct in the circuit variety either passes
    # all maximal liftability minors (for sampled centers) or has rank <= 2.
    rng = random.Random(99)
    cases = []
    for seed in range(3):
        cases.append(sample_family("qs", seed).vectors)  # true realizations
        cases.append(sample_collinear_points(6, seed=seed))  # rank-2 branch
        r = sample_family("qs", seed)
        h, center = random_hyperplane_and_center(rng)
        flat = project(r, h, center)
        lifted = lift(flat, center)
        assert lifted is not None
        cases.append(lifted.vectors)  # lifted branch
    for vectors in cases:
        assert in_circuit_variety(vectors, QS)
        rank = matrix_rank(list(vectors.values()))
        if rank == 2:
            continue
        h, center = random_hyperplane_and_center(rng)
        evaluated = liftability_matrix_at(QS, vectors, center)
        assert len(kernel_basis(evaluated, QS.size)) >= 3

"""Samplers, membership predicates, projection and lifting."""

from __future__ import annotations

import gc
import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import collinear_points, rank_in_realization_space
from pavingideals import generators, linalg
from pavingideals.generators import ExtraVector, liftability_matrix_at, lifting_polynomials
from pavingideals.lifting import (
    CenterOnHyperplane,
    Hyperplane,
    PointThroughCenter,
    RankDefect,
    degenerate_lift_subspace,
    lift,
    project,
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
    sample_family,
    sample_realization,
)
from pavingideals.scalars import format_rational

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


def test_realization_json_is_indented_json_and_leaves_no_cycles():
    embedded = Realization(PavingMatroid.validate([[1, 2, 3]], 3, 5), {
        1: (1, 0, 0), 2: (0, 1, 0), 3: (1, Fraction(-1, 2), 0), 4: (0, 0, 1), 5: (1, 2, 3),
    })
    for r in (sample_family("qs", seed=7), sample_family("grid3x4", seed=2), embedded):
        want = json.dumps(r.to_json_dict(), indent=2, sort_keys=True)
        gc.collect()
        assert r.to_json() == want
        assert gc.collect() == 0


def test_index_mismatch():
    with pytest.raises(IndexMismatch):
        Realization(QS, {1: (1, 0, 0)})


# -- membership predicates ------------------------------------------------------


def test_zero_vectors_are_in_circuit_variety_only():
    zeros = {p: (0, 0, 0) for p in QS.points}
    assert in_circuit_variety(zeros, QS)
    assert not in_realization_space(zeros, QS)


def test_collinear_points_are_degenerate_qs():
    vectors = collinear_points(6, seed=3)
    assert in_circuit_variety(vectors, QS)
    assert not in_realization_space(vectors, QS)


PERTURBATIONS = ("none", "zero", "parallel", "nudge", "rescale", "random")


def _perturbed(rng: random.Random, vectors: dict, kind: str) -> dict:
    out = dict(vectors)
    n = len(next(iter(out.values())))
    p, q = rng.sample(sorted(out), 2)
    if kind == "zero":
        out[p] = (0,) * n
    elif kind == "parallel":
        out[p] = tuple(rng.choice((-2, -1, 2, 3)) * c for c in out[q])
    elif kind == "nudge":
        i = rng.randrange(n)
        out[p] = tuple(c + rng.choice((-1, 1)) * (j == i) for j, c in enumerate(out[p]))
    elif kind == "rescale":
        factor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        out[p] = tuple(factor * c for c in out[p])
    elif kind == "random":
        out = {x: tuple(rng.randint(-3, 3) for _ in range(n)) for x in out}
    return out


# (family, seeds, configurations drawn per seed)
MEMBERSHIP_DRAWS = (
    ("uniform(2,6)", range(6), 60),
    ("qs", range(6), 50),
    ("pascal", range(5), 40),
    ("grid3x4", range(4), 30),
    ("paving4_9", range(2), 30),
    ("grid4x6", range(1), 4),
)


def test_determinant_membership_agrees_with_the_rank_oracle():
    """Sampled realizations, unperturbed or with a zero vector, a parallel
    pair, a +-1 nudge, one point rescaled by a Fraction, or all vectors
    random and small: the determinant test and the rank oracle agree."""
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for family, seeds, draws in MEMBERSHIP_DRAWS:
        for seed in seeds:
            r = sample_family(family, seed)
            for i in range(draws):
                kind = PERTURBATIONS[i % len(PERTURBATIONS)]
                vectors = _perturbed(rng, r.vectors, kind)
                got = in_realization_space(vectors, r.matroid)
                assert got == rank_in_realization_space(vectors, r.matroid), (family, seed, kind)
                verdicts[got] += 1
                kinds.add(kind)
    assert sum(verdicts.values()) >= 1000
    assert min(verdicts.values()) >= 200, verdicts
    assert kinds == set(PERTURBATIONS)


@pytest.mark.parametrize("length", (2, 4))
def test_membership_rejects_vectors_of_the_wrong_length(length):
    r = sample_family("qs", 0)
    vectors = dict(r.vectors)
    vectors[4] = (vectors[4] + (1, 1))[:length]
    with pytest.raises(IndexMismatch, match="point 4 has"):
        in_realization_space(vectors, QS)


def test_certifying_a_sample_runs_no_elimination(monkeypatch):
    r = sample_family("grid3x6", 0)
    calls = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows: calls.append(rows) or echelon(rows))
    assert in_realization_space(r.vectors, r.matroid)
    assert calls == []


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


def _projected(family: str, seed: int):
    """A sample projected from a center drawn off its family and seed."""
    r = sample_family(family, seed)
    rng = random.Random(f"{family}:{seed}")
    while True:
        h, center = random_hyperplane_and_center(rng)
        try:
            return project(r, h, center), center
        except PointThroughCenter:
            continue


# sha256 of the lifted vectors for seeds 0 and 1, each at scale 1 and -2/3,
# recorded when lift still ran its eliminations on the projected Fractions.
LIFT_DIGESTS = {
    "qs": "a173b6c2677c93abf7864b8ecf204aa1b243db989f9b54c0dae981c3ead86f8a",
    "fig2r": "8a09d1ff1a6bb9e661fafaaf35579c8da9ee6c64afa55c0b78891a0a606658bd",
    "fig2c": "8a16edf33e27eb5343c7a07d8cad6ef27afe54b63965b9dc384275c7b54b469a",
    "pascal": "e63f5a2cc91307a65865d0e6cd36861b6a94bf6990d835b18b822ce413ca1829",
    "concurrent3": "e3da971b6579cff2d2f6b8324437f501d68ef68fc3be519380751af54cbd9e5c",
    "grid3x4": "434288806e8eeb1fb0f7c0802ea1b632610f6ea7b20bf51493539cf8bc5119f9",
    "grid3x5": "0620c917ee02ca04af72343715d7afde7e3113951501e0a4216df5d90410f493",
    "grid3x6": "497bf4e8aa73792b5789d78ae3b740a331ecb2a7a1582f963f45839af08316af",
}


@pytest.mark.parametrize("family", sorted(LIFT_DIGESTS))
def test_lift_matches_the_recorded_digest(family):
    digest = hashlib.sha256()
    for seed in (0, 1):
        flat, center = _projected(family, seed)
        for scale in (1, Fraction(-2, 3)):
            lifted = lift(flat, center, scale=scale)
            assert lifted is not None, (family, seed, scale)
            lines = [f"{p}:{','.join(map(format_rational, v))}" for p, v in sorted(lifted.vectors.items())]
            digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == LIFT_DIGESTS[family]


def test_lift_of_a_projected_configuration_eliminates_on_integers(monkeypatch):
    flat, center = _projected("grid3x4", 0)
    assert any(isinstance(c, Fraction) for v in flat.vectors.values() for c in v)
    matrices = []
    echelon = linalg.echelon

    def recorded(rows):
        matrices.append([list(row) for row in rows])
        return echelon(matrices[-1])

    monkeypatch.setattr(linalg, "echelon", recorded)
    assert lift(flat, center) is not None
    assert matrices
    assert all(type(c) is int for m in matrices for row in m for c in row)


def test_lift_back_substitutes_kernel_vectors_only_until_one_lifts(monkeypatch):
    # Each of these kernels has dimension 3; its first vector already lies
    # outside the degenerate subspace.
    projected = [_projected("grid3x6", seed) for seed in (0, 1)]
    drawn = []
    back_substitute = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute", lambda *args: drawn.append(1) or back_substitute(*args))
    for flat, center in projected:
        assert lift(flat, center) is not None
    assert len(drawn) == 2


def test_lifting_one_matroid_builds_its_liftability_matrix_once(monkeypatch):
    # ``lift`` reads the matrix as its signed rows.
    built = []
    signed_rows = generators.signed_rows
    monkeypatch.setattr(generators, "signed_rows", lambda *args: built.append(1) or signed_rows(*args))
    matroid = PavingMatroid.validate([[1, 2, 3, 4], [1, 5, 6]], 3, 7)
    center = (2, -1, 5)
    flat = project(sample_realization(matroid, 5), Hyperplane((1, 2, 3)), center)
    for scale in (1, 2, 3):
        assert lift(flat, center, scale=scale) is not None
    assert len(built) == 1


@pytest.mark.parametrize("family", ["qs", "pascal", "grid3x6"])
def test_degenerate_lifts_are_kernel_rows_of_rank_n_minus_1(family):
    for seed in (0, 1):
        flat, center = _projected(family, seed)
        rows = degenerate_lift_subspace(flat.vectors, flat.matroid.points, len(center))
        evaluated = liftability_matrix_at(flat.matroid, flat.vectors, center)
        assert all(sum(a * z for a, z in zip(e, row)) == 0 for e in evaluated for row in rows)
        assert matrix_rank(rows) == flat.matroid.rank - 1


def test_generic_collinear_points_do_not_lift():
    rng = random.Random(31)
    found = 0
    seed = 0
    while found < 5:
        seed += 1
        vectors = collinear_points(6, seed=seed)
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
                assert lift(flat, center) is None


# -- regular hyperplanes and the lifting number -------------------------------------


def same_row_space(a, b) -> bool:
    a, b = [list(r) for r in a], [list(r) for r in b]
    return matrix_rank(a) == matrix_rank(b) == matrix_rank(a + b)


def regular_hyperplanes(vectors, matroid: PavingMatroid) -> tuple[frozenset[int], ...]:
    """Hyperplanes whose vectors span exactly dimension n-1."""
    if set(vectors) != set(matroid.points):
        raise IndexMismatch("vectors are not indexed by the matroid's points")
    out = []
    for h in matroid.hyperplanes:
        if matrix_rank([vectors[p] for p in sorted(h)]) == matroid.rank - 1:
            out.append(h)
    return tuple(out)


def lifting_number(vectors, matroid: PavingMatroid) -> int:
    """Ordered pairs of distinct regular hyperplanes with identical spans."""
    regular = regular_hyperplanes(vectors, matroid)
    count = 0
    for h1 in regular:
        rows1 = [list(vectors[p]) for p in sorted(h1)]
        for h2 in regular:
            if h1 == h2:
                continue
            rows2 = [list(vectors[p]) for p in sorted(h2)]
            if same_row_space(rows1, rows2):
                count += 1
    return count



def test_sampled_qs_is_regular_with_zero_lifting_number():
    r = sample_family("qs", 2)
    assert regular_hyperplanes(r.vectors, QS) == QS.hyperplanes
    assert lifting_number(r.vectors, QS) == 0


def test_collinear_qs_has_maximal_lifting_number():
    vectors = collinear_points(6, seed=1)
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
        cases.append(collinear_points(6, seed=seed))  # rank-2 branch
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

"""Cross-module invariants and conjecture-style randomized checks."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from oracles import collinear_points, find_sdr, pascal_gc_quartic, random_hyperplane_and_center
from pavingideals.cli import main
from pavingideals.generators import (
    ExtraVector,
    GraphData,
    LabeledPolynomial,
    graph_polynomial,
    liftability_matrix_at,
)
from pavingideals.lifting import project
from pavingideals.linalg import matrix_rank
from pavingideals.matroids import PavingMatroid, builtin_matroid, builtin_matroid_names
from pavingideals.polyfiles import render_polynomials
from pavingideals.realizations import Realization, in_realization_space
from pavingideals.samplers import (
    ResamplingExhausted,
    constructible_order,
    sample_family,
    sample_realization,
)
from pavingideals.verify import evaluate_poly


def test_matroid_rank_agrees_with_sampled_vector_rank():
    for family in ("qs", "pascal", "fig2r", "grid3x4"):
        r = sample_family(family, seed=4)
        m = r.matroid
        rng = random.Random(family)
        subsets = [
            rng.sample(m.points, rng.randint(0, min(m.size, 5))) for _ in range(25)
        ]
        for s in subsets:
            assert m.rank_of(s) == matrix_rank([r.vectors[p] for p in s])


SAMPLED = builtin_matroid_names() + ("grid3x5", "grid3x6", "grid4x6", "uniform(3,8)", "uniform(4,8)")


@pytest.mark.parametrize("name", SAMPLED)
def test_sample_realization_certifies(name):
    m = builtin_matroid(name)
    assert constructible_order(m) is not None
    for seed in (0, 1, 2):
        found = sample_realization(m, seed)
        assert found is not None
        assert in_realization_space(found.vectors, m)


# Pappus: A1 A2 A3 = 1 2 3 and B1 B2 B3 = 4 5 6 on two lines; 7, 8, 9 are
# the cross joins A_iB_j ∩ A_jB_i, collinear by Pappus's theorem.
PAPPUS_LINES = [
    [1, 2, 3], [4, 5, 6], [1, 5, 7], [2, 4, 7], [1, 6, 8],
    [3, 4, 8], [2, 6, 9], [3, 5, 9], [7, 8, 9],
]


def test_pappus_has_no_constructible_order():
    # Every point lies on three lines of three points, so peeling stops at
    # once instead of searching the 9! orders.
    pappus = PavingMatroid.validate(PAPPUS_LINES, 3, 9)
    assert constructible_order(pappus) is None
    with pytest.raises(ResamplingExhausted, match="no constructible order"):
        sample_realization(pappus, 0)


def test_forced_points_that_never_certify_exhaust_resampling():
    # Without the line 7 8 9 the order exists, but Pappus's theorem puts
    # 7, 8, 9 on a line in every placement.
    non_pappus = PavingMatroid.validate(PAPPUS_LINES[:-1], 3, 9)
    assert constructible_order(non_pappus) is not None
    with pytest.raises(ResamplingExhausted, match="after 64 tries"):
        sample_realization(non_pappus, 0)


def test_regular_flattened_configurations_satisfy_graph_subideal():
    # Conjecture-style randomized check: a regular configuration killing all
    # maximal liftability minors (here, a projected realization) also kills
    # the graph polynomials with every extra vector equal to the center,
    # for submatroids of hyperplanes.
    rng = random.Random(424242)
    qs = builtin_matroid("qs")
    for seed in range(5):
        r = sample_family("qs", seed)
        h, center = random_hyperplane_and_center(rng)
        flat = project(r, h, center)
        evaluated = liftability_matrix_at(qs, flat.vectors, center)
        assert matrix_rank(evaluated) <= qs.size - qs.rank
        extra = ExtraVector.concrete(center)
        for count in (2, 3, 4):
            for lines in combinations(qs.hyperplanes, count):
                n_sub = qs.restrict(frozenset().union(*lines))
                for anchor_size in range(0, 3):
                    for anchor_pick in combinations(n_sub.points, anchor_size):
                        anchor = frozenset(anchor_pick)
                        if n_sub.closure(anchor) != anchor:
                            continue
                        points = tuple(p for p in n_sub.points if p not in anchor)
                        circuits_pool = n_sub.circuits_n()
                        sdr = find_sdr(circuits_pool[: len(points)], points)
                        if sdr is None or len(circuits_pool) < len(points):
                            continue
                        data = GraphData(
                            qs,
                            anchor,
                            tuple(sdr),
                            circuits_pool[: len(points)],
                            tuple(extra for _ in points),
                        )
                        try:
                            data.validate()
                        except Exception:
                            continue
                        value = evaluate_poly(graph_polynomial(data), flat, {})
                        assert value == 0


def test_cli_verify_quartic_expected_nonzero_fails_on_collinear_witness(tmp_path, capsys):
    # The meet-expansion quartic vanishes on every collinear configuration,
    # so expecting it to be nonzero there must exit with the verification
    # failure code.
    vectors = {p: v for p, v in collinear_points(9, seed=2).items()}
    matroid = builtin_matroid("pascal")
    flat = Realization(matroid, vectors)
    real = tmp_path / "collinear.json"
    real.write_text(flat.to_json())
    polys = tmp_path / "quartic.txt"
    polys.write_text(
        render_polynomials([LabeledPolynomial("pascal-quartic", pascal_gc_quartic())])
    )
    code = main(
        ["verify", "--polys", str(polys), "--realization", str(real), "--expect", "nonzero"]
    )
    captured = capsys.readouterr()
    assert code == 3
    report = [json.loads(l) for l in captured.out.splitlines() if l.strip()]
    assert all(entry["value"] == "0" and not entry["pass"] for entry in report)


def test_pascal_intersection_points_join_to_zero():
    # The three opposite-side meets of the sampled hexagon are collinear, so
    # their wedge vanishes.
    from extensor_oracle import extensor_from_vectors

    r = sample_family("pascal", seed=1)
    wedge = extensor_from_vectors([r.vectors[7], r.vectors[8], r.vectors[9]])
    assert wedge.is_zero()


def test_finite_family_vanishes_on_sampled_realizations():
    from pavingideals.generators import finite_generating_family
    from pavingideals.verify import verify_vanishing

    qs = builtin_matroid("qs")
    family = finite_generating_family(qs)
    assert family.polynomials
    for seed in range(3):
        report = verify_vanishing(list(family.polynomials), sample_family("qs", seed))
        assert report.all_pass


def test_verify_zero_polynomial_passes_everywhere():
    from pavingideals.poly import Polynomial
    from pavingideals.verify import verify_vanishing

    r = sample_family("qs", seed=0)
    report = verify_vanishing([LabeledPolynomial("zero", Polynomial.zero())], r)
    assert report.all_pass and report.checks[0].value == 0

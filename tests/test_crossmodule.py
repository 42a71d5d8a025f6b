"""Cross-module invariants and conjecture-style randomized checks."""

from __future__ import annotations

import json
import random
from itertools import combinations

from oracles import find_sdr, random_hyperplane_and_center
from pavingideals.cli import main
from pavingideals.generators import (
    ExtraVector,
    GraphData,
    LabeledPolynomial,
    graph_polynomial,
    liftability_matrix_at,
    pascal_gc_quartic,
)
from pavingideals.lifting import project
from pavingideals.linalg import matrix_rank
from pavingideals.matroids import builtin_matroid
from pavingideals.polyfiles import render_polynomials
from pavingideals.realizations import Realization, in_realization_space
from pavingideals.samplers import sample_collinear_points, sample_family, search_realization
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


def test_search_realization_finds_quadrilateral():
    m = builtin_matroid("qs")
    found = search_realization(m, seed=2)
    assert found is not None
    assert in_realization_space(found.vectors, m)


def test_search_realization_has_no_guarantee():
    # Degree-3 points generally need algebraic constructions; the search may
    # return None, and whatever it returns must be exact.
    result = search_realization(builtin_matroid("paving4_9"), seed=2, attempts=30)
    if result is not None:
        assert in_realization_space(result.vectors, result.matroid)


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
                sub = qs.submatroid_of_hyperplanes(list(lines))
                if not sub.is_full_rank():
                    continue
                n_sub = sub.as_paving()
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
    vectors = {p: v for p, v in sample_collinear_points(9, seed=2).items()}
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

"""Paving matroid combinatorics."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavingideals.matroids import (
    GroundSetTooSmall,
    IntersectionTooLarge,
    MatroidError,
    NotFullRank,
    PavingMatroid,
    UnknownPoint,
    builtin_matroid,
    builtin_matroid_names,
    grid_matroid,
    paving4_9_matroid,
    pascal_matroid,
    quadrilateral_matroid,
)

QS = quadrilateral_matroid()


def brute_rank(m: PavingMatroid, subset) -> int:
    """Independent-set rank straight from the circuit lists."""
    circuits = [set(c) for c in m.circuits_n()] + [set(c) for c in m.circuits_n1()]
    best = 0
    subset = sorted(subset)
    for size in range(len(subset), -1, -1):
        for combo in combinations(subset, size):
            if not any(c <= set(combo) for c in circuits):
                return size
    return best


def brute_closure(m: PavingMatroid, subset) -> frozenset:
    r = brute_rank(m, subset)
    return frozenset(p for p in m.points if brute_rank(m, set(subset) | {p}) == r)


# -- validation ---------------------------------------------------------


def test_qs_is_valid():
    assert QS.rank == 3
    assert QS.size == 6
    assert len(QS.hyperplanes) == 4


def test_shared_pair_rejected():
    with pytest.raises(IntersectionTooLarge):
        PavingMatroid.validate([[1, 2, 3], [1, 2, 4]], 3, 4)


def test_paving4_9_valid():
    m = paving4_9_matroid()
    assert m.rank == 4
    assert len(m.hyperplanes) == 6


def test_ground_set_too_small():
    with pytest.raises(GroundSetTooSmall):
        PavingMatroid.validate([], 3, 3)


def test_unknown_point_in_hyperplane():
    with pytest.raises(UnknownPoint):
        PavingMatroid.validate([[1, 2, 9]], 3, 6)


# -- circuits --------------------------------------------------------------


def test_qs_circuits_are_the_lines():
    assert QS.circuits_n() == ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5))


def test_uniform_circuits():
    u34 = PavingMatroid.uniform(3, 4)
    assert u34.circuits_n() == ()
    assert u34.circuits_n1() == ((1, 2, 3, 4),)
    u23 = PavingMatroid.uniform(2, 3)
    assert u23.circuits_n1() == ((1, 2, 3),)
    assert PavingMatroid.uniform(4, 9).circuits_n() == ()


def test_concurrent_lines_circuits():
    m = builtin_matroid("concurrent3")
    assert len(m.circuits_n()) == 3
    assert (1, 2, 7) in m.circuits_n()


def test_no_n1_circuit_contains_an_n_circuit():
    for name in builtin_matroid_names():
        m = builtin_matroid(name)
        small = {frozenset(c) for c in m.circuits_n()}
        for c in m.circuits_n1():
            assert len(c) == m.rank + 1
            assert not any(s <= frozenset(c) for s in small)


# -- rank and closure ---------------------------------------------------------


def test_qs_rank_closure_against_brute_force():
    assert QS.rank_of({1, 2}) == 2
    assert QS.closure({1, 2}) == frozenset({1, 2, 3})
    assert QS.rank_of({1, 2, 3, 4}) == 3
    assert QS.closure({1, 2, 3, 4}) == frozenset(QS.points)
    assert QS.rank_of(set()) == 0
    assert QS.closure(set()) == frozenset()
    for size in range(0, 5):
        for combo in combinations(QS.points, size):
            assert QS.rank_of(combo) == brute_rank(QS, combo)
            assert QS.closure(combo) == brute_closure(QS, combo)


def test_rank_unknown_point():
    with pytest.raises(UnknownPoint):
        QS.rank_of({1, 99})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_closure_is_a_closure_operator(seed):
    rng = random.Random(seed)
    m = builtin_matroid(rng.choice(list(builtin_matroid_names())))
    subset = frozenset(rng.sample(m.points, rng.randint(0, min(5, m.size))))
    closed = m.closure(subset)
    assert subset <= closed
    assert m.closure(closed) == closed
    bigger = subset | {rng.choice(m.points)}
    assert closed <= m.closure(bigger)
    assert m.rank_of(closed) == m.rank_of(subset)


# -- degrees ---------------------------------------------------------------


def test_degrees():
    m = builtin_matroid("concurrent3")
    assert m.point_degree(7) == 3
    assert all(QS.point_degree(p) == 2 for p in QS.points)
    assert paving4_9_matroid().point_degree(5) == 4
    assert QS.max_degree() == 2


# -- restrictions -------------------------------------------------------------


def test_submatroid_of_all_lines_is_whole_qs():
    sub = QS.restrict(frozenset().union(*QS.hyperplanes))
    assert sub.points == QS.points
    assert sub.hyperplanes == QS.hyperplanes


def test_two_lines_of_concurrent():
    m = builtin_matroid("concurrent3")
    sub = m.restrict({1, 2, 7} | {3, 4, 7})
    assert sub.points == (1, 2, 3, 4, 7)
    assert len(sub.hyperplanes) == 2
    assert m.rank_of(sub.points) == m.rank
    assert sub.name is None


def test_restrict_to_line_is_not_full_rank():
    # A row of grid3x4 has four points, enough for rank 3, but rank 2.
    grid = grid_matroid(3, 4)
    assert grid.rank_of({1, 2, 3, 4}) == 2
    with pytest.raises(NotFullRank):
        grid.restrict({1, 2, 3, 4})


def test_restrict_of_qs_line_is_rejected():
    for line in QS.hyperplanes:
        assert QS.rank_of(line) == 2
        with pytest.raises(MatroidError):
            QS.restrict(line)


def test_full_rank_submatroids_revalidate():
    for name in ("qs", "pascal", "fig2r", "grid3x4", "paving4_9"):
        m = builtin_matroid(name)
        for sub in m.full_rank_submatroids():
            assert isinstance(sub, PavingMatroid)
            assert m.rank_of(sub.points) == m.rank
            again = PavingMatroid.validate(sub.hyperplanes, sub.rank, sub.points)
            assert again.hyperplanes == sub.hyperplanes


def test_hyperplane_equal_to_ground_set_is_not_full_rank():
    with pytest.raises(NotFullRank):
        PavingMatroid.validate([[1, 2, 3, 4]], 3, 4)
    with pytest.raises(NotFullRank):
        PavingMatroid.validate([[1, 2, 3, 4, 5]], 4, 5)


def test_submatroid_dependencies_match_parent():
    m = pascal_matroid()
    sub = m.restrict({1, 2, 7, 4, 5, 8})
    parent_circuits = {c for c in m.circuits_n() if set(c) <= set(sub.points)}
    assert set(sub.circuits_n()) == parent_circuits


# -- liftability count -----------------------------------------------------


def test_liftable_sufficient_counts():
    grid33 = grid_matroid(3, 3)
    assert grid33.size == 9
    assert len(grid33.circuits_n()) == 6
    assert grid33.liftable_sufficient()
    assert not QS.liftable_sufficient()
    assert PavingMatroid.uniform(3, 6).liftable_sufficient()


# -- grids and JSON -------------------------------------------------------


def test_grid_3x4_shape():
    g = grid_matroid(3, 4)
    assert g.size == 12
    assert len(g.hyperplanes) == 7
    sizes = sorted(len(h) for h in g.hyperplanes)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]
    assert len(g.circuits_n()) == 16


def test_grid_4x6_shape():
    g = grid_matroid(4, 6)
    assert g.size == 24
    merged = max(g.hyperplanes, key=len)
    assert len(merged) == 8  # last two columns in one hyperplane


def test_json_round_trip():
    text = QS.to_json()
    again = PavingMatroid.from_json(text)
    assert again.hyperplanes == QS.hyperplanes
    assert again.rank == QS.rank
    assert again.name == "qs"


def test_unknown_builtin():
    with pytest.raises(MatroidError):
        builtin_matroid("nope")

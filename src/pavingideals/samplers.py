"""Seeded exact samplers for the standard example configurations.

Every sampler builds integer vectors from small random seeds — incidences
come out exact by construction (line intersections are cross products,
constrained points are exact combinations) — and then certifies general
position with the full set of exact rank checks.  Failed attempts resample
deterministically, so a (family, seed) pair always produces the same
realization.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Sequence

from .linalg import kernel_basis, matrix_rank
from .matroids import MatroidError, PavingMatroid, builtin_matroid, grid_point
from .realizations import Realization, in_realization_space
from .scalars import Scalar


class UnknownFamily(ValueError):
    pass


class ResamplingExhausted(RuntimeError):
    pass


MAX_ATTEMPTS = 64


def cross(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, Scalar, Scalar]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _nonzero_vector(rng: random.Random, dim: int, bound: int = 9) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v):
            return v


def _nonzero_int(rng: random.Random, bound: int = 9) -> int:
    while True:
        x = rng.randint(-bound, bound)
        if x:
            return x


def _combine(coeffs: Sequence[int], vectors: Sequence[Sequence[Scalar]]) -> tuple[Scalar, ...]:
    dim = len(vectors[0])
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim))


def _integer_kernel_point(rng: random.Random, rows: list[list[int]], dim: int) -> tuple[int, ...] | None:
    basis = kernel_basis(rows, dim)
    if not basis:
        return None
    integral = []
    for vec in basis:
        denoms = [Fraction(c).denominator for c in vec]
        scale = lcm(*denoms) if denoms else 1
        integral.append(tuple(int(c * scale) for c in vec))
    coeffs = [_nonzero_int(rng, 5) for _ in integral]
    point = _combine(coeffs, integral)
    return point if any(point) else None


# -- family constructions (one attempt each) -----------------------------------


def _try_quadrilateral(rng: random.Random, m: PavingMatroid):
    lines = {tag: _nonzero_vector(rng, 3) for tag in "ABCD"}
    pairs = {1: "AD", 2: "AC", 3: "AB", 4: "BC", 5: "BD", 6: "CD"}
    return {p: cross(lines[a], lines[b]) for p, (a, b) in pairs.items()}


def _try_concurrent(rng: random.Random, m: PavingMatroid):
    center = _nonzero_vector(rng, 3)
    dirs = [_nonzero_vector(rng, 3) for _ in range(3)]
    vectors = {7: center}
    for line_index, (p1, p2) in enumerate([(1, 2), (3, 4), (5, 6)]):
        for p in (p1, p2):
            vectors[p] = _combine(
                [_nonzero_int(rng, 5), _nonzero_int(rng, 5)], [center, dirs[line_index]]
            )
    return vectors


def _try_pascal(rng: random.Random, m: PavingMatroid):
    ts = rng.sample(range(-12, 13), 6)
    vectors = {i + 1: (t * t, t, 1) for i, t in enumerate(ts)}
    line = lambda a, b: cross(vectors[a], vectors[b])
    vectors[7] = cross(line(1, 2), line(4, 5))
    vectors[8] = cross(line(2, 3), line(5, 6))
    vectors[9] = cross(line(3, 4), line(6, 1))
    return vectors


def _try_fig2c(rng: random.Random, m: PavingMatroid):
    vectors = {p: _nonzero_vector(rng, 3) for p in (3, 2, 8, 6)}
    combo = lambda a, b: _combine(
        [_nonzero_int(rng, 5), _nonzero_int(rng, 5)], [vectors[a], vectors[b]]
    )
    vectors[7] = combo(8, 6)
    vectors[1] = combo(3, 2)
    line = lambda a, b: cross(vectors[a], vectors[b])
    vectors[4] = cross(line(3, 7), line(8, 1))
    vectors[5] = cross(line(2, 7), line(1, 6))
    return vectors


def _try_fig2r(rng: random.Random, m: PavingMatroid):
    vectors = {p: _nonzero_vector(rng, 3) for p in (7, 5, 1)}
    combo = lambda a, b: _combine(
        [_nonzero_int(rng, 5), _nonzero_int(rng, 5)], [vectors[a], vectors[b]]
    )
    vectors[6] = combo(7, 5)
    vectors[4] = combo(7, 1)
    vectors[3] = combo(1, 6)
    line = lambda a, b: cross(vectors[a], vectors[b])
    vectors[2] = cross(line(1, 5), line(4, 3))
    return vectors


def _try_grid3(rng: random.Random, m: PavingMatroid, k: int):
    rows = [_nonzero_vector(rng, 3) for _ in range(3)]
    cols = [_nonzero_vector(rng, 3) for _ in range(k)]
    return {
        grid_point(i, j, k): cross(rows[i - 1], cols[j - 1])
        for i in range(1, 4)
        for j in range(1, k + 1)
    }


def _try_grid_general(rng: random.Random, m: PavingMatroid, n: int, k: int):
    row_normals = [_nonzero_vector(rng, n) for _ in range(n)]
    col_normals = [_nonzero_vector(rng, n) for _ in range(k - n + 2)]
    merged_normal = _nonzero_vector(rng, n)
    vectors = {}
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            second = col_normals[j - 1] if j <= k - n + 2 else merged_normal
            point = _integer_kernel_point(rng, [list(row_normals[i - 1]), list(second)], n)
            if point is None:
                return None
            vectors[grid_point(i, j, k)] = point
    return vectors


def _try_uniform(rng: random.Random, m: PavingMatroid, n: int, d: int):
    return {p: _nonzero_vector(rng, n) for p in range(1, d + 1)}


_FAMILIES: dict[str, Callable] = {
    "qs": _try_quadrilateral,
    "concurrent3": _try_concurrent,
    "pascal": _try_pascal,
    "fig2c": _try_fig2c,
    "fig2r": _try_fig2r,
}


def sample_family(family: str, seed: int = 0) -> Realization:
    """Deterministic exact realization of a named family.

    Families are the builtin matroid names with a construction: qs,
    concurrent3, pascal, fig2c, fig2r (and their aliases), grid{n}x{k},
    uniform(n,d).  General position is certified exactly; pathological
    seeds resample, and a persistent failure raises ResamplingExhausted.
    """
    try:
        matroid = builtin_matroid(family)
    except MatroidError as exc:
        raise UnknownFamily(f"unknown realization family: {family!r} ({exc})") from exc
    name, n = matroid.name, matroid.rank
    if name in _FAMILIES:
        make = lambda rng: _FAMILIES[name](rng, matroid)
    elif name.startswith("grid"):
        k = matroid.size // n
        if n == 3:
            make = lambda rng: _try_grid3(rng, matroid, k)
        else:
            make = lambda rng: _try_grid_general(rng, matroid, n, k)
    elif name.startswith("uniform"):
        make = lambda rng: _try_uniform(rng, matroid, n, matroid.size)
    else:
        raise UnknownFamily(f"unknown realization family: {family!r}")
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(seed * 100_003 + attempt)
        vectors = make(rng)
        if vectors is None:
            continue
        if in_realization_space(vectors, matroid):
            return Realization(matroid, vectors, seed)
    raise ResamplingExhausted(f"no valid {family} realization after {MAX_ATTEMPTS} tries (seed {seed})")


def sample_collinear_points(
    count: int, seed: int = 0, dim: int = 3
) -> dict[int, tuple[int, ...]]:
    """Distinct nonzero points on one line through the origin's complement.

    Used for rank-(n-1) degenerations: all vectors lie in a 2-dimensional
    subspace of C^dim, pairwise independent.
    """
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(seed * 91_193 + attempt)
        a = _nonzero_vector(rng, dim)
        b = _nonzero_vector(rng, dim)
        vectors = {}
        ok = True
        seen_ratios = set()
        for p in range(1, count + 1):
            c1, c2 = _nonzero_int(rng, 9), _nonzero_int(rng, 9)
            ratio = Fraction(c1, c2)
            if ratio in seen_ratios:
                ok = False
                break
            seen_ratios.add(ratio)
            vectors[p] = _combine([c1, c2], [a, b])
        if not ok:
            continue
        if matrix_rank(list(vectors.values())) != 2:
            continue
        if any(matrix_rank([vectors[p], vectors[q]]) != 2
               for p, q in combinations(vectors, 2)):
            continue
        return vectors
    raise ResamplingExhausted(f"no collinear sample after {MAX_ATTEMPTS} tries (seed {seed})")


def search_realization(
    matroid: PavingMatroid, seed: int = 0, attempts: int = 200
) -> Realization | None:
    """Experimental randomized realization search; no success guarantee.

    Points are placed incrementally: a point on hyperplanes that already
    span dimension rank-1 is drawn from the intersection of those spans,
    otherwise at random; each full placement is certified exactly and bad
    draws retry.  Configurations with points of degree three or more
    usually need genuinely algebraic constructions, for which this search
    simply returns None.
    """
    n = matroid.rank
    order = sorted(matroid.points, key=lambda p: (matroid.point_degree(p), p))
    for attempt in range(attempts):
        rng = random.Random(seed * 77_377 + attempt)
        placed: dict[int, tuple] = {}
        failed = False
        for p in order:
            # A hyperplane whose placed vectors already span dimension n-1
            # pins p into that span; x lies in the span exactly when it is
            # orthogonal to the kernel of the matrix with the known vectors
            # as rows.
            normal_rows: list[list] = []
            for h in matroid.hyperplanes_through(p):
                known = [list(placed[x]) for x in sorted(h) if x in placed]
                if len(known) >= n - 1 and matrix_rank(known) == n - 1:
                    normal_rows.extend(list(v) for v in kernel_basis(known, n))
            if normal_rows:
                point = _integer_kernel_point(rng, normal_rows, n)
                if point is None:
                    failed = True
                    break
                placed[p] = point
            else:
                placed[p] = _nonzero_vector(rng, n)
        if failed:
            continue
        if in_realization_space(placed, matroid):
            return Realization(matroid, placed, seed)
    return None

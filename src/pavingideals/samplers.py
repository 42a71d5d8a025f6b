"""Seeded exact realizations of paving matroids in a constructible order.

One construction serves every matroid.  Its points are placed in an order
in which each new point lies on at most n-1 hyperplanes that already hold
n-1 placed points, so the point is free, on the span of one such
hyperplane, or on the intersection of several.  Incidences come out exact
by construction; general position is certified by the exact n x n
determinants (``in_realization_space``), and failed attempts resample
deterministically, so a (matroid, seed) pair always produces the same
realization.

This is the inductive construction behind the realizability of solvable
configurations (Liwski-Mohammadi).  Pascal's configuration has such an
order: placing the Pascal line first and threading the hexagon through it
puts the hexagon on a conic by Braikenridge-Maclaurin.  Pappus's has none.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Sequence

from .linalg import clear_denominators, kernel_basis
from .matroids import MatroidError, PavingMatroid, builtin_matroid
from .realizations import Realization, in_realization_space
from .scalars import Scalar


class UnknownFamily(ValueError):
    pass


class ResamplingExhausted(RuntimeError):
    pass


MAX_ATTEMPTS = 64


def _nonzero_vector(rng: random.Random, dim: int, bound: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v):
            return v


def _nonzero_int(rng: random.Random, bound: int) -> int:
    while True:
        x = rng.randint(-bound, bound)
        if x:
            return x


def _combine(coeffs: Sequence[int], vectors: Sequence[Sequence[Scalar]]) -> tuple[Scalar, ...]:
    dim = len(vectors[0])
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim))


def _primitive(vec: Sequence[Scalar]) -> tuple[int, ...]:
    """The integer multiple of a nonzero rational vector with coprime entries."""
    (integral,) = clear_denominators([vec])
    divisor = gcd(*integral)
    return tuple(c // divisor for c in integral)


def constructible_order(matroid: PavingMatroid) -> tuple[int, ...] | None:
    """Points in an order where each lies on at most n-1 hyperplanes that
    already hold n-1 earlier points, or None when no such order exists.

    Found by peeling: repeatedly remove a point that lies on at most n-1
    hyperplanes still holding n-1 other remaining points, and place in the
    reverse order.  Removing a point only lowers the other points' counts,
    so peeling gets stuck exactly when no order exists, whichever removable
    point it takes.
    """
    n = matroid.rank
    remaining = set(matroid.points)
    removed: list[int] = []

    def pinning(p: int) -> int:
        # p itself is one of the n remaining points such a hyperplane holds.
        return sum(len(h & remaining) >= n for h in matroid.hyperplanes if p in h)

    while remaining:
        p = next((p for p in sorted(remaining) if pinning(p) <= n - 1), None)
        if p is None:
            return None
        remaining.remove(p)
        removed.append(p)
    return tuple(reversed(removed))


def _place(rng: random.Random, matroid: PavingMatroid, order: Sequence[int], bound: int):
    """One attempt at placing every point along the order; None on a
    degenerate draw.

    A point on no pinning hyperplane (one already holding n-1 placed
    points) is drawn at random with entries in [-bound, bound]; on one, it
    is a random combination of that hyperplane's placed points, all of
    them, because a few small coefficients on n-1 of them often land in a
    smaller flat; on several, it is a random point of the kernel of their
    normals.  Every vector is divided by the gcd of its entries, which
    keeps the heights of nested intersections down.
    """
    n = matroid.rank
    placed: dict[int, tuple[int, ...]] = {}
    for p in order:
        spans = [
            [placed[x] for x in sorted(h) if x in placed] for h in matroid.hyperplanes_through(p)
        ]
        spans = [span for span in spans if len(span) >= n - 1]
        if not spans:
            point = _nonzero_vector(rng, n, bound)
        elif len(spans) == 1:
            point = _combine([_nonzero_int(rng, 5) for _ in spans[0]], spans[0])
        else:
            normals = [kernel_basis(span, n) for span in spans]
            if any(len(normal) != 1 for normal in normals):
                return None
            basis = kernel_basis([_primitive(v) for v, in normals], n)
            point = _combine([_nonzero_int(rng, 5) for _ in basis], [_primitive(v) for v in basis])
        if not any(point):
            return None
        placed[p] = _primitive(point)
    return placed


def sample_realization(matroid: PavingMatroid, seed: int = 0) -> Realization:
    """Deterministic exact realization of a paving matroid.

    Points are placed in ``constructible_order`` and general position is
    certified exactly; pathological seeds resample, and a matroid with no
    constructible order or a persistent failure raises ResamplingExhausted.
    The free-point entries are drawn from [-9, 9], a range that doubles
    every 16 attempts, so that many points still find distinct directions.
    """
    label = matroid.name or f"rank-{matroid.rank} matroid on {matroid.size} points"
    order = constructible_order(matroid)
    if order is None:
        raise ResamplingExhausted(
            f"{label} has no constructible order: some set of its points each lie on more "
            f"than {matroid.rank - 1} hyperplanes holding {matroid.rank - 1} others of the set"
        )
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(seed * 100_003 + attempt)
        vectors = _place(rng, matroid, order, 9 << (attempt // 16))
        if vectors is not None and in_realization_space(vectors, matroid):
            return Realization(matroid, vectors, seed)
    raise ResamplingExhausted(f"no valid {label} realization after {MAX_ATTEMPTS} tries (seed {seed})")


def sample_family(family: str, seed: int = 0) -> Realization:
    """Deterministic exact realization of a builtin matroid, by name.

    Any builtin name or alias is accepted: qs, concurrent3, pascal, fig2c,
    fig2r, paving4_9, grid{n}x{k}, uniform(n,d).
    """
    try:
        matroid = builtin_matroid(family)
    except MatroidError as exc:
        raise UnknownFamily(f"unknown realization family: {family!r} ({exc})") from exc
    return sample_realization(matroid, seed)

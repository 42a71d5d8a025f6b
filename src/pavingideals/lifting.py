"""Projection to hyperplanes and non-degenerate lifting.

Projecting a configuration from a center q onto a hyperplane H sends each
vector along its line through q into H.  The reverse direction is governed
by the kernel of the evaluated liftability matrix: a kernel vector z turns
the flattened configuration gamma into gamma_p + z_p * q, which satisfies
every circuit dependency; the lifts staying inside one hyperplane form an
(n-1)-dimensional kernel subspace spanned by the coordinates of the
configuration in any basis of its span.  A non-degenerate lift therefore
exists exactly when the kernel is larger, and any kernel vector outside the
degenerate subspace produces one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .generators import liftability_matrix_at
from .linalg import clear_denominators, kernel_basis, matrix_rank, solve_particular
from .matroids import PavingMatroid
from .realizations import Realization
from .scalars import Scalar, normalize_scalar


class CenterOnHyperplane(ValueError):
    pass


class PointThroughCenter(ValueError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"point {point} is proportional to the projection center")


class RankDefect(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane through the origin, as a nonzero normal covector."""

    normal: tuple[Scalar, ...]

    def __post_init__(self):
        if not any(c != 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def pairing(self, vector: Sequence[Scalar]) -> Scalar:
        return normalize_scalar(sum(a * b for a, b in zip(self.normal, vector)))


def project(realization: Realization, hyperplane: Hyperplane, center: Sequence[Scalar]) -> Realization:
    """Project every vector from the center onto the hyperplane.

    Vectors already on the hyperplane stay fixed.  The center must be off
    the hyperplane, and no point may sit on the line through the center.
    """
    nq = hyperplane.pairing(center)
    if nq == 0:
        raise CenterOnHyperplane("projection center lies on the target hyperplane")
    projected = {}
    for p, vec in realization.vectors.items():
        np_ = hyperplane.pairing(vec)
        t = Fraction(np_, nq)
        image = tuple(normalize_scalar(v - t * c) for v, c in zip(vec, center))
        if not any(image):
            raise PointThroughCenter(p)
        projected[p] = image
    return Realization(realization.matroid, projected, realization.seed)


def degenerate_lift_subspace(
    vectors: Mapping[int, Sequence[Scalar]], points: Sequence[int], dim: int
) -> list[tuple[Scalar, ...]]:
    """Basis of the kernel vectors whose lifts stay inside one hyperplane.

    Pick a maximal independent subset of the flattened vectors; writing
    every vector in that basis, the coordinate rows are exactly the
    degenerate kernel directions.
    """
    basis_points: list[int] = []
    for p in points:
        if matrix_rank([vectors[q] for q in basis_points + [p]]) > len(basis_points):
            basis_points.append(p)
        if len(basis_points) == dim - 1:
            break
    coords: dict[int, list[Scalar]] = {}
    columns = [[vectors[b][i] for b in basis_points] for i in range(dim)]
    for p in points:
        sol = solve_particular(columns, list(vectors[p]))
        if sol is None:
            raise RankDefect(f"point {p} is outside the span of the configuration")
        coords[p] = sol
    return [tuple(coords[p][i] for p in points) for i in range(len(basis_points))]


def lift(
    flat: Realization,
    center: Sequence[Scalar],
    matroid: PavingMatroid | None = None,
    scale: Scalar = 1,
) -> Realization | None:
    """Non-degenerate lift of a rank-(n-1) configuration from the center.

    Returns a full-rank member of the circuit variety when the evaluated
    liftability matrix has kernel dimension at least n, and None when only
    degenerate (single-hyperplane) lifts exist.  ``scale`` shrinks the
    kernel direction, so lifts can be made arbitrarily close to the input.

    The checks and eliminations run on integers: the vectors are scaled
    once by the lcm of all their denominators (lambda), and the center by
    the lcm of its own (mu).  A uniform scale changes no rank, no kernel and
    no coordinates in a basis, and it multiplies every liftability entry by
    lambda^(n-1) mu, so the kernel is the one of the original matrix.  The
    lift itself is built from the original vectors and center.
    """
    matroid = matroid or flat.matroid
    points = list(matroid.points)
    dim = len(center)
    if matroid.rank not in (dim, dim - 1):
        raise ValueError(
            f"rank-{matroid.rank} matroid cannot be lifted in ambient dimension {dim}"
        )
    vectors = dict(zip(points, clear_denominators(flat.vectors[p] for p in points)))
    (q,) = clear_denominators([center])
    span_rank = matrix_rank(vectors.values())
    if span_rank != dim - 1:
        raise RankDefect(f"configuration spans rank {span_rank}, expected {dim - 1}")
    if matrix_rank([*vectors.values(), q]) != dim:
        raise CenterOnHyperplane("center lies in the span of the configuration")

    evaluated = liftability_matrix_at(matroid, vectors, q)
    kernel = kernel_basis(evaluated, len(points))
    degenerate = degenerate_lift_subspace(vectors, points, dim)
    if len(kernel) <= len(degenerate):
        return None
    # Each row cleared of its own denominators: a row's scale changes no rank.
    degenerate = [clear_denominators([row])[0] for row in degenerate]
    base_rank = matrix_rank(degenerate)
    chosen = next(
        (z for z in kernel if matrix_rank(degenerate + clear_denominators([z])) > base_rank), None
    )
    if chosen is None:
        return None
    scale = normalize_scalar(scale)
    lifted = {}
    for idx, p in enumerate(points):
        shift = scale * chosen[idx]
        lifted[p] = tuple(
            normalize_scalar(v + shift * c) for v, c in zip(flat.vectors[p], center)
        )
    return Realization(matroid, lifted, flat.seed)


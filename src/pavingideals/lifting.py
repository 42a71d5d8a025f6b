"""Projection to hyperplanes and non-degenerate lifting.

Projecting a configuration from a center q onto a hyperplane H sends each
vector along its line through q into H.  The reverse direction is governed
by the kernel of the evaluated liftability matrix: a kernel vector z turns
the flattened configuration gamma into gamma_p + z_p * q, which satisfies
every circuit dependency.  The lifts staying inside one hyperplane are the
z_p = l(gamma_p) for linear functionals l: an (n-1)-dimensional kernel
subspace spanned by the rows of the configuration's coordinate matrix.  A
non-degenerate lift therefore exists exactly when the kernel is larger, and
any kernel vector outside the degenerate subspace produces one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .generators import liftability_matrix_at
from .linalg import clear_denominators, kernel_vectors, matrix_rank
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
    """Rows spanning the kernel vectors whose lifts stay inside one hyperplane.

    Such a lift has z_p = l(gamma_p) for a linear functional l, so these
    kernel vectors are the row space of the dim x |P| matrix whose columns
    are the vectors.  Its ``dim`` rows are returned as they are; their rank
    is the rank of the configuration.
    """
    return [tuple(vectors[p][i] for p in points) for i in range(dim)]


def lift(
    flat: Realization,
    center: Sequence[Scalar],
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
    no row space of the coordinates, and it multiplies every liftability
    entry by lambda^(n-1) mu, so the kernel is the one of the original
    matrix.  The lift itself is built from the original vectors and center.
    """
    matroid = flat.matroid
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
    size, kernel = kernel_vectors(evaluated, len(points))
    if size <= span_rank:
        return None
    degenerate = degenerate_lift_subspace(vectors, points, dim)
    chosen = next(
        (z for z in kernel if matrix_rank(degenerate + clear_denominators([z])) > span_rank), None
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


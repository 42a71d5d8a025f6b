#!/usr/bin/env python3
"""Project a sampled realization to a random hyperplane and lift it back.

Demonstrates the kernel criterion: the flattened configuration's evaluated
liftability matrix has kernel dimension >= n and lifts to a full-rank member
of the circuit variety, while generic collinear points have a full-rank
matrix and refuse to lift.

Usage: python3 scripts/lifting_roundtrip.py [--family qs] [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys

from pavingideals.generators import liftability_matrix_at
from pavingideals.lifting import Hyperplane, lift, project
from pavingideals.linalg import kernel_basis, matrix_rank
from pavingideals.matroids import PavingMatroid, builtin_matroid
from pavingideals.realizations import in_circuit_variety
from pavingideals.samplers import sample_family, sample_realization


def random_setup(rng: random.Random, dim: int = 3):
    while True:
        normal = tuple(rng.randint(-7, 7) for _ in range(dim))
        center = tuple(rng.randint(-7, 7) for _ in range(dim))
        if any(normal) and sum(a * b for a, b in zip(normal, center)) != 0:
            return Hyperplane(normal), center


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="qs")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    realization = sample_family(args.family, args.seed)
    matroid = realization.matroid
    n = matroid.rank
    hyperplane, center = random_setup(rng, n)
    flat = project(realization, hyperplane, center)
    evaluated = liftability_matrix_at(matroid, flat.vectors, center)
    kernel_dim = len(kernel_basis(evaluated, matroid.size))
    print(f"family {args.family}: projected from center {center} "
          f"onto normal {hyperplane.normal}")
    print(f"  flattened rank: {matrix_rank(list(flat.vectors.values()))}")
    print(f"  evaluated liftability matrix: {len(evaluated)}x{matroid.size}, "
          f"kernel dimension {kernel_dim} (need >= {n})")
    lifted = lift(flat, center)
    assert lifted is not None
    print(f"  lift: rank {matrix_rank(list(lifted.vectors.values()))}, "
          f"in circuit variety: {in_circuit_variety(lifted.vectors, matroid)}")

    if args.family in ("qs", "quadrilateral"):
        line = sample_realization(PavingMatroid.uniform(2, 6), args.seed + 1)
        vectors = {p: (*v, 0) for p, v in line.vectors.items()}
        center = (0, 0, 0)
        while center[2] == 0:  # off the plane z = 0 of the points
            _, center = random_setup(rng, 3)
        evaluated = liftability_matrix_at(matroid, vectors, center)
        print(f"generic collinear six points: kernel dimension "
              f"{len(kernel_basis(evaluated, matroid.size))} (degenerate lifts only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

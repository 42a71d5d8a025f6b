"""Exact rational realizations of paving matroids.

A realization assigns an exact vector of length n to every point.  Two
membership tests matter: the circuit variety (every hyperplane's vectors
span at most n-1 dimensions) and the realization space itself (dependencies
are exactly the matroid's: hyperplane subsets degenerate, everything else
in general position).  Both are decided by exact rank computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .linalg import matrix_rank
from .matroids import MatroidError, PavingMatroid, builtin_matroid
from .scalars import Scalar, as_scalar, format_rational, parse_integer
from .variables import Variable, entry_var


class IndexMismatch(ValueError):
    """Vectors that do not match the matroid's points or rank."""


class RealizationSchemaError(ValueError):
    """A realization JSON document does not have the expected shape."""


@dataclass(frozen=True)
class Realization:
    """Exact vectors indexed by the matroid's points."""

    matroid: PavingMatroid
    vectors: Mapping[int, tuple[Scalar, ...]]
    seed: int | None = None

    def __post_init__(self):
        if set(self.vectors) != set(self.matroid.points):
            raise IndexMismatch("vectors must be indexed by exactly the matroid's points")

    @property
    def dim(self) -> int:
        first = next(iter(self.vectors.values()))
        return len(first)

    def assignment(self) -> dict[Variable, Scalar]:
        """Matrix-entry variable values of this realization."""
        out = {}
        for p, vec in self.vectors.items():
            for r, value in enumerate(vec, start=1):
                out[entry_var(r, p)] = value
        return out

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The matroid is written by name only when the name resolves to
        this very matroid; any other matroid is embedded in full."""
        matroid_field: object = self.matroid.to_json_dict()
        if self.matroid.name:
            try:
                if builtin_matroid(self.matroid.name) == self.matroid:
                    matroid_field = self.matroid.name
            except MatroidError:
                pass
        out = {
            "matroid": matroid_field,
            "points": {
                str(p): [format_rational(c) for c in vec]
                for p, vec in sorted(self.vectors.items())
            },
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "Realization":
        """Read ``{"matroid", "points": {id: [rationals]}, "seed"?}``."""
        if not isinstance(data, dict):
            raise RealizationSchemaError("a realization must be a JSON object")
        missing = [key for key in ("matroid", "points") if key not in data]
        if missing:
            raise RealizationSchemaError(f"realization JSON lacks {', '.join(missing)}")
        if not isinstance(data["points"], dict):
            raise RealizationSchemaError("points must map point ids to coordinate lists")
        for p, vec in data["points"].items():
            if not isinstance(vec, list):
                raise RealizationSchemaError(f"point {p} must be a list of coordinates, got {vec!r}")
        matroid_field = data["matroid"]
        if isinstance(matroid_field, str):
            matroid = builtin_matroid(matroid_field)
        else:
            matroid = PavingMatroid.from_json_dict(matroid_field)
        vectors = {
            parse_integer(p): tuple(as_scalar(c) for c in vec) for p, vec in data["points"].items()
        }
        for p, vec in sorted(vectors.items()):
            if len(vec) != matroid.rank:
                raise IndexMismatch(
                    f"point {p} has {len(vec)} coordinates, the matroid has rank {matroid.rank}"
                )
        return Realization(matroid, vectors, data.get("seed"))

    @staticmethod
    def from_json(text: str) -> "Realization":
        return Realization.from_json_dict(json.loads(text))


def _check_indexing(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid):
    if set(vectors) != set(matroid.points):
        raise IndexMismatch("vectors are not indexed by the matroid's points")


def in_circuit_variety(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid) -> bool:
    """True when every hyperplane's vectors have rank at most n-1."""
    _check_indexing(vectors, matroid)
    n = matroid.rank
    for h in matroid.hyperplanes:
        if matrix_rank([vectors[p] for p in sorted(h)]) > n - 1:
            return False
    return True


def in_realization_space(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid) -> bool:
    """True when the vectors realize exactly the matroid's dependencies.

    Checks every (n-1)-subset is independent and every n-subset has rank
    n-1 or n according to whether it is a circuit; larger subsets follow.
    """
    _check_indexing(vectors, matroid)
    n = matroid.rank
    points = matroid.points
    for combo in combinations(points, n - 1):
        if matrix_rank([vectors[p] for p in combo]) != n - 1:
            return False
    circuits = set(matroid.circuits_n())
    for combo in combinations(points, n):
        expected = n - 1 if combo in circuits else n
        if matrix_rank([vectors[p] for p in combo]) != expected:
            return False
    return True

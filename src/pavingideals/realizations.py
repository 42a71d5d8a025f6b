"""Exact rational realizations of paving matroids.

A realization assigns an exact vector of length n to every point.  Two
membership tests matter: the circuit variety (every hyperplane's vectors
span at most n-1 dimensions), decided by exact rank, and the realization
space itself (dependencies are exactly the matroid's: hyperplane subsets
degenerate, everything else in general position), decided by the zero
pattern of the exact n x n determinants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .linalg import bareiss_determinant, matrix_rank
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
        return _indented_json(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "Realization":
        """Read ``{"matroid", "points": {id: [rationals]}, "seed"?}``.

        Ids are read as integers, so two keys naming one point ("1" and
        "01") are rejected; the seed is an integer, null or absent."""
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
        seed = data.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise RealizationSchemaError(f"seed must be an integer or null, got {seed!r}")
        vectors = {}
        for p, vec in data["points"].items():
            point = parse_integer(p)
            if point in vectors:
                raise RealizationSchemaError(f"point {point} is given twice")
            vectors[point] = tuple(as_scalar(c) for c in vec)
        _check_lengths(vectors, matroid.rank)
        return Realization(matroid, vectors, seed)

    @staticmethod
    def from_json(text: str) -> "Realization":
        return Realization.from_json_dict(json.loads(text))


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed dicts,
    lists and scalars.  That call runs the pure-Python encoder, whose
    closures leave reference cycles behind on every call; this one leaves
    none."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(key)}: {_indented_json(v, inner)}" for key, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join(inner + _indented_json(v, inner) for v in value) + f"\n{indent}]"
    return json.dumps(value)


def _check_indexing(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid):
    if set(vectors) != set(matroid.points):
        raise IndexMismatch("vectors are not indexed by the matroid's points")


def _check_lengths(vectors: Mapping[int, Sequence[Scalar]], rank: int):
    for p, vec in sorted(vectors.items()):
        if len(vec) != rank:
            raise IndexMismatch(f"point {p} has {len(vec)} coordinates, the matroid has rank {rank}")


def in_circuit_variety(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid) -> bool:
    """True when every hyperplane's vectors have rank at most n-1."""
    _check_indexing(vectors, matroid)
    n = matroid.rank
    for h in matroid.hyperplanes:
        if matrix_rank([vectors[p] for p in sorted(h)]) > n - 1:
            return False
    return True


def in_realization_space(vectors: Mapping[int, Sequence[Scalar]], matroid: PavingMatroid) -> bool:
    """True when the vectors realize exactly the matroid's dependencies:
    an n-subset's determinant is zero exactly when it is a circuit.

    That is the whole test.  Every (n-1)-set must be independent too, but in
    a paving matroid it lies in at most one hyperplane, which is not the
    whole ground set, so a point off that hyperplane extends it to a basis,
    whose determinant is checked to be nonzero.  Larger sets follow.
    Vectors of a length other than n raise IndexMismatch.
    """
    _check_indexing(vectors, matroid)
    n = matroid.rank
    _check_lengths(vectors, n)
    circuits = set(matroid.circuits_n())
    return all(
        (bareiss_determinant(map(vectors.__getitem__, combo)) == 0) == (combo in circuits)
        for combo in combinations(matroid.points, n)
    )

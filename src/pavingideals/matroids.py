"""Paving matroids presented by their hyperplanes.

A rank-n paving matroid is determined by its size-n circuits, which are
exactly the n-subsets of its hyperplanes: point sets of size at least n in
which every n-subset is dependent.  A family of such sets is the hyperplane
family of a paving matroid precisely when any two members share at most n-2
points, which makes validation a cheap pairwise check.

Hyperplanes, not circuits, are the input format everywhere (JSON, CLI,
builders); circuits, ranks and closures are derived.  Ground sets are sets
of positive integer ids; top-level matroids use 1..d, restrictions keep the
parent's ids so that derived polynomials stay in the parent's variables.
Every matroid has full rank: a hyperplane equal to the ground set is
rejected, and it is the only way a hyperplane family could fall below rank n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator


class MatroidError(ValueError):
    pass


class MatroidSchemaError(ValueError):
    """A matroid JSON document does not have the expected shape."""


class IntersectionTooLarge(MatroidError):
    def __init__(self, l1: frozenset, l2: frozenset, bound: int):
        self.pair = (tuple(sorted(l1)), tuple(sorted(l2)))
        super().__init__(
            f"hyperplanes {self.pair[0]} and {self.pair[1]} share more than {bound} points"
        )


class HyperplaneTooSmall(MatroidError):
    def __init__(self, hyperplane: frozenset, rank: int):
        super().__init__(
            f"hyperplane {tuple(sorted(hyperplane))} has fewer than {rank} points"
        )


class GroundSetTooSmall(MatroidError):
    pass


class UnknownPoint(MatroidError):
    pass


class NotFullRank(MatroidError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_point_list(value) -> bool:
    """A JSON list of integer point ids."""
    return isinstance(value, list) and all(map(_is_int, value))


@dataclass(frozen=True)
class PavingMatroid:
    """Validated paving matroid; immutable."""

    rank: int
    points: tuple[int, ...]
    hyperplanes: tuple[frozenset[int], ...]
    name: str | None = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def validate(
        hyperplanes: Iterable[Iterable[int]],
        rank: int,
        ground_set: int | Iterable[int],
        name: str | None = None,
    ) -> "PavingMatroid":
        if rank < 2:
            raise MatroidError(f"rank must be at least 2, got {rank}")
        if isinstance(ground_set, int):
            points = tuple(range(1, ground_set + 1))
        else:
            points = tuple(sorted(set(ground_set)))
        if len(points) < rank + 1:
            raise GroundSetTooSmall(
                f"need at least {rank + 1} points for rank {rank}, got {len(points)}"
            )
        point_set = set(points)
        hps = []
        for raw in hyperplanes:
            hp = frozenset(raw)
            if not hp <= point_set:
                raise UnknownPoint(f"hyperplane {tuple(sorted(hp))} leaves the ground set")
            if len(hp) < rank:
                raise HyperplaneTooSmall(hp, rank)
            if len(hp) == len(points):
                raise NotFullRank(
                    f"hyperplane {tuple(sorted(hp))} is the whole ground set, so the rank is below {rank}"
                )
            hps.append(hp)
        hps.sort(key=lambda h: tuple(sorted(h)))
        for h1, h2 in combinations(hps, 2):
            if len(h1 & h2) > rank - 2:
                raise IntersectionTooLarge(h1, h2, rank - 2)
        return PavingMatroid(rank, points, tuple(hps), name)

    @staticmethod
    def uniform(rank: int, ground_set: int, name: str | None = None) -> "PavingMatroid":
        """Rank-n matroid with no dependent n-subsets (empty hyperplane list)."""
        return PavingMatroid.validate([], rank, ground_set, name or f"uniform({rank},{ground_set})")

    # -- basic queries ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.points)

    def _check_points(self, subset: Iterable[int]) -> frozenset[int]:
        s = frozenset(subset)
        if not s <= set(self.points):
            raise UnknownPoint(f"{tuple(sorted(s - set(self.points)))} not in ground set")
        return s

    def hyperplanes_through(self, point: int) -> tuple[frozenset[int], ...]:
        self._check_points([point])
        return tuple(h for h in self.hyperplanes if point in h)

    def point_degree(self, point: int) -> int:
        return len(self.hyperplanes_through(point))

    def max_degree(self) -> int:
        return max((self.point_degree(p) for p in self.points), default=0)

    # -- circuits -----------------------------------------------------------

    def circuits_n(self) -> tuple[tuple[int, ...], ...]:
        """All size-n circuits: the n-subsets of hyperplanes, sorted."""
        return _circuits_n(self)

    def circuits_n1(self) -> tuple[tuple[int, ...], ...]:
        """Size-(n+1) circuits: (n+1)-subsets containing no size-n circuit."""
        return _circuits_n1(self)

    def circuits_of_size(self, size: int) -> tuple[tuple[int, ...], ...]:
        if size == self.rank:
            return self.circuits_n()
        if size == self.rank + 1:
            return self.circuits_n1()
        return ()

    # -- rank and closure ------------------------------------------------

    def containing_hyperplane(self, subset: Iterable[int]) -> frozenset[int] | None:
        s = self._check_points(subset)
        for h in self.hyperplanes:
            if s <= h:
                return h
        return None

    def rank_of(self, subset: Iterable[int]) -> int:
        s = self._check_points(subset)
        if len(s) < self.rank:
            return len(s)
        if self.containing_hyperplane(s) is not None:
            return self.rank - 1
        return self.rank

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        s = self._check_points(subset)
        r = self.rank_of(s)
        if r <= self.rank - 2:
            return s
        if r == self.rank - 1:
            h = self.containing_hyperplane(s)
            return h if h is not None else s
        return frozenset(self.points)

    def closed_sets(self, max_size: int | None = None) -> Iterator[frozenset[int]]:
        """All closed proper subsets, by size then lexicographically."""
        limit = len(self.points) if max_size is None else max_size
        for size in range(0, min(limit, len(self.points) - 1) + 1):
            for combo in combinations(self.points, size):
                s = frozenset(combo)
                if self.closure(s) == s and len(s) < len(self.points):
                    yield s

    # -- restrictions ----------------------------------------------------------

    def restrict(self, subset: Iterable[int]) -> "PavingMatroid":
        """The restriction to ``subset``, on the same point ids and unnamed.

        Its hyperplanes are the parent's cut down to the subset, kept while
        they hold at least n points; a subset of rank below n is rejected.
        """
        s = self._check_points(subset)
        return PavingMatroid.validate(
            [h & s for h in self.hyperplanes if len(h & s) >= self.rank], self.rank, s
        )

    def full_rank_submatroids(self) -> Iterator["PavingMatroid"]:
        """Restrictions to unions of >= 2 hyperplanes, and the whole matroid,
        deduplicated by point set: where liftability minors live.

        Each has full rank: a union of two distinct hyperplanes would lie in
        a third only if it shared n points with each of them.
        """
        seen: set[frozenset[int]] = set()
        for count in range(2, len(self.hyperplanes) + 1):
            for chosen in combinations(self.hyperplanes, count):
                points = frozenset().union(*chosen)
                if points not in seen:
                    seen.add(points)
                    yield self.restrict(points)
        whole = frozenset(self.points)
        if whole not in seen:
            yield self.restrict(whole)

    # -- liftability count --------------------------------------------------

    def liftable_sufficient(self) -> bool:
        """True certifies liftability: enough points relative to the
        n-circuit count.  False is inconclusive."""
        return self.size >= len(self.circuits_n()) + self.rank

    # -- JSON interchange -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "ground_set": self.size,
            "hyperplanes": [sorted(h) for h in self.hyperplanes],
        }
        if self.name:
            out["name"] = self.name
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "PavingMatroid":
        if not isinstance(data, dict):
            raise MatroidSchemaError("a matroid must be a JSON object")
        missing = [key for key in ("rank", "ground_set", "hyperplanes") if key not in data]
        if missing:
            raise MatroidSchemaError(f"matroid JSON lacks {', '.join(missing)}")
        for key in ("rank", "ground_set"):
            if not _is_int(data[key]):
                raise MatroidSchemaError(f"{key} must be an integer, got {data[key]!r}")
        hps = data["hyperplanes"]
        if not isinstance(hps, list) or not all(map(is_point_list, hps)):
            raise MatroidSchemaError("hyperplanes must be lists of integer point ids")
        if not isinstance(data.get("name"), (str, type(None))):
            raise MatroidSchemaError("name must be a string")
        return PavingMatroid.validate(
            data["hyperplanes"],
            data["rank"],
            data["ground_set"],
            data.get("name"),
        )

    @staticmethod
    def from_json(text: str) -> "PavingMatroid":
        return PavingMatroid.from_json_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@lru_cache(maxsize=256)
def _circuits_n_cached(rank: int, hyperplanes: tuple[frozenset[int], ...]):
    out = set()
    for h in hyperplanes:
        out.update(combinations(sorted(h), rank))
    return tuple(sorted(out))


def _circuits_n(m: PavingMatroid):
    return _circuits_n_cached(m.rank, m.hyperplanes)


def _circuits_n1(m: PavingMatroid):
    small = set(m.circuits_n())
    out = []
    for combo in combinations(m.points, m.rank + 1):
        if not any(sub in small for sub in combinations(combo, m.rank)):
            out.append(combo)
    return tuple(out)


# -- standard configurations -------------------------------------------------


def quadrilateral_matroid() -> PavingMatroid:
    """Six points on four lines, every point on two of them."""
    return PavingMatroid.validate(
        [[1, 2, 3], [3, 4, 5], [2, 4, 6], [1, 5, 6]], 3, 6, name="qs"
    )


def concurrent_lines_matroid() -> PavingMatroid:
    """Three lines through a common point, two free points on each."""
    return PavingMatroid.validate(
        [[1, 2, 7], [3, 4, 7], [5, 6, 7]], 3, 7, name="concurrent3"
    )


def pascal_matroid() -> PavingMatroid:
    """Hexagon 1..6 on a conic; opposite sides meet in 7, 8, 9, collinear."""
    return PavingMatroid.validate(
        [[1, 2, 7], [4, 5, 7], [2, 3, 8], [5, 6, 8], [3, 4, 9], [1, 6, 9], [7, 8, 9]],
        3,
        9,
        name="pascal",
    )


def fig2_center_matroid() -> PavingMatroid:
    """Eight points, six lines; one point of degree three."""
    return PavingMatroid.validate(
        [[1, 2, 3], [2, 5, 7], [3, 4, 7], [1, 4, 8], [1, 5, 6], [6, 7, 8]],
        3,
        8,
        name="fig2c",
    )


def fig2_right_matroid() -> PavingMatroid:
    """Seven points, five lines; one point of degree three."""
    return PavingMatroid.validate(
        [[1, 4, 7], [1, 2, 5], [1, 3, 6], [2, 3, 4], [5, 6, 7]], 3, 7, name="fig2r"
    )


def paving4_9_matroid() -> PavingMatroid:
    """Nine points, rank four, six planes; one point of degree four."""
    return PavingMatroid.validate(
        [
            [1, 2, 3, 4],
            [2, 5, 6, 7],
            [3, 5, 8, 9],
            [4, 5, 6, 8],
            [5, 1, 7, 9],
            [6, 7, 8, 9],
        ],
        4,
        9,
        name="paving4_9",
    )


def grid_point(row: int, col: int, n_cols: int) -> int:
    """Row-major 1-based point id of a grid cell."""
    return (row - 1) * n_cols + col


def grid_matroid(n: int, k: int) -> PavingMatroid:
    """Rank-n matroid of an n-by-k grid of points.

    Hyperplanes: the n rows, the first k-n+2 columns, and one hyperplane
    holding all points of the last n-2 columns.  For n = 3 this is just all
    rows and all columns.  Requires k >= n for ranks above 3.
    """
    if n < 3:
        raise MatroidError("grid matroids need rank at least 3")
    if k < 3 if n == 3 else k < 2 * n - 2:
        raise MatroidError(f"grid {n}x{k} is too narrow for rank {n}")
    hps: list[list[int]] = []
    for i in range(1, n + 1):
        hps.append([grid_point(i, j, k) for j in range(1, k + 1)])
    for j in range(1, k - n + 3):
        hps.append([grid_point(i, j, k) for i in range(1, n + 1)])
    if n > 3:
        last = [
            grid_point(i, j, k)
            for i in range(1, n + 1)
            for j in range(k - n + 3, k + 1)
        ]
        hps.append(last)
    elif k >= 3:
        hps.append([grid_point(i, k, k) for i in range(1, n + 1)])
    return PavingMatroid.validate(hps, n, n * k, name=f"grid{n}x{k}")


_BUILTIN_FACTORIES = {
    "qs": quadrilateral_matroid,
    "quadrilateral": quadrilateral_matroid,
    "concurrent3": concurrent_lines_matroid,
    "concurrent_lines": concurrent_lines_matroid,
    "pascal": pascal_matroid,
    "fig2c": fig2_center_matroid,
    "fig2_center": fig2_center_matroid,
    "fig2r": fig2_right_matroid,
    "fig2_right": fig2_right_matroid,
    "paving4_9": paving4_9_matroid,
}


def builtin_matroid(name: str) -> PavingMatroid:
    """Look up a named configuration; grid{n}x{k} and uniform(n,d) parse too."""
    key = name.strip().lower()
    if key in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[key]()
    import re

    m = re.fullmatch(r"grid(\d+)x(\d+)", key)
    if m:
        return grid_matroid(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"uniform\((\d+),(\d+)\)", key)
    if m:
        return PavingMatroid.uniform(int(m.group(1)), int(m.group(2)))
    raise MatroidError(f"unknown matroid name: {name!r}")


def builtin_matroid_names() -> tuple[str, ...]:
    return ("qs", "concurrent3", "pascal", "fig2c", "fig2r", "paving4_9", "grid3x4", "grid3x3")

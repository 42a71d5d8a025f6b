"""Generators of matroid ideals: circuit, lifting and graph polynomials.

All three families come from one signed-bracket matrix (``bracket_matrix``):
one row per circuit paired with an auxiliary vector q, one column per point,
and at the circuit's i-th point the bracket of the other circuit points
followed by q, with sign (-1)^i.  Coordinate, numeric and bracket-level
forms are all read off that matrix.

Circuit polynomials are its single brackets: the maximal minors of the
generic coordinate matrix on the columns of a size-n circuit.  Lifting
polynomials are the (|N|-n+1)-minors of the liftability matrix of a
full-rank restriction N, the bracket matrix on its size-n circuits.  A
``LiftingMinors`` record is that matrix, named by N, its circuits and q:
it evaluates the matrix at exact vectors from integer bracket
determinants and expands its minors on demand.  Graph polynomials thread
circuits through points outside the closure of an anchor set J: the
determinant of their circuit/point bracket matrix, entrywise expanded into
coordinates or kept in brackets.

Sign conventions: circuit elements are always listed ascending by point id
when forming brackets, so every emitted polynomial is canonical; agreement
with hand-written displays is up to one overall sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations, product
from math import factorial
from typing import Iterable, Mapping, NamedTuple, Sequence

from .brackets import (
    BracketKey, BracketPolynomial, Label, bracket_value, expander, integer_columns, symbolic_column,
)
from .matroids import PavingMatroid, builtin_matroid, grid_point, is_point_list
from .poly import ExponentPacking, PointResidual, Polynomial
from .polymatrix import MinorEngine, Packed
from .scalars import Scalar, as_scalar, format_rational
from .variables import entry_var, is_extra_id

BracketRows = list[list[BracketPolynomial]]

# Graph polynomials are written in coordinates while the expansion estimate
# factorial(rank)**k stays at or below this bound, in bracket form above it.
EXPAND_LIMIT = 5000


class HypothesisViolation(ValueError):
    """The data fails a structural requirement of the construction."""


class GraphDataSchemaError(ValueError):
    """A graph-data JSON document does not have the expected shape."""


# -- auxiliary vectors -------------------------------------------------------


@dataclass(frozen=True)
class ExtraVector:
    """Auxiliary vector appended inside brackets: symbolic or concrete."""

    name: str | None = None
    coords: tuple[Scalar, ...] | None = None

    def __post_init__(self):
        if (self.name is None) == (self.coords is None):
            raise ValueError("an extra vector is either symbolic or concrete")

    @staticmethod
    def symbolic(name: str) -> "ExtraVector":
        return ExtraVector(name=name)

    @staticmethod
    def concrete(coords: Sequence[Scalar]) -> "ExtraVector":
        return ExtraVector(coords=tuple(as_scalar(c) for c in coords))

    @staticmethod
    def basis(index: int, dim: int) -> "ExtraVector":
        return ExtraVector.concrete(tuple(1 if i == index else 0 for i in range(1, dim + 1)))

    @property
    def is_symbolic(self) -> bool:
        return self.name is not None

    def column(self, dim: int) -> list[Polynomial]:
        if self.coords is not None:
            if len(self.coords) != dim:
                raise ValueError(f"extra vector of length {len(self.coords)} in dimension {dim}")
            return [Polynomial.constant(c) for c in self.coords]
        return symbolic_column(self.name, dim)

    def label(self) -> str:
        if self.name is not None:
            return self.name
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def to_json_dict(self) -> dict:
        if self.name is not None:
            return {"symbolic": self.name}
        return {"concrete": [format_rational(c) for c in self.coords]}

    @staticmethod
    def from_json_dict(data: dict) -> "ExtraVector":
        """``{"symbolic": name}`` or ``{"concrete": [rationals]}``, not all 0."""
        if isinstance(data, dict) and len(data) == 1:
            if isinstance(data.get("symbolic"), str) and is_extra_id(data["symbolic"]):
                return ExtraVector.symbolic(data["symbolic"])
            if isinstance(data.get("concrete"), list):
                vector = ExtraVector.concrete(data["concrete"])
                if not any(vector.coords):
                    raise GraphDataSchemaError(f"extra vector is zero: {data!r}")
                return vector
        raise GraphDataSchemaError(f"malformed extra vector {data!r}")


# -- the signed-bracket matrix ------------------------------------------------


def bracket_matrix(rows: Iterable[tuple[Sequence[int], Label]], columns: Sequence[int]) -> BracketRows:
    """One row per (circuit, extra-vector label), one column per point.

    The circuit is listed ascending; the entry at its i-th point (from 0) is
    (-1)^i times the bracket of the other points followed by the label, and
    points outside the circuit get 0.  Point ids are ints and labels are
    strings, so each bracket is already in sorted normal form, stored as built.
    """
    zero = BracketPolynomial.zero()
    entries = []
    for circuit, label in rows:
        circuit = tuple(sorted(circuit))
        signed = {
            p: BracketPolynomial._from_clean({(circuit[:i] + circuit[i + 1 :] + (label,),): (-1) ** i})
            for i, p in enumerate(circuit)
        }
        entries.append([signed.get(p, zero) for p in columns])
    return entries


def _coordinates(extras: Iterable[ExtraVector], dim: int):
    """Bracket expansion sending a point p to x[r,p], an extra label to its column."""
    by_label = {e.label(): e for e in extras}

    def column(label: Label) -> Sequence[Polynomial]:
        extra = by_label.get(label)
        return symbolic_column(label, dim) if extra is None else extra.column(dim)

    return expander(dim, column)


# -- circuit polynomials ----------------------------------------------------


class LabeledPolynomial(NamedTuple):
    label: str
    # A file read against a realization's points holds PointResiduals.
    polynomial: Polynomial | PointResidual


def circuit_polynomials(matroid: PavingMatroid) -> list[LabeledPolynomial]:
    """One generic-matrix minor per size-n circuit, columns ascending."""
    circuits = matroid.circuits_n()
    polys = expander(matroid.rank)([BracketPolynomial.bracket(c) for c in circuits])
    return [LabeledPolynomial(f"circuit B={list(c)}", poly) for c, poly in zip(circuits, polys)]


# -- liftability matrices ----------------------------------------------------


def _expanded(matrix: BracketRows, expand) -> list[list[Polynomial]]:
    """The matrix in coordinates, in one call of a ``_coordinates`` expander."""
    entries = iter(expand([e for row in matrix for e in row]))
    return [[next(entries) for _ in row] for row in matrix]


def liftability_matrix_at(
    matroid: PavingMatroid, vectors: Mapping[int, Sequence[Scalar]], q: Sequence[Scalar]
) -> list[list[Scalar]]:
    """Liftability matrix evaluated at concrete vectors (numeric brackets).

    The ambient dimension is the length of q.
    """
    return _liftability_record(matroid, len(q)).matrix_at(integer_columns(vectors), q)


@lru_cache(maxsize=64)
def _liftability_record(matroid: PavingMatroid, dim: int) -> LiftingMinors:
    """One record per matroid and ambient dimension: ``matrix_at`` binds its
    symbolic q to the vector it is given."""
    return LiftingMinors(matroid.points, matroid.circuits_of_size(dim), ExtraVector.symbolic("q"))


@dataclass(frozen=True)
class LiftingMinors:
    """The liftability matrix of a point set N, and every k-minor of it: the
    lifting polynomials of N, kept as the matrix they are read off.

    Rows are the given size-n circuits with the extra vector q, columns N's
    points, and k = |N| - n + 1; a record without rows takes n = 0, so k
    exceeds both sides and it has no minors.  The minors vanish at a point
    exactly when the evaluated matrix has rank below k.
    """

    points: tuple[int, ...]
    circuits: tuple[tuple[int, ...], ...]
    q: ExtraVector

    @property
    def k(self) -> int:
        return len(self.points) - (len(self.circuits[0]) if self.circuits else 0) + 1

    @cached_property
    def matrix(self) -> BracketRows:
        return self._bracket_matrix()

    def _bracket_matrix(self) -> BracketRows:
        label = self.q.label()
        return bracket_matrix(((c, label) for c in self.circuits), self.points)

    @property
    def label(self) -> str:
        return f"lifting N={list(self.points)} rows={[list(c) for c in self.circuits]} q={self.q.label()}"

    @cached_property
    def _signed(self) -> list[list[tuple[int, BracketKey, int]]]:
        """Each row's nonzero entries as (column, bracket, sign).  They are read
        off ``matrix`` when it is built, and otherwise off one that is not
        kept, so a record cached for ``lift`` holds only these."""
        matrix = self.__dict__.get("matrix") or self._bracket_matrix()
        return [[(j, key, sign) for j, e in enumerate(row) for (key,), sign in e.terms.items()] for row in matrix]

    def matrix_at(
        self, columns: Mapping[Label, tuple[tuple[int, ...], int]], q: Sequence[Scalar]
    ) -> list[list[Scalar]]:
        """The matrix with each point bound to its integer column (``columns``,
        ``brackets.integer_columns`` of the point vectors, converted once by
        the caller) and q to ``q``: each signed bracket is one exact integer
        determinant (``bracket_value``)."""
        bound = {**columns, **integer_columns({self.q.label(): q})}
        # A line of more than n points gives several entries one bracket.
        value = cache(lambda key: bracket_value(key, bound))
        out = []
        for signed in self._signed:
            row: list[Scalar] = [0] * len(self.points)
            for j, key, sign in signed:
                row[j] = sign * value(key)
            out.append(row)
        return out

    def index_sets(self) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(rows, columns) of each minor: row sets outer, both ascending."""
        k = self.k
        return product(combinations(range(len(self.circuits)), k), combinations(range(len(self.points)), k))

    def minor_labels(self) -> list[str]:
        """The label of each minor, in ``index_sets`` order."""
        k, circuits, points = self.k, self.circuits, self.points
        rows = [str([list(circuits[i]) for i in r]) for r in combinations(range(len(circuits)), k)]
        cols = [str([points[j] for j in c]) for c in combinations(range(len(points)), k)]
        head, tail = f"lifting-minor N={list(self.points)} rows=", f" q={self.q.label()}"
        return [f"{head}{r} cols={c}{tail}" for r in rows for c in cols]

    def minors(self) -> list[LabeledPolynomial]:
        """Each minor expanded into coordinates, through one MinorEngine."""
        index_sets = list(self.index_sets())
        if not index_sets:
            return []
        engine = MinorEngine(_expanded(self.matrix, _coordinates([self.q], len(self.circuits[0]))))
        labels = self.minor_labels()
        return [LabeledPolynomial(label, engine.minor(*ij)) for label, ij in zip(labels, index_sets)]


def lifting_minors(submatroid: PavingMatroid, q: ExtraVector) -> LiftingMinors:
    """The (|N|-n+1)-minor record of N, a paving matroid, typically a
    restriction of a larger one; with fewer circuits than k it has no minors."""
    return LiftingMinors(submatroid.points, submatroid.circuits_of_size(submatroid.rank), q)


def lifting_polynomials(submatroid: PavingMatroid, q: ExtraVector) -> list[LabeledPolynomial]:
    """All (|N|-n+1)-minors of the liftability matrix of N, in coordinates."""
    return lifting_minors(submatroid, q).minors()


# -- graph data -------------------------------------------------------------------


@dataclass(frozen=True)
class GraphData:
    """Anchor set J, threaded points P, one circuit and extra vector each.

    The i-th point must lie in the i-th circuit, every circuit must stay
    inside P together with J, and P must avoid the closure of J.  Repeating
    a circuit is legal (with equal extra vectors the polynomial collapses to
    zero, which is the degenerate case of the construction).
    """

    matroid: PavingMatroid
    anchor: frozenset[int]
    points: tuple[int, ...]
    circuits: tuple[tuple[int, ...], ...]
    extras: tuple[ExtraVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "circuits", tuple(tuple(sorted(c)) for c in self.circuits))

    @property
    def k(self) -> int:
        return len(self.points)

    def validate(self) -> None:
        m = self.matroid
        if len(self.circuits) != self.k or len(self.extras) != self.k:
            raise HypothesisViolation("need one circuit and one extra vector per point")
        if len(set(self.points)) != self.k:
            raise HypothesisViolation("threaded points must be distinct")
        ground = set(m.points)
        if not (set(self.points) <= ground and self.anchor <= ground):
            raise HypothesisViolation("points leave the ground set")
        closure = m.closure(self.anchor)
        overlap = set(self.points) & closure
        if overlap:
            raise HypothesisViolation(
                f"points {sorted(overlap)} lie in the closure of the anchor set"
            )
        for extra in self.extras:
            if extra.coords is not None and len(extra.coords) != m.rank:
                raise HypothesisViolation(f"extra vector {extra.label()} is not of length {m.rank}")
        allowed = self.anchor | set(self.points)
        n_circuits = set(m.circuits_n())
        for p, c in zip(self.points, self.circuits):
            if len(c) != m.rank:
                raise HypothesisViolation(f"circuit {list(c)} has size != {m.rank}")
            if c not in n_circuits:
                raise HypothesisViolation(f"{list(c)} is not a size-{m.rank} circuit")
            if p not in c:
                raise HypothesisViolation(f"point {p} missing from its circuit {list(c)}")
            if not set(c) <= allowed:
                raise HypothesisViolation(
                    f"circuit {list(c)} uses points outside the anchor set and P"
                )

    def to_json_dict(self) -> dict:
        return {
            "J": sorted(self.anchor),
            "P": list(self.points),
            "C": [list(c) for c in self.circuits],
            "extra": [e.to_json_dict() for e in self.extras],
        }

    @staticmethod
    def from_json_dict(matroid: PavingMatroid, data: dict) -> "GraphData":
        """Read ``{"J", "P", "C", "extra"}``; the shape is checked, not the hypotheses."""
        if not isinstance(data, dict):
            raise GraphDataSchemaError("graph data must be a JSON object")
        missing = [key for key in ("J", "P", "C", "extra") if key not in data]
        if missing:
            raise GraphDataSchemaError(f"graph data lacks {', '.join(missing)}")
        if not (is_point_list(data["J"]) and is_point_list(data["P"])):
            raise GraphDataSchemaError("J and P must be lists of integer point ids")
        if not (isinstance(data["C"], list) and all(map(is_point_list, data["C"]))):
            raise GraphDataSchemaError("C must be a list of lists of integer point ids")
        if not isinstance(data["extra"], list):
            raise GraphDataSchemaError("extra must be a list of extra vectors")
        return GraphData(
            matroid,
            frozenset(data["J"]),
            tuple(data["P"]),
            tuple(tuple(c) for c in data["C"]),
            tuple(ExtraVector.from_json_dict(e) for e in data["extra"]),
        )


# -- graph polynomials ----------------------------------------------------------


def _graph_brackets(data: GraphData) -> BracketRows:
    """k-by-k bracket matrix: row i from circuit c_i with its extra vector,
    columns the threaded points."""
    data.validate()
    return bracket_matrix(zip(data.circuits, (e.label() for e in data.extras)), data.points)


def graph_polynomial(data: GraphData) -> Polynomial:
    """Determinant of the graph matrix expanded into coordinates, a concrete
    extra vector as its constant column."""
    expand = _coordinates(data.extras, data.matroid.rank)
    return MinorEngine(_expanded(_graph_brackets(data), expand)).determinant()


def emitted_graph_polynomial(data: GraphData) -> Polynomial | BracketPolynomial:
    """The graph polynomial in its output form.

    Bracket form when every extra vector is symbolic and the expansion
    estimate factorial(rank)**k exceeds EXPAND_LIMIT, coordinates otherwise.
    """
    symbolic = all(e.is_symbolic for e in data.extras)
    if symbolic and factorial(data.matroid.rank) ** data.k > EXPAND_LIMIT:
        return graph_polynomial_brackets(data)
    return graph_polynomial(data)


def graph_label(
    anchor: Iterable[int], points: Sequence[int], circuits: Iterable[Sequence[int]], q: Iterable[str]
) -> str:
    """The label of a graph polynomial: anchor set J, threaded points P,
    circuits C and the labels of its extra vectors q."""
    return f"graph J={sorted(anchor)} P={list(points)} C={[list(c) for c in circuits]} q={list(q)}"


def graph_matrix_brackets(data: GraphData) -> BracketRows:
    """The circuit/point matrix with formal brackets as entries.

    Exact and tiny regardless of how large the coordinate expansion would
    be; ``expand`` on the resulting determinant recovers the coordinate
    polynomial when that is feasible.  Bracket-form files name symbolic
    vectors only, so concrete extras are rejected.
    """
    matrix = _graph_brackets(data)
    if not all(e.is_symbolic for e in data.extras):
        raise HypothesisViolation("bracket-level graph polynomials need symbolic extra vectors")
    return matrix


def graph_polynomial_brackets(data: GraphData) -> BracketPolynomial:
    """Determinant route at the bracket level."""
    return MinorEngine(graph_matrix_brackets(data)).determinant()


# -- finite generating family ---------------------------------------------------


# Enumeration caps for the finite generating family: anchor-set size,
# threaded-set size, circuit tuples per anchor set, canonical-basis
# assignments per tuple, and emitted polynomials.
FAMILY_MAX_ANCHOR = 3
FAMILY_MAX_POINTS = 4
FAMILY_MAX_CIRCUIT_TUPLES = 4
FAMILY_MAX_BASIS_ASSIGNMENTS = 9
FAMILY_MAX_POLYNOMIALS = 200


@dataclass(frozen=True)
class GeneratingFamily:
    polynomials: tuple[LabeledPolynomial, ...]
    truncated: bool


def _family_tuples(matroid: PavingMatroid) -> tuple[list[tuple], bool]:
    """Per anchor set the family sweeps, in sweep order: (anchor, threaded
    points, circuit tuples) under the anchor, point and tuple caps; and
    whether a cap cut."""
    circuits = matroid.circuits_n()
    sweeps = []
    truncated = False
    for anchor in matroid.closed_sets(max_size=FAMILY_MAX_ANCHOR):
        points = tuple(p for p in matroid.points if p not in anchor)
        if not points or len(points) > FAMILY_MAX_POINTS:
            if points:
                truncated = True
            continue
        allowed = anchor | set(points)
        choices = [[c for c in circuits if p in c and set(c) <= allowed] for p in points]
        if any(not c for c in choices):
            continue
        combos = []
        for combo in product(*choices):
            if len(set(combo)) != len(combo):
                continue
            if len(combos) == FAMILY_MAX_CIRCUIT_TUPLES:
                truncated = True
                break
            combos.append(combo)
        if combos:
            sweeps.append((anchor, points, combos))
    return sweeps, truncated


def finite_generating_family(matroid: PavingMatroid) -> GeneratingFamily:
    """Circuit polynomials plus canonical-basis graph polynomials.

    Anchor sets run over closed sets, the threaded set is the whole
    complement, circuits are threaded with distinct representatives, and
    extra vectors sweep the canonical basis one circuit at a time.  The
    enumeration respects the FAMILY_MAX_* caps and reports truncation; polynomials are
    deduplicated up to sign.

    Setting q_i = e_b picks the e_b row of circuit c_i, so every candidate
    of an anchor set is a minor of one stacked matrix: a row per
    (circuit, e_b) for the circuits its capped tuples use, a column per
    threaded point, expanded into coordinates through one expander shared
    by the whole call.  One MinorEngine per anchor set reads each candidate
    off it on rows (c_1, b_1), ..., (c_k, b_k), and the engine's memo is
    dropped with its anchor set.  The engines and the circuits share one
    packing per call, over every x[r,p]: the zero test, the sign (the
    coefficient at the largest key, the lex-first term) and the dedup run
    on packed candidates, and only the members emitted are unpacked.
    """
    if matroid.max_degree() > 2:
        warnings.warn(
            "matroid has a point of degree > 2: the emitted family is not known "
            "to generate the full ideal",
            stacklevel=2,
        )
    sweeps, truncated = _family_tuples(matroid)
    n = matroid.rank
    # Room for the largest minor; every entry is linear in each x[r,p].
    pairs = {(entry_var(r, p), 1) for r in range(1, n + 1) for p in matroid.points}
    packing = ExponentPacking(Polynomial, pairs, max((len(points) for _, points, _ in sweeps), default=1))
    emitted: list[LabeledPolynomial] = []
    seen: set[frozenset] = set()

    def new_normal(packed: Packed) -> Packed | None:
        """``packed`` with a positive leading coefficient, unless already seen."""
        if packed and packed[max(packed)] < 0:
            packed = {mono: -coeff for mono, coeff in packed.items()}
        key = frozenset(packed.items())
        if key not in seen:
            seen.add(key)
            return packed

    for labeled in circuit_polynomials(matroid):
        if new_normal({packing.pack(mono): c for mono, c in labeled.polynomial.terms.items()}) is not None:
            emitted.append(labeled)

    basis = [ExtraVector.basis(b, n) for b in range(1, n + 1)]
    expand = _coordinates(basis, n)
    for anchor, points, combos in sweeps:
        used = dict.fromkeys(c for combo in combos for c in combo)
        row_of = {cb: i for i, cb in enumerate(product(used, range(1, n + 1)))}
        stacked = bracket_matrix(((c, basis[b - 1].label()) for c, b in row_of), points)
        engine = MinorEngine(_expanded(stacked, expand), packing)
        cols = tuple(range(len(points)))
        for combo in combos:
            # Basis vectors all have length n: one check covers every assignment.
            GraphData(matroid, anchor, points, combo, (basis[0],) * len(points)).validate()
            assignments = 0
            for basis_pick in product(range(1, n + 1), repeat=len(points)):
                assignments += 1
                if assignments > FAMILY_MAX_BASIS_ASSIGNMENTS:
                    truncated = True
                    break
                packed = engine.packed_minor([row_of[cb] for cb in zip(combo, basis_pick)], cols)
                if not packed or (normal := new_normal(packed)) is None:
                    continue
                label = graph_label(anchor, points, combo, [f"e{b}" for b in basis_pick])
                member = Polynomial._from_clean(dict(zip(packing.unpack(normal), normal.values())))
                emitted.append(LabeledPolynomial(label, member))
                if len(emitted) >= FAMILY_MAX_POLYNOMIALS:
                    return GeneratingFamily(tuple(emitted), True)
    return GeneratingFamily(tuple(emitted), truncated)


# -- canonical worked-example data -------------------------------------------------


def builtin_graph_data(name: str) -> GraphData:
    """The worked-example instances, keyed by canonical builtin matroid name."""
    m = builtin_matroid(name)
    key = m.name
    if key == "qs":
        return GraphData(
            m,
            frozenset({1, 5, 6}),
            (4, 3, 2),
            ((2, 4, 6), (3, 4, 5), (1, 2, 3)),
            tuple(ExtraVector.symbolic(f"q{i}") for i in (1, 2, 3)),
        )
    if key == "pascal":
        return GraphData(
            m,
            frozenset({7, 8, 9}),
            (6, 5, 4, 3, 2, 1),
            ((1, 6, 9), (5, 6, 8), (4, 5, 7), (3, 4, 9), (2, 3, 8), (1, 2, 7)),
            tuple(ExtraVector.symbolic(f"q{i}") for i in range(1, 7)),
        )
    if key == "fig2c":
        return GraphData(
            m,
            frozenset({6, 7, 8}),
            (1, 2, 3, 4, 5),
            ((1, 2, 3), (2, 5, 7), (3, 4, 7), (1, 4, 8), (1, 5, 6)),
            tuple(ExtraVector.symbolic(q) for q in ("q1", "q2", "q4", "q5", "q3")),
        )
    if key == "fig2r":
        return GraphData(
            m,
            frozenset({5, 6, 7}),
            (1, 2, 3, 4),
            ((1, 3, 6), (1, 2, 5), (2, 3, 4), (1, 4, 7)),
            tuple(ExtraVector.symbolic(f"q{i}") for i in range(1, 5)),
        )
    if key == "concurrent3":
        return GraphData(
            m,
            frozenset({7}),
            (3, 4),
            ((3, 4, 7), (3, 4, 7)),
            (ExtraVector.symbolic("qa"), ExtraVector.symbolic("qb")),
        )
    if key == "grid3x4":
        k = 4
        anchor = frozenset(grid_point(i, 4, k) for i in (1, 2, 3))
        pairs = []
        for i in (1, 2, 3):
            diag = grid_point(i, i, k)
            col_circuit = tuple(sorted(grid_point(r, i, k) for r in (1, 2, 3)))
            pairs.append((diag, col_circuit, f"q{3 + i}"))
            for j in (1, 2, 3):
                if j == i:
                    continue
                row_circuit = tuple(
                    sorted((grid_point(i, j, k), diag, grid_point(i, 4, k)))
                )
                pairs.append((grid_point(i, j, k), row_circuit, f"q{i}"))
        pairs.sort()
        return GraphData(
            m,
            anchor,
            tuple(p for p, _, _ in pairs),
            tuple(c for _, c, _ in pairs),
            tuple(ExtraVector.symbolic(q) for _, _, q in pairs),
        )
    if key == "paving4_9":
        return GraphData(
            m,
            frozenset({6, 7, 8, 9}),
            (1, 2, 3, 4, 5),
            ((1, 2, 3, 4), (2, 5, 6, 7), (3, 5, 8, 9), (4, 5, 6, 8), (1, 5, 7, 9)),
            tuple(ExtraVector.symbolic(f"q{i}") for i in range(1, 6)),
        )
    raise ValueError(f"no worked-example graph data for {name!r}")


def builtin_graph_data_names() -> tuple[str, ...]:
    return ("qs", "pascal", "fig2c", "fig2r", "concurrent3", "grid3x4", "paving4_9")

"""Generators of matroid ideals: circuit, lifting and graph polynomials.

All three families come from one signed-bracket matrix (``bracket_matrix``):
one row per circuit paired with an auxiliary vector q, one column per point,
and at the circuit's i-th point the bracket of the other circuit points
followed by q, with sign (-1)^i.  Coordinate, numeric and bracket-level
forms are all read off that matrix.

Circuit polynomials are the maximal minors of the generic coordinate matrix
on the columns of a size-n circuit, i.e. single brackets.  Lifting
polynomials are the (|N|-n+1)-minors of the liftability matrix of a
full-rank restriction N: the bracket matrix on its size-n circuits, kept
whole as a ``LiftingMinors`` record and expanded minor by minor on demand.
Graph polynomials come from collections of circuits threaded through a set
of points outside the closure of an anchor set J: the signed sum over
disjoint cycle collections of a dependency digraph, which equals the
determinant of the circuit/point bracket matrix after clearing
denominators.  Both routes work on the bracket matrix; the determinant is
the production path and the coordinate form is its expansion, while the
cycle expansion is kept at the bracket level as an independent oracle.

Sign conventions: circuit elements are always listed ascending by point id
when forming brackets, so every emitted polynomial is canonical; agreement
with hand-written displays is up to one overall sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial
from typing import Iterable, Mapping, NamedTuple, Sequence

from .brackets import BracketPolynomial, Label, evaluator, expander, meet_then_join, symbolic_column
from .matroids import PavingMatroid, builtin_matroid, grid_point, is_point_list
from .poly import PointResidual, Polynomial
from .polymatrix import MinorEngine
from .scalars import Scalar, as_scalar, format_rational
from .variables import is_extra_id

BracketRows = list[list[BracketPolynomial]]

# Graph polynomials are written in coordinates while the expansion estimate
# factorial(rank)**k stays at or below this bound, in bracket form above it.
EXPAND_LIMIT = 5000
# Cycle-route budgets: threaded points and disjoint cycle collections of one
# dependency digraph.
CYCLE_MAX_POINTS_BRACKETS = 12
CYCLE_MAX_COLLECTIONS = 100_000


class HypothesisViolation(ValueError):
    """The data fails a structural requirement of the construction."""


class TooLarge(ValueError):
    """An enumeration exceeded its configured budget."""


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
        """``{"symbolic": name}`` or ``{"concrete": [rationals]}``."""
        if isinstance(data, dict) and len(data) == 1:
            if isinstance(data.get("symbolic"), str) and is_extra_id(data["symbolic"]):
                return ExtraVector.symbolic(data["symbolic"])
            if isinstance(data.get("concrete"), list):
                return ExtraVector.concrete(data["concrete"])
        raise GraphDataSchemaError(f"malformed extra vector {data!r}")


def bracket(labels: Sequence[Label], dim: int) -> Polynomial:
    """Determinant of the named columns, in the order given."""
    return BracketPolynomial.bracket(labels).expand(dim)


# -- the signed-bracket matrix ------------------------------------------------


def bracket_matrix(rows: Iterable[tuple[Sequence[int], Label]], columns: Sequence[int]) -> BracketRows:
    """One row per (circuit, extra-vector label), one column per point.

    The circuit is listed ascending; the entry at its i-th point (from 0) is
    (-1)^i times the bracket of the other points followed by the label, and
    points outside the circuit get 0.  Point ids are ints and labels are
    strings, so each bracket is already in sorted normal form.
    """
    zero = BracketPolynomial.zero()
    entries = []
    for circuit, label in rows:
        circuit = tuple(sorted(circuit))
        signed = {
            p: BracketPolynomial({(circuit[:i] + circuit[i + 1 :] + (label,),): (-1) ** i})
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
    out = []
    for circuit in matroid.circuits_n():
        poly = BracketPolynomial.bracket(circuit).expand(matroid.rank)
        out.append(LabeledPolynomial(f"circuit B={list(circuit)}", poly))
    return out


# -- liftability matrices ----------------------------------------------------


def _liftability_brackets(matroid, label: Label, dim: int) -> BracketRows:
    circuits = matroid.circuits_of_size(dim)
    return bracket_matrix(((c, label) for c in circuits), matroid.points)


def liftability_matrix(
    matroid: PavingMatroid, q: ExtraVector, ambient: int | None = None
) -> list[list[Polynomial]]:
    """Rows: circuits of size = ambient dimension (sorted); columns: points.

    For a rank-n paving matroid with ambient n these are the size-n
    circuits; a rank-(n-1) uniform matroid in ambient n contributes all its
    size-n circuits instead, which is what non-degenerate lifting needs.
    """
    dim = ambient if ambient is not None else matroid.rank
    if q.coords is not None and len(q.coords) != dim:
        raise ValueError("extra vector dimension disagrees with the ambient dimension")
    return _expanded(_liftability_brackets(matroid, q.label(), dim), _coordinates([q], dim))


def _expanded(matrix: BracketRows, expand) -> list[list[Polynomial]]:
    """The matrix in coordinates, in one call of a ``_coordinates`` expander."""
    entries = iter(expand([e for row in matrix for e in row]))
    return [[next(entries) for _ in row] for row in matrix]


def liftability_matrix_at(
    matroid: PavingMatroid,
    vectors: Mapping[int, Sequence[Scalar]],
    q: Sequence[Scalar],
) -> list[list[Scalar]]:
    """Liftability matrix evaluated at concrete vectors (numeric brackets).

    The ambient dimension is the length of q.
    """
    extra = ExtraVector.concrete(q)
    value = evaluator({**vectors, extra.label(): extra.coords})
    return [[value(e) for e in row] for row in _liftability_brackets(matroid, extra.label(), len(q))]


@dataclass(frozen=True)
class LiftingMinors:
    """Every k-minor of the bracket matrix of a restriction N: its lifting
    polynomials, kept as the matrix they are read off.

    Rows are N's size-n circuits with the extra vector q, columns N's
    points, and k = |N| - n + 1.  The minors vanish at a point exactly when
    the evaluated matrix has rank below k.
    """

    points: tuple[int, ...]
    circuits: tuple[tuple[int, ...], ...]
    q: ExtraVector
    k: int
    matrix: BracketRows

    @property
    def label(self) -> str:
        return f"lifting N={list(self.points)} rows={[list(c) for c in self.circuits]} q={self.q.label()}"

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
    rank = submatroid.rank
    return LiftingMinors(
        submatroid.points,
        submatroid.circuits_of_size(rank),
        q,
        submatroid.size - rank + 1,
        _liftability_brackets(submatroid, q.label(), rank),
    )


def lifting_polynomials(submatroid: PavingMatroid, q: ExtraVector) -> list[LabeledPolynomial]:
    """All (|N|-n+1)-minors of the liftability matrix of N, in coordinates."""
    return lifting_minors(submatroid, q).minors()


# -- graph data and dependency digraphs ------------------------------------------


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


@dataclass(frozen=True)
class DependencyDigraph:
    """Loopless digraph on the threaded points; weights exact or symbolic."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    weights: Mapping[tuple[int, int], Scalar] | None = None

    def weight(self, edge: tuple[int, int]) -> Scalar:
        if self.weights is None:
            raise ValueError("symbolic digraph has no numeric weights")
        return self.weights[edge]

    def simple_cycles(self) -> list[tuple[int, ...]]:
        """All simple directed cycles, each starting at its least vertex.

        Depth-first search from each start vertex s in ascending order,
        through vertices greater than s only, so every cycle is found once.
        """
        succ: dict[int, set[int]] = {}
        for a, b in self.edges:
            succ.setdefault(a, set()).add(b)
        cycles: list[tuple[int, ...]] = []

        def extend(path: list[int]):
            for nxt in succ.get(path[-1], ()):
                if nxt == path[0]:
                    cycles.append(tuple(path))
                elif nxt > path[0] and nxt not in path:
                    extend(path + [nxt])

        for start in sorted(succ):
            extend([start])
        cycles.sort()
        return cycles

    def cycle_collections(self) -> list[tuple[tuple[int, ...], ...]]:
        """Nonempty sets of pairwise vertex-disjoint cycles, sorted."""
        cycles = self.simple_cycles()
        out: list[tuple[tuple[int, ...], ...]] = []

        def extend(start: int, chosen: list[int], used: set[int]):
            if len(out) > CYCLE_MAX_COLLECTIONS:
                raise TooLarge("too many disjoint cycle collections")
            if chosen:
                out.append(tuple(cycles[i] for i in chosen))
            for i in range(start, len(cycles)):
                verts = set(cycles[i])
                if verts & used:
                    continue
                chosen.append(i)
                extend(i + 1, chosen, used | verts)
                chosen.pop()

        extend(0, [], set())
        out.sort()
        return out


def cycle_edges(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def build_graph(data: GraphData) -> DependencyDigraph:
    """Dependency digraph of the data: the edge p_i -> p_j whenever p_j sits
    in c_i besides p_i, i.e. generic nonvanishing of the coefficient."""
    data.validate()
    point_set = set(data.points)
    edges = []
    for p, c in zip(data.points, data.circuits):
        for other in sorted(set(c) & point_set - {p}):
            edges.append((p, other))
    return DependencyDigraph(tuple(data.points), tuple(sorted(set(edges))), None)


# -- graph polynomials ----------------------------------------------------------
#
# Both routes work at the bracket level; the coordinate forms are their
# expansions, with a concrete extra vector expanded to its constant column.


def _graph_brackets(data: GraphData) -> BracketRows:
    """k-by-k bracket matrix: row i from circuit c_i with its extra vector,
    columns the threaded points."""
    data.validate()
    return bracket_matrix(zip(data.circuits, (e.label() for e in data.extras)), data.points)


def _in_graph_coordinates(data: GraphData, poly: BracketPolynomial) -> Polynomial:
    return _coordinates(data.extras, data.matroid.rank)([poly])[0]


def graph_polynomial(data: GraphData) -> Polynomial:
    """Determinant route, expanded into coordinates."""
    return _in_graph_coordinates(data, MinorEngine(_graph_brackets(data)).determinant())


def emitted_graph_polynomial(data: GraphData) -> Polynomial | BracketPolynomial:
    """The graph polynomial in its output form.

    Bracket form when every extra vector is symbolic and the expansion
    estimate factorial(rank)**k exceeds EXPAND_LIMIT, coordinates otherwise.
    """
    symbolic = all(e.is_symbolic for e in data.extras)
    if symbolic and factorial(data.matroid.rank) ** data.k > EXPAND_LIMIT:
        return graph_polynomial_brackets(data)
    return graph_polynomial(data)


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


def graph_polynomial_via_cycles_brackets(
    data: GraphData, dedupe_denominators: bool = False
) -> BracketPolynomial:
    """Cycle route at the bracket level: the cycle identity expanded in the
    bracket quotients of the graph matrix, denominators cleared with its
    diagonal brackets.

    With ``dedupe_denominators`` the identity is cleared by each distinct
    diagonal bracket once instead of once per row, which is the minimal
    polynomial form when parallel rows share a dependency denominator; a
    collection that would consume a shared denominator twice is rejected.
    """
    matrix = graph_matrix_brackets(data)
    if data.k > CYCLE_MAX_POINTS_BRACKETS:
        raise TooLarge(f"cycle expansion budget is {CYCLE_MAX_POINTS_BRACKETS} points, got {data.k}")
    index = {p: i for i, p in enumerate(data.points)}
    diag = [matrix[i][i] for i in range(data.k)]
    # Group rows whose diagonal brackets agree up to sign; each class is
    # cleared once, and a used row contributes its sign relative to the
    # class representative.
    row_sign = [1] * data.k
    if dedupe_denominators:
        classes: dict = {}
        for i, d in enumerate(diag):
            rep, sign = d.normalized_sign()
            classes.setdefault(rep, []).append(i)
            row_sign[i] = sign
        class_list = list(classes.items())
    else:
        class_list = [(d, [i]) for i, d in enumerate(diag)]
    digraph = build_graph(data)
    one = BracketPolynomial.one()
    total = one
    for d, _ in class_list:
        total = total * d
    for collection in digraph.cycle_collections():
        used_rows = set()
        for cyc in collection:
            used_rows.update(index[v] for v in cyc)
        term = one if len(collection) % 2 == 0 else -one
        for cyc in collection:
            for a, b in cycle_edges(cyc):
                entry = matrix[index[a]][index[b]]
                term = term * (-entry).scale(row_sign[index[a]])
        for d, members in class_list:
            hits = sum(1 for i in members if i in used_rows)
            if hits == 0:
                term = term * d
            elif hits > 1:
                raise HypothesisViolation(
                    "a shared dependency denominator is consumed twice; "
                    "denominator deduplication does not apply to this data"
                )
        total = total + term
    return total


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
    off it on rows (c_1, b_1), ..., (c_k, b_k), so the matrix is packed
    once per anchor set rather than once per candidate, and the engine's
    memo is dropped with its anchor set.
    """
    if matroid.max_degree() > 2:
        warnings.warn(
            "matroid has a point of degree > 2: the emitted family is not known "
            "to generate the full ideal",
            stacklevel=2,
        )
    emitted: list[LabeledPolynomial] = []
    seen: set[Polynomial] = set()
    truncated = False
    for labeled in circuit_polynomials(matroid):
        normal, _ = labeled.polynomial.normalized_sign()
        if normal not in seen:
            seen.add(normal)
            emitted.append(labeled)

    sweeps, truncated = _family_tuples(matroid)
    n = matroid.rank
    basis = [ExtraVector.basis(b, n) for b in range(1, n + 1)]
    expand = _coordinates(basis, n)
    for anchor, points, combos in sweeps:
        used = dict.fromkeys(c for combo in combos for c in combo)
        row_of = {cb: i for i, cb in enumerate(product(used, range(1, n + 1)))}
        stacked = bracket_matrix(((c, basis[b - 1].label()) for c, b in row_of), points)
        engine = MinorEngine(_expanded(stacked, expand))
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
                poly = engine.minor([row_of[cb] for cb in zip(combo, basis_pick)], cols)
                if poly.is_zero():
                    continue
                normal, _ = poly.normalized_sign()
                if normal in seen:
                    continue
                seen.add(normal)
                label = (
                    f"graph J={sorted(anchor)} P={list(points)} "
                    f"C={[list(c) for c in combo]} q={[f'e{b}' for b in basis_pick]}"
                )
                emitted.append(LabeledPolynomial(label, normal))
                if len(emitted) >= FAMILY_MAX_POLYNOMIALS:
                    return GeneratingFamily(tuple(emitted), True)
    return GeneratingFamily(tuple(emitted), truncated)


# -- named constructions -----------------------------------------------------------


class BadIndexSet(ValueError):
    pass


def pascal_gc_quartic_brackets():
    """Join of the three opposite-side meets of the hexagon, as brackets."""
    return meet_then_join(3, [((1, 2), (4, 5)), ((2, 3), (5, 6)), ((3, 4), (6, 1))])


def pascal_gc_quartic() -> Polynomial:
    """Same quartic expanded into matrix-entry variables."""
    return pascal_gc_quartic_brackets().expand(3)


def rnc_polynomial_brackets(curve_degree: int, hexagon: Sequence[int]):
    """Two-term bracket difference for d+4 points on a degree-d normal curve.

    ``hexagon`` is the cyclically ordered choice of six point indices; the
    three formal columns x1, x2, x3 stand for the meets of opposite sides.
    Returns a bracket polynomial over ambient dimension d+1.
    """
    d = curve_degree
    if d < 2:
        raise BadIndexSet("curve degree must be at least 2")
    hexagon = tuple(hexagon)
    if len(hexagon) != 6 or len(set(hexagon)) != 6:
        raise BadIndexSet("need six distinct point indices")
    if not all(1 <= i <= d + 4 for i in hexagon):
        raise BadIndexSet(f"indices must lie in 1..{d + 4}")
    complement = tuple(sorted(set(range(1, d + 5)) - set(hexagon)))
    x = ("x1", "x2", "x3")
    firsts, seconds = [], []
    for t in range(6):
        head = hexagon[t]
        tail = hexagon[(t + 1) % 6]
        xi = x[t % 3]
        if t < 3:
            extras = tuple(f"r{t + 1}_{s}" for s in range(1, d))
            firsts.append((head, xi) + extras)
            seconds.append((tail, xi) + extras)
        else:
            extras = complement + (f"q{t - 2}",)
            firsts.append((head, xi) + extras)
            seconds.append((tail, xi) + extras)
    term1 = BracketPolynomial.constant(1)
    term2 = BracketPolynomial.constant(1)
    for labels in firsts:
        term1 = term1 * BracketPolynomial.bracket(labels)
    for labels in seconds:
        term2 = term2 * BracketPolynomial.bracket(labels)
    return term1 - term2


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

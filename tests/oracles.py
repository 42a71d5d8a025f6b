"""Shared independent oracles and constructions for the test suites.

Among them is the cycle route to graph polynomials: the signed sum over
disjoint cycle collections of the dependency digraph, which equals the
determinant of the circuit/point bracket matrix after clearing
denominators.  The package computes only that determinant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from pavingideals.brackets import (
    BracketPolynomial, evaluator, expander, meet_then_join, symbolic_column, to_bracket_polynomial,
)
from pavingideals.generators import (
    ExtraVector,
    GraphData,
    HypothesisViolation,
    LiftingMinors,
    bracket_matrix,
    graph_matrix_brackets,
)
from pavingideals.lifting import Hyperplane
from pavingideals.linalg import NonSquare, matrix_rank, solve_particular
from pavingideals.matroids import PavingMatroid
from pavingideals.poly import Monomial, Polynomial
from pavingideals.polyfiles import parse_polynomials, render_polynomials
from pavingideals.samplers import sample_realization
from pavingideals.scalars import Scalar, format_rational, normalize_scalar


@dataclass(frozen=True)
class DependencyDigraph:
    """Loopless digraph on the threaded points; weights exact or absent."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    weights: Mapping[tuple[int, int], Scalar] | None = None

    def weight(self, edge: tuple[int, int]) -> Scalar:
        if self.weights is None:
            raise ValueError("structural digraph has no numeric weights")
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


def collinear_points(count: int, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """``count`` pairwise independent points in the plane z = 0 of Q^3."""
    r = sample_realization(PavingMatroid.uniform(2, count), seed)
    return {p: (*v, 0) for p, v in r.vectors.items()}


def random_weighted_digraph(rng: random.Random, max_vertices: int = 7) -> DependencyDigraph:
    n = rng.randint(2, max_vertices)
    vertices = tuple(range(1, n + 1))
    edges = []
    weights = {}
    for a in vertices:
        for b in vertices:
            if a != b and rng.random() < 0.45:
                w = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if w != 0:
                    edges.append((a, b))
                    weights[(a, b)] = w
    return DependencyDigraph(vertices, tuple(sorted(edges)), weights)


def identity_minus_weights(g: DependencyDigraph) -> list[list[Scalar]]:
    """The matrix with unit diagonal and negated edge weights off it."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (a, b), w in g.weights.items():
        rows[index[a]][index[b]] = -w
    return rows


def dependency_digraph_from_vectors(rng: random.Random) -> DependencyDigraph | None:
    """Weights read off genuine linear dependencies of nonzero vectors.

    Draws m in r+1..r+2 vectors in Q^r (r in 3..5) and solves each vector
    exactly in terms of the others; returns None when a draw is degenerate.
    """
    r = rng.randint(3, 5)
    m = rng.randint(r + 1, r + 2)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(m)]
    if any(all(c == 0 for c in v) for v in vectors):
        return None
    edges = []
    weights = {}
    for i in range(m):
        others = [j for j in range(m) if j != i]
        rows = [[vectors[j][coord] for j in others] for coord in range(r)]
        sol = solve_particular(rows, vectors[i])
        if sol is None:
            return None
        for pos, j in enumerate(others):
            if sol[pos] != 0:
                edges.append((i + 1, j + 1))
                weights[(i + 1, j + 1)] = sol[pos]
    return DependencyDigraph(tuple(range(1, m + 1)), tuple(sorted(edges)), weights)


# -- graph oracles -----------------------------------------------------------------


def cycle_identity_value(graph: DependencyDigraph) -> Scalar:
    """1 + sum over disjoint cycle collections of (-1)^size * weight product.

    Equals det(I - A) for the weight matrix A, and vanishes whenever the
    weights come from genuine linear dependencies of nonzero vectors.
    """
    total: Scalar = 1
    for collection in graph.cycle_collections():
        prod: Scalar = 1
        for cyc in collection:
            for edge in cycle_edges(cyc):
                prod = prod * graph.weight(edge)
        total = total + (-1) ** len(collection) * prod
    return total


def build_graph(data: GraphData, vectors=None, extra_values=None) -> DependencyDigraph:
    """Dependency digraph of the data: the edge p -> o for each o in c_p ∩ P
    other than p, where c_p is p's circuit.

    Without ``vectors`` the edges are structural (generic nonvanishing of the
    coefficient) and carry no weights.  Given a realization's vectors, and a
    value for each symbolic extra vector, each edge is weighted by its signed
    bracket quotient, and an edge whose weight is exactly 0 is dropped.
    """
    data.validate()
    point_set = set(data.points)
    successors = [sorted(set(c) & point_set - {p}) for p, c in zip(data.points, data.circuits)]
    if vectors is None:
        edges = [(p, other) for p, others in zip(data.points, successors) for other in others]
        return DependencyDigraph(tuple(data.points), tuple(sorted(edges)))
    values = dict(vectors)
    for extra in data.extras:
        if extra.coords is not None:
            values[extra.label()] = extra.coords
        elif extra_values and extra.name in extra_values:
            values[extra.name] = tuple(extra_values[extra.name])
        else:
            raise HypothesisViolation(
                f"numeric mode needs a value for extra vector {extra.name!r}"
            )
    value = evaluator(values)
    matrix = bracket_matrix(zip(data.circuits, (e.label() for e in data.extras)), data.points)
    numeric = [[value(e) for e in row] for row in matrix]
    column = {p: j for j, p in enumerate(data.points)}
    weights: dict[tuple[int, int], Scalar] = {}
    for i, (p, c, others) in enumerate(zip(data.points, data.circuits, successors)):
        diag = numeric[i][i]
        if diag == 0:
            raise HypothesisViolation(
                f"degenerate dependency: bracket of {[x for x in c if x != p]} with q vanishes"
            )
        for other in others:
            # alpha_{p,other} = -N[p-row][other] / N[p-row][p].
            weight = normalize_scalar(Fraction(-numeric[i][column[other]], diag))
            if weight != 0:
                weights[p, other] = weight
    return DependencyDigraph(tuple(data.points), tuple(sorted(weights)), weights)


def graph_polynomial_via_cycles_brackets(
    data: GraphData, dedupe_denominators: bool = False
) -> BracketPolynomial:
    """Cycle route at the bracket level: the signed sum over disjoint cycle
    collections of the dependency digraph, expanded in the bracket quotients
    of the graph matrix, denominators cleared with its diagonal brackets.  It
    equals the determinant route, ``graph_polynomial_brackets``, up to sign.

    With ``dedupe_denominators`` the identity is cleared by each distinct
    diagonal bracket once instead of once per row, which is the minimal
    polynomial form when parallel rows share a dependency denominator; a
    collection that would consume a shared denominator twice is rejected.
    """
    matrix = graph_matrix_brackets(data)
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
    one = BracketPolynomial.one()
    total = one
    for d, _ in class_list:
        total = total * d
    for collection in build_graph(data).cycle_collections():
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


def graph_polynomial_via_cycles(data: GraphData) -> Polynomial:
    """Cycle route, expanded into coordinates.  Oracle for graph_polynomial."""
    return graph_polynomial_via_cycles_brackets(data).expand(data.matroid.rank)


def liftability_matrix(
    matroid: PavingMatroid, q: ExtraVector, ambient: int | None = None
) -> list[list[Polynomial]]:
    """The liftability matrix in coordinates, q's label expanded to its column.

    Rows: circuits of size the ambient dimension (default the rank), sorted;
    columns: points.  A rank-(n-1) uniform matroid in ambient n contributes
    all its size-n circuits, which is what non-degenerate lifting needs.
    """
    dim = ambient if ambient is not None else matroid.rank
    record = LiftingMinors(matroid.points, matroid.circuits_of_size(dim), q)
    column = {q.label(): q.column(dim)}
    expand = expander(dim, lambda label: column.get(label) or symbolic_column(label, dim))
    return [expand(row) for row in record.matrix]


# -- named constructions --------------------------------------------------------------
#
# Hand-built Grassmann-Cayley references for the worked examples.


class BadIndexSet(ValueError):
    pass


def pascal_gc_quartic_brackets() -> BracketPolynomial:
    """Join of the three opposite-side meets of the hexagon, as brackets."""
    meets = [((1, 2), (4, 5)), ((2, 3), (5, 6)), ((3, 4), (6, 1))]
    return to_bracket_polynomial(meet_then_join(3, meets))


def pascal_gc_quartic() -> Polynomial:
    """Same quartic expanded into matrix-entry variables."""
    return pascal_gc_quartic_brackets().expand(3)


def rnc_polynomial_brackets(curve_degree: int, hexagon: Sequence[int]) -> BracketPolynomial:
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


def rename_labels(poly: BracketPolynomial, mapping) -> BracketPolynomial:
    """The bracket polynomial with each label l replaced by mapping.get(l, l)."""
    total = BracketPolynomial.zero()
    for mono, coeff in poly.terms.items():
        term = BracketPolynomial.constant(coeff)
        for key in mono:
            term = term * BracketPolynomial.bracket([mapping.get(l, l) for l in key])
        total = total + term
    return total


def expand_records(text: str) -> str:
    """A generated file with each minors record expanded into its minors."""
    items = parse_polynomials(text)
    return render_polynomials(
        [p for item in items for p in (item.minors() if isinstance(item, LiftingMinors) else [item])]
    )


def random_hyperplane_and_center(rng: random.Random, dim: int = 3):
    """A hyperplane and an exact integer center off it."""
    while True:
        normal = tuple(rng.randint(-7, 7) for _ in range(dim))
        center = tuple(rng.randint(-7, 7) for _ in range(dim))
        pairing = sum(a * b for a, b in zip(normal, center))
        if any(normal) and pairing != 0:
            return Hyperplane(normal), center


def find_sdr(circuits, points) -> list[int] | None:
    """System of distinct representatives: one point per circuit, in order."""
    points = list(points)
    assignment: list[int] = []
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == len(circuits):
            return True
        for p in points:
            if p in used or p not in circuits[i]:
                continue
            used.add(p)
            assignment.append(p)
            if backtrack(i + 1):
                return True
            assignment.pop()
            used.remove(p)
        return False

    return assignment if backtrack(0) else None


def perm_parity(seq) -> int:
    """Sign of the permutation sorting seq (distinct entries)."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def gaussian_pivot_product(m: list[list[Scalar]]) -> Scalar:
    """Determinant as a signed product of Gaussian pivots (independent oracle)."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    sign = 1
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        det *= rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return normalize_scalar(sign * det)


def rref(m: list[list[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (matrix, pivot columns).

    A second, independent elimination (divide each pivot row, clear the whole
    column) that the fraction-free routines in ``pavingideals.linalg`` are
    checked against.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rref_rank(m: list[list[Scalar]]) -> int:
    return len(rref(m)[1])


def rref_kernel_basis(m: list[list[Scalar]], n_cols: int) -> list[tuple[Scalar, ...]]:
    """Kernel basis with free entry 1 and every other free entry 0."""
    reduced, pivots = rref(m)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec: list[Scalar] = [0] * n_cols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = normalize_scalar(-reduced[r][f])
        basis.append(tuple(vec))
    return basis


def rref_solve(m: list[list[Scalar]], b) -> list[Scalar] | None:
    """The solution of m x = b with every free entry 0, or None."""
    n_cols = len(m[0]) if m else 0
    reduced, pivots = rref([list(row) + [bi] for row, bi in zip(m, b)])
    if n_cols in pivots:
        return None
    x: list[Scalar] = [0] * n_cols
    for r, c in enumerate(pivots):
        x[c] = normalize_scalar(reduced[r][n_cols])
    return x


# -- realization oracles ---------------------------------------------------------


def rank_in_realization_space(vectors, matroid) -> bool:
    """Membership in the realization space by exact rank: every (n-1)-subset
    is independent and every n-subset has rank n-1 or n as it is a circuit
    or not.  The reference for the determinant test of
    ``realizations.in_realization_space``, which drops the (n-1)-subsets.
    """
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


# -- polynomial oracles -----------------------------------------------------------
#
# The tuple-merge minor expansion and the lex-key renderer that
# ``MinorEngine`` (packed exponents) and ``Polynomial.to_text`` (packed sort
# keys) replaced; kept as references for them.


class TupleMergeMinors:
    """Memoized Laplace expansion through the ring's own ``*`` and ``+``."""

    MEMO_LIMIT = 8

    def __init__(self, rows):
        self.rows = rows
        self._cache = {}
        self._zero = [[entry.is_zero() for entry in row] for row in rows]
        self._ring = next((type(row[0]) for row in rows if row), Polynomial)

    def minor(self, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise NonSquare(f"minor on {len(rows)} rows and {len(cols)} columns")
        return self._minor(rows, cols)

    def determinant(self):
        n_rows = len(self.rows)
        n_cols = len(self.rows[0]) if self.rows else 0
        if n_rows != n_cols:
            raise NonSquare(f"{n_rows}x{n_cols} matrix has no determinant")
        return self._minor(tuple(range(n_rows)), tuple(range(n_cols)))

    def _minor(self, rows, cols):
        k = len(rows)
        if k == 0:
            return self._ring.one()
        ent = self.rows
        if k == 1:
            return ent[rows[0]][cols[0]]
        cached = self._cache.get((rows, cols)) if k <= self.MEMO_LIMIT else None
        if cached is not None:
            return cached
        if k == 2:
            a, b = ent[rows[0]][cols[0]], ent[rows[0]][cols[1]]
            c, d = ent[rows[1]][cols[0]], ent[rows[1]][cols[1]]
            result = a * d - b * c
        else:
            result = self._expand(rows, cols)
        if k <= self.MEMO_LIMIT:
            self._cache[(rows, cols)] = result
        return result

    def _expand(self, rows, cols):
        zero = self._zero
        best_axis, best_idx, best_count = 0, 0, len(cols) + 1
        for i, r in enumerate(rows):
            count = sum(1 for c in cols if not zero[r][c])
            if count < best_count:
                best_axis, best_idx, best_count = 0, i, count
        for j, c in enumerate(cols):
            count = sum(1 for r in rows if not zero[r][c])
            if count < best_count:
                best_axis, best_idx, best_count = 1, j, count
        if best_count == 0:
            return self._ring.zero()
        ent = self.rows
        total = self._ring.zero()
        if best_axis == 0:
            r = rows[best_idx]
            sub_rows = rows[:best_idx] + rows[best_idx + 1 :]
            for j, c in enumerate(cols):
                if zero[r][c]:
                    continue
                term = ent[r][c] * self._minor(sub_rows, cols[:j] + cols[j + 1 :])
                total = total + (term if (best_idx + j) % 2 == 0 else -term)
        else:
            c = cols[best_idx]
            sub_cols = cols[:best_idx] + cols[best_idx + 1 :]
            for i, r in enumerate(rows):
                if zero[r][c]:
                    continue
                term = ent[r][c] * self._minor(rows[:i] + rows[i + 1 :], sub_cols)
                total = total + (term if (i + best_idx) % 2 == 0 else -term)
        return total


def lex_key(m: Monomial):
    """A monomial with an earlier variable (or a higher power of it) sorts
    first; the sentinel puts a monomial after those it divides."""
    return tuple((0, v, -e) for v, e in m) + ((1,),)


def render_polynomial(p: Polynomial) -> str:
    """The coordinate text form, terms sorted by ``lex_key``."""
    if p.is_zero():
        return "0"
    chunks = []
    for idx, (mono, coeff) in enumerate(sorted(p.terms.items(), key=lambda kv: lex_key(kv[0]))):
        sign = "-" if coeff < 0 else "+"
        factors = [format_rational(-coeff if coeff < 0 else coeff)]
        for var, exp in mono:
            factors.append(var.text() if exp == 1 else f"{var.text()}^{exp}")
        body = " * ".join(factors)
        if idx == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)

"""Shared independent oracles and constructions for the test suites."""

from __future__ import annotations

import random
from fractions import Fraction

from pavingideals.brackets import BracketPolynomial, evaluator
from pavingideals.generators import (
    DependencyDigraph,
    GraphData,
    HypothesisViolation,
    LiftingMinors,
    bracket_matrix,
    cycle_edges,
    graph_polynomial_via_cycles_brackets,
)
from pavingideals.lifting import Hyperplane
from pavingideals.linalg import NonSquare, solve_particular
from pavingideals.poly import Monomial, Polynomial
from pavingideals.polyfiles import parse_polynomials, render_polynomials
from pavingideals.scalars import Scalar, format_rational, normalize_scalar


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


def numeric_graph(data: GraphData, vectors, extra_values=None) -> DependencyDigraph:
    """Dependency digraph of the data with its weights read off a realization
    as signed bracket quotients; exact zeros are dropped."""
    data.validate()
    point_set = set(data.points)
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
    edges = []
    for i, (p, c) in enumerate(zip(data.points, data.circuits)):
        diag = numeric[i][i]
        if diag == 0:
            raise HypothesisViolation(
                f"degenerate dependency: bracket of {[x for x in c if x != p]} with q vanishes"
            )
        for other in sorted(set(c) & point_set - {p}):
            # alpha_{p,other} = -N[p-row][other] / N[p-row][p].
            value = normalize_scalar(Fraction(-numeric[i][column[other]], diag))
            if value != 0:
                edges.append((p, other))
                weights[(p, other)] = value
    return DependencyDigraph(tuple(data.points), tuple(sorted(edges)), weights)


def graph_polynomial_via_cycles(data: GraphData) -> Polynomial:
    """Cycle route, expanded into coordinates.  Oracle for graph_polynomial."""
    return graph_polynomial_via_cycles_brackets(data).expand(data.matroid.rank)


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

"""Exact generators for matroid ideals of paving matroids.

Circuit polynomials, lifting polynomials (minors of liftability matrices)
and graph polynomials (signed cycle-collection determinants), all over exact
rational arithmetic, together with a sampler for rational realizations of
paving matroids and an exact vanishing verifier.
"""

from .brackets import BracketPolynomial
from .generators import (
    ExtraVector,
    GraphData,
    builtin_graph_data,
    circuit_polynomials,
    cycle_identity_value,
    finite_generating_family,
    graph_polynomial,
    graph_polynomial_brackets,
    graph_polynomial_via_cycles,
    graph_polynomial_via_cycles_brackets,
    liftability_matrix,
    lifting_polynomials,
    pascal_gc_quartic,
    rnc_polynomial_brackets,
)
from .lifting import Hyperplane, lift, project
from .matroids import PavingMatroid, builtin_matroid
from .poly import Polynomial
from .realizations import Realization, in_circuit_variety, in_realization_space
from .samplers import sample_family, sample_realization
from .verify import verify_vanishing

__version__ = "0.1.0"

__all__ = [
    "BracketPolynomial",
    "ExtraVector",
    "GraphData",
    "Hyperplane",
    "PavingMatroid",
    "Polynomial",
    "Realization",
    "builtin_graph_data",
    "builtin_matroid",
    "circuit_polynomials",
    "cycle_identity_value",
    "finite_generating_family",
    "graph_polynomial",
    "graph_polynomial_brackets",
    "graph_polynomial_via_cycles",
    "graph_polynomial_via_cycles_brackets",
    "in_circuit_variety",
    "in_realization_space",
    "lift",
    "liftability_matrix",
    "lifting_polynomials",
    "pascal_gc_quartic",
    "project",
    "rnc_polynomial_brackets",
    "sample_family",
    "sample_realization",
    "verify_vanishing",
]

"""Every package function that no CLI call enters is named here.

``scripts/reachability.py`` runs a CLI sweep of every subcommand and option
value under ``sys.settrace``; a function it never enters is library API (the
benchmark, the example scripts and the tests call it), test-facing API or an
error path.  A new function that no CLI call enters must be added below.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reachability.py"

LIBRARY_ONLY = frozenset({
    "brackets.BracketPolynomial.__repr__",
    "brackets.BracketPolynomial.evaluate",
    "brackets.BracketPolynomial.expand",
    "brackets.BracketPolynomial.support",
    "cli._Exit.__init__",
    "generators._family_tuples",
    "generators._liftability_record",
    "generators.finite_generating_family",
    "generators.finite_generating_family.new_normal",
    "generators.liftability_matrix_at",
    "lifting.Hyperplane.__post_init__",
    "lifting.Hyperplane.pairing",
    "lifting.PointThroughCenter.__init__",
    "lifting.degenerate_lift_subspace",
    "lifting.lift",
    "lifting.project",
    "linalg.solve_particular",
    "matroids.HyperplaneTooSmall.__init__",
    "matroids.IntersectionTooLarge.__init__",
    "matroids.PavingMatroid.circuits_n1",
    "matroids.PavingMatroid.closed_sets",
    "matroids.PavingMatroid.max_degree",
    "matroids.PavingMatroid.point_degree",
    "matroids.PavingMatroid.uniform",
    "matroids._circuits_n1",
    "poly.Polynomial.__bool__",
    "poly.Polynomial.__eq__",
    "poly.Polynomial.__hash__",
    "poly.Polynomial.__len__",
    "poly.Polynomial.__neg__",
    "poly.Polynomial.__repr__",
    "poly.Polynomial.__rsub__",
    "poly.Polynomial.__str__",
    "poly.Polynomial.__sub__",
    "poly.Polynomial._exponents",
    "poly.Polynomial._power",
    "poly.Polynomial.constant_value",
    "poly.Polynomial.evaluate_partial",
    "poly.Polynomial.evaluate_partial.value",
    "poly.Polynomial.from_text",
    "poly.Polynomial.is_constant",
    "poly.Polynomial.one",
    "poly.Polynomial.support",
    "poly.UnboundVariable.__init__",
    "poly.UnboundVariable.__str__",
    "realizations.in_circuit_variety",
    "samplers.sample_family",
})


def test_functions_no_cli_call_enters_are_named():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    reachability = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reachability)
    not_by_cli = set(reachability.sweep())
    assert not_by_cli <= LIBRARY_ONLY, sorted(not_by_cli - LIBRARY_ONLY)

#!/usr/bin/env python3
"""Reproduce the worked-example polynomials and verify them exactly.

For each built-in configuration this prints the graph polynomial in bracket
form, the circuit-polynomial count, the sufficient-liftability verdict, and
an exact vanishing check against freshly sampled rational realizations.

Usage: python3 scripts/reproduce_examples.py [--seeds N]
"""

from __future__ import annotations

import argparse
import random
import sys

from pavingideals.generators import (
    builtin_graph_data,
    builtin_graph_data_names,
    circuit_polynomials,
    graph_polynomial_brackets,
    graph_polynomial_via_cycles_brackets,
)
from pavingideals.matroids import builtin_matroid
from pavingideals.samplers import sample_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    failures = 0
    for name in builtin_graph_data_names():
        matroid = builtin_matroid(name)
        data = builtin_graph_data(name)
        poly = graph_polynomial_brackets(data)
        cycles = graph_polynomial_via_cycles_brackets(data)
        agree = (poly - cycles).is_zero() or (poly + cycles).is_zero()
        print(f"== {name}: rank {matroid.rank}, {matroid.size} points, "
              f"{len(matroid.hyperplanes)} hyperplanes")
        print(f"   circuit polynomials: {len(circuit_polynomials(matroid))}")
        k = len(matroid.circuits_n())
        verdict = (
            "liftable (certified)" if matroid.liftable_sufficient()
            else f"inconclusive ({matroid.size} < {k + matroid.rank})"
        )
        print(f"   sufficient liftability: {verdict}")
        print(f"   graph polynomial ({len(poly.terms)} bracket terms): {poly.pretty()}")
        print(f"   det route == cycle route up to sign: {agree}")
        if not agree:
            failures += 1

        rng = random.Random(name)
        ok = True
        for seed in range(args.seeds):
            realization = sample_family(name, seed)
            names = sorted(l for l in poly.labels() if isinstance(l, str))
            assignment = dict(realization.vectors)
            assignment.update(
                {n: tuple(rng.randint(-9, 9) for _ in range(matroid.rank)) for n in names}
            )
            if poly.evaluate(assignment) != 0:
                ok = False
        print(f"   vanishes on {args.seeds} sampled realizations "
              f"with random extra vectors: {ok}")
        if not ok:
            failures += 1
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

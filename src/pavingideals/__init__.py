"""Exact generators for matroid ideals of paving matroids.

Circuit polynomials, lifting polynomials (minors of liftability matrices)
and graph polynomials (signed cycle-collection determinants), all over exact
rational arithmetic, together with a sampler for rational realizations of
paving matroids and an exact vanishing verifier.  The package exposes
modules, not names: import ``pavingideals.generators``, ``.samplers``,
``.verify`` and the rest; importing the package itself loads none of them.
"""

__version__ = "0.1.0"

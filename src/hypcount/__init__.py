"""Exact-arithmetic q-series library for counting hyperelliptic curves on
polarized Abelian surfaces, with the supporting affine F_2^4 calculus.

The core objects are truncated power series over the rationals (fps), the
named quasi-modular series they assemble into (qforms), the Chebyshev /
theta-block calculus (trig), the two-torsion admissibility geometry
(kummer), and the per-profile and per-genus counting series (counting).
The cli surface loads the identity suites (verify) on demand; SUITES names
them here so that parsing a command line does not import them.
"""

SUITES = ("fps", "qforms", "trig", "kummer", "counting")

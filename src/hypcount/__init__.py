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

from .errors import (
    BoundTooSmall,
    DomainError,
    HypcountError,
    NonzeroConstantTerm,
    ZeroConstantTerm,
)
from .fps import Series
from .numtheory import odd_split_count, sigma1, sigma1_lemma_check
from .qforms import (
    NamedForm,
    delta_inv_times_q,
    legendre_series,
    macmahon_A,
    macmahon_A_direct,
    macmahon_A_recursive,
    macmahon_C,
    macmahon_C_direct,
    macmahon_C_recursive,
    named_form,
    pochhammer,
    series_E,
    series_E2,
    theta2_fourth,
)
from .trig import (
    andrews_rose_G,
    andrews_rose_H,
    chebyshev,
    h_ode_check,
    sine_substitute,
    sine_substitute_combinatorial,
    theta_block,
    theta_block_from_lattice_sum,
)
from .kummer import (
    admissible,
    admissible_profiles,
    in_Pi3,
    is_affine_plane,
    kummer_member,
    orbit_counts_by_type,
    pairing,
    translation_orbits,
)
from .counting import (
    CountReport,
    CountSeries,
    f_gk,
    f_gk_via_potential,
    genus_total,
    gottsche_reconcile,
    min_arith_genus,
    shape_label,
    smooth_genus_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTooSmall",
    "DomainError",
    "HypcountError",
    "NonzeroConstantTerm",
    "ZeroConstantTerm",
    "Series",
    "odd_split_count",
    "sigma1",
    "sigma1_lemma_check",
    "NamedForm",
    "delta_inv_times_q",
    "legendre_series",
    "macmahon_A",
    "macmahon_A_direct",
    "macmahon_A_recursive",
    "macmahon_C",
    "macmahon_C_direct",
    "macmahon_C_recursive",
    "named_form",
    "pochhammer",
    "series_E",
    "series_E2",
    "theta2_fourth",
    "andrews_rose_G",
    "andrews_rose_H",
    "chebyshev",
    "h_ode_check",
    "sine_substitute",
    "sine_substitute_combinatorial",
    "theta_block",
    "theta_block_from_lattice_sum",
    "admissible",
    "admissible_profiles",
    "in_Pi3",
    "is_affine_plane",
    "kummer_member",
    "orbit_counts_by_type",
    "pairing",
    "translation_orbits",
    "CountReport",
    "CountSeries",
    "f_gk",
    "f_gk_via_potential",
    "genus_total",
    "gottsche_reconcile",
    "min_arith_genus",
    "shape_label",
    "smooth_genus_bound",
    "__version__",
]

"""Exact computation on matroid fans.

Matroids over small ground sets, their characteristic polynomials, the
weighted fans built from flags of flats, and two independent
intersection-theoretic recomputations of the reduced coefficients: a
divisor cup product and a displacement-rule degree pairing.  All
arithmetic is exact (int and Fraction); nothing here floats.
"""

from .charpoly import (
    FlatLattice,
    IntPolynomial,
    NonDivisibleError,
    char_poly,
    count_descending_flags,
    is_log_concave,
    mu_vector_flags,
    mu_vector_mobius,
    reduced_char_poly,
)
from .fan import (
    BalancingViolation,
    MinkowskiWeight,
    bergman_weight,
    check_balancing,
    cremona_flag,
    cremona_pullback_weight,
    fundamental_weight,
    incidence_vector,
    permutohedral_weight,
)
from .intersect import (
    DegenerateDisplacementError,
    DisplacementVector,
    NotBalancedError,
    PairingTerm,
    PLDivisor,
    alpha_divisor,
    cone_displacement_intersect,
    cremona_pullback_divisor,
    default_displacement,
    degree_pairing,
    divisor_cup,
    pairing_terms,
)
from .matroid import (
    BasesMatroid,
    Flat,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    UniformMatroid,
    validate_rank_table,
)
from .schema import InputError, load_matroid, load_matroid_file
from .validation import CheckResult, mu_vector_displacement, mu_vector_divisors, run_check

__version__ = "0.1.0"

__all__ = [
    "BalancingViolation",
    "BasesMatroid",
    "CheckResult",
    "DegenerateDisplacementError",
    "DisplacementVector",
    "Flat",
    "FlatLattice",
    "FreeMatroid",
    "GraphicMatroid",
    "InputError",
    "IntPolynomial",
    "LinearMatroid",
    "Matroid",
    "MinkowskiWeight",
    "NonDivisibleError",
    "NotBalancedError",
    "PLDivisor",
    "PairingTerm",
    "RankTableMatroid",
    "UniformMatroid",
    "alpha_divisor",
    "bergman_weight",
    "char_poly",
    "check_balancing",
    "cone_displacement_intersect",
    "count_descending_flags",
    "cremona_flag",
    "cremona_pullback_divisor",
    "cremona_pullback_weight",
    "default_displacement",
    "degree_pairing",
    "divisor_cup",
    "fundamental_weight",
    "incidence_vector",
    "is_log_concave",
    "load_matroid",
    "load_matroid_file",
    "mu_vector_displacement",
    "mu_vector_divisors",
    "mu_vector_flags",
    "mu_vector_mobius",
    "pairing_terms",
    "permutohedral_weight",
    "reduced_char_poly",
    "run_check",
    "validate_rank_table",
]

"""Exact computation on matroid fans.

Matroids over small ground sets, their characteristic polynomials, the
weighted fans built from flags of flats, and two independent
intersection-theoretic recomputations of the reduced coefficients: a
divisor cup product and a displacement-rule degree pairing.  All
arithmetic is exact (int and Fraction); nothing here floats.
"""

from .charpoly import (
    NonDivisibleError,
    char_poly,
    count_descending_flags,
    is_log_concave,
    reduced_char_poly,
)
from .fan import (
    MinkowskiWeight,
    bergman_weight,
    check_balancing,
    cremona_flag,
    cremona_pullback_weight,
    permutohedral_weight,
)
from .intersect import (
    DegenerateDisplacementError,
    NotBalancedError,
    PairingTerm,
    alpha,
    beta,
    cone_displacement_intersect,
    default_displacement,
    divisor_cup,
    pairing_terms,
)
from .matroid import (
    BasesMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    UniformMatroid,
    validate_rank_table,
)
from .schema import InputError, load_matroid, load_matroid_file
from .validation import CheckResult, cup_chain, mu_vector_displacement, run_check

__version__ = "0.1.0"

__all__ = [
    "BasesMatroid",
    "CheckResult",
    "DegenerateDisplacementError",
    "FreeMatroid",
    "GraphicMatroid",
    "InputError",
    "LinearMatroid",
    "Matroid",
    "MinkowskiWeight",
    "NonDivisibleError",
    "NotBalancedError",
    "PairingTerm",
    "RankTableMatroid",
    "UniformMatroid",
    "alpha",
    "bergman_weight",
    "beta",
    "char_poly",
    "check_balancing",
    "cone_displacement_intersect",
    "count_descending_flags",
    "cup_chain",
    "cremona_flag",
    "cremona_pullback_weight",
    "default_displacement",
    "divisor_cup",
    "is_log_concave",
    "load_matroid",
    "load_matroid_file",
    "mu_vector_displacement",
    "pairing_terms",
    "permutohedral_weight",
    "reduced_char_poly",
    "run_check",
    "validate_rank_table",
]

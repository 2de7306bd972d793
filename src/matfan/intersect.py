"""Exact intersection products on the fan: piecewise-linear divisors,
their cup products against Minkowski weights, and the displacement-rule
degree pairing.  Both give independent geometric routes to the reduced
characteristic-polynomial coefficients.

A divisor is stored by its value on each ray.  Cupping a divisor against
a codimension-k weight produces a codimension-(k+1) weight supported on
facets of the original support: on each facet the contribution is minus
the weighted divisor values of the inserted rays, corrected by the
divisor's value on the balanced ray-sum inside the facet's own span.
Flag cones are unimodular, so that ray-sum has integer coordinates in
the facet's generators and the cup is integer-only.

The degree pairing displaces one weight by a generic vector v and counts
transversal intersections of complementary-dimension cones with lattice
index multiplicities.  Genericity is certified, never assumed: any exact
tie (a zero coordinate, or a singular-but-consistent system) aborts the
sweep and the caller retries with a perturbed v.  Displacement
vectors and intersection points are Fractions; there are no tolerances
anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .fan import (
    Flag,
    MinkowskiWeight,
    bergman_weight,
    cremona_pullback_weight,
    facet_ray_sums,
    flag_generators,
    flag_span_coefficients,
    fundamental_weight,
    permutohedral_weight,
)
from .masks import full_mask
from .matroid import Matroid


class NotBalancedError(Exception):
    """A cup product met a ray-sum outside the facet's span."""

    def __init__(self, tau: Flag):
        super().__init__(f"weight is not balanced around {tau}")
        self.tau = tau


class DegenerateDisplacementError(Exception):
    """The displacement vector ties with a cone boundary; retry with a new one."""


@dataclass(frozen=True)
class PLDivisor:
    """Piecewise-linear divisor: an integer value on every ray.

    Rays are proper nonempty subsets of the ground set; missing entries
    read as zero, so sparse dicts define total functions.
    """

    n: int
    ray_values: dict[int, int]

    def __post_init__(self):
        top = full_mask(self.n + 1)
        for mask in self.ray_values:
            if mask <= 0 or mask >= top:
                raise ValueError(f"ray {bin(mask)} is not a proper nonempty subset")

    def value(self, mask: int) -> int:
        return self.ray_values.get(mask, 0)

    def __add__(self, other: "PLDivisor") -> "PLDivisor":
        if self.n != other.n:
            raise ValueError("divisors live on different fans")
        merged = dict(self.ray_values)
        for mask, value in other.ray_values.items():
            merged[mask] = merged.get(mask, 0) + value
        return PLDivisor(self.n, {m: v for m, v in merged.items() if v})

    def __neg__(self) -> "PLDivisor":
        return PLDivisor(self.n, {m: -v for m, v in self.ray_values.items()})

    def __sub__(self, other: "PLDivisor") -> "PLDivisor":
        return self + (-other)

    def to_json(self) -> dict:
        return {"rays": {str(mask): value for mask, value in sorted(self.ray_values.items())}}


def alpha_divisor(n: int) -> PLDivisor:
    """The divisor of min(0, x_1, ..., x_n): -1 on rays through 0, else 0.

    A ray's incidence vector has a -1 coordinate exactly when the subset
    contains element 0, and the minimum formula is linear on every flag
    cone with these ray values.
    """
    return PLDivisor(n, {mask: -1 for mask in range(1, full_mask(n + 1)) if mask & 1})


def cremona_pullback_divisor(d: PLDivisor) -> PLDivisor:
    """Precompose with negation: the value on a ray is the old value on
    the complementary ray."""
    top = full_mask(d.n + 1)
    return PLDivisor(d.n, {top ^ mask: v for mask, v in d.ray_values.items() if v})


def evaluate_in_cone(d: PLDivisor, flag: Flag, coefficients: Sequence) -> Fraction:
    """Value of the linear extension at sum coefficients[i] * ray_i."""
    if len(flag) != len(coefficients):
        raise ValueError("one coefficient per flag entry")
    return sum((Fraction(c) * d.value(mask) for c, mask in zip(coefficients, flag)),
               Fraction(0))


def divisor_cup(d: PLDivisor, weight: MinkowskiWeight) -> MinkowskiWeight:
    """Cup product: push a codim-k weight to codim k+1.

    The value on a facet tau is minus the weighted divisor values of the
    rays inserted by the supported cones above tau, plus the divisor's
    tau-linear value on the weighted ray-sum.  The ray-sum must lie in
    tau's span (that is the balancing condition); otherwise
    NotBalancedError identifies the offending facet.
    """
    n = weight.n
    if d.n != n:
        raise ValueError("divisor and weight live on different fans")
    if weight.codim >= n:
        raise ValueError("weight already has top codimension")
    out: dict[Flag, int] = {}
    for tau, above, total in facet_ray_sums(weight):
        coeffs = flag_span_coefficients(n, tau, total)
        if coeffs is None:
            raise NotBalancedError(tau)
        inserted = sum(d.value(removed) * w for removed, w in above)
        value = sum(c * d.value(mask) for c, mask in zip(coeffs, tau)) - inserted
        if value:
            out[tau] = value
    return MinkowskiWeight(n, weight.codim + 1, out)


def nef_values(d: PLDivisor) -> MinkowskiWeight:
    return divisor_cup(d, fundamental_weight(d.n))


def nef_check(d: PLDivisor) -> bool:
    """True when cupping against the fundamental weight is nonnegative
    on every one-smaller cone."""
    if d.n == 0:
        return True
    return all(v >= 0 for v in nef_values(d).weights.values())


# -- displacement-rule pairing ------------------------------------------


@dataclass
class DisplacementVector:
    """An exact rational displacement; certified is set after a full
    pairing sweep finishes with no degeneracy."""

    coords: tuple[Fraction, ...]
    certified: bool = field(default=False, compare=False)


def default_displacement(n: int) -> DisplacementVector:
    return DisplacementVector(tuple(Fraction(i) for i in range(1, n + 1)))


_PERTURB_DEN = 9973


def perturbed_displacement(n: int, rng: random.Random) -> DisplacementVector:
    """Strictly increasing positive vector i + t/9973 with random t."""
    coords = tuple(
        Fraction(i * _PERTURB_DEN + rng.randrange(1, _PERTURB_DEN), _PERTURB_DEN)
        for i in range(1, n + 1)
    )
    return DisplacementVector(coords)


@dataclass(frozen=True)
class PairingTerm:
    sigma: Flag
    tau: Flag
    point: tuple[Fraction, ...]
    index: int


def cone_displacement_intersect(
    n: int, sigma: Flag, tau: Flag, v: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], int]]:
    """Intersect sigma with (tau + v) for cones of complementary dimension.

    Returns (point, lattice index) for a transversal intersection, None
    for an empty one, and raises DegenerateDisplacementError whenever the
    answer would depend on a boundary tie: some barycentric coordinate is
    exactly zero, or the combined generators are singular yet the system
    is consistent.
    """
    if len(sigma) + len(tau) != n:
        raise ValueError("cone dimensions must sum to the ambient dimension")
    gens_s = flag_generators(n, sigma)
    gens_t = flag_generators(n, tau)
    scale = linalg.lcm_all([x.denominator for x in v]) if n else 1
    aug = [
        [g[i] for g in gens_s] + [-g[i] for g in gens_t] + [int(v[i] * scale)]
        for i in range(n)
    ]
    status, det, num, den = linalg.solve_square_int(aug)
    if status == linalg.SINGULAR_INCONSISTENT:
        return None
    if status == linalg.SINGULAR_CONSISTENT:
        raise DegenerateDisplacementError(
            f"displacement lies in the degenerate span of {sigma} and {tau}"
        )
    # Solution coordinates are num[i] / den; classify by sign alone.
    if any(c == 0 for c in num):
        raise DegenerateDisplacementError(f"boundary tie between {sigma} and {tau}")
    if den > 0:
        if any(c < 0 for c in num):
            # The affine intersection point sits outside at least one
            # cone; emptiness is stable under small perturbations.
            return None
    elif any(c > 0 for c in num):
        return None
    a = len(sigma)
    coeffs = [Fraction(c, den) for c in num[:a]]
    point = tuple(
        sum((coeffs[j] * gens_s[j][i] for j in range(a)), Fraction(0)) / scale
        for i in range(n)
    )
    return point, abs(det)


def _ray_sign_masks(n: int, flag: Flag) -> tuple[int, int]:
    """Bitmasks (over elements 1..n) of coordinates where some generator
    of the flag cone is positive, respectively negative.

    e_F is the 0/1 indicator of F when 0 is outside F, and 0/-1 on the
    complement of F when 0 is inside, so both masks come straight from
    the subset masks.
    """
    top = full_mask(n + 1)
    pos = 0
    neg = 0
    for mask in flag:
        if mask & 1:
            neg |= top ^ mask
        else:
            pos |= mask
    return pos, neg


def _pairing_sweep(
    w1: MinkowskiWeight,
    w2: MinkowskiWeight,
    v: DisplacementVector,
    collect: bool,
) -> tuple[int, list[PairingTerm]]:
    if w1.n != w2.n:
        raise ValueError("weights live on different fans")
    n = w1.n
    if w1.codim + w2.codim != n:
        raise ValueError("codimensions must sum to the ambient dimension")
    if len(v.coords) != n:
        raise ValueError(f"displacement vector needs {n} coordinates")
    # With a strictly positive displacement, a pair can only meet when
    # every coordinate has a positive direction available: some sigma ray
    # positive there, or some tau ray negative (its negation enters the
    # system).  Pairs failing that are empty outright, never degenerate,
    # so skipping them is exact.
    prefilter = all(c > 0 for c in v.coords)
    needed = full_mask(n + 1) ^ 1
    left = [(sigma, c1, _ray_sign_masks(n, sigma)[0]) for sigma, c1 in w1.items()]
    right = [(tau, c2, _ray_sign_masks(n, tau)[1]) for tau, c2 in w2.items()]
    total = 0
    terms: list[PairingTerm] = []
    for sigma, c1, pos in left:
        for tau, c2, neg in right:
            if prefilter and pos | neg != needed:
                continue
            hit = cone_displacement_intersect(n, sigma, tau, v.coords)
            if hit is None:
                continue
            point, index = hit
            total += index * c1 * c2
            if collect:
                terms.append(PairingTerm(sigma, tau, point, index))
    v.certified = True
    return total, terms


def degree_pairing(
    w1: MinkowskiWeight, w2: MinkowskiWeight, v: DisplacementVector
) -> int:
    """Displacement-rule product degree of two complementary weights.

    Sums lattice-index times the two weights over all transversally
    intersecting support pairs.  Completing the sweep without a
    DegenerateDisplacementError certifies v for this pair of supports.
    """
    total, _ = _pairing_sweep(w1, w2, v, collect=False)
    return total


def pairing_terms(
    w1: MinkowskiWeight, w2: MinkowskiWeight, v: DisplacementVector
) -> list[PairingTerm]:
    """The individual contributing terms of degree_pairing, for audit."""
    _, terms = _pairing_sweep(w1, w2, v, collect=True)
    return terms


def displacement_weights(matroid: Matroid, k: int) -> tuple[MinkowskiWeight, MinkowskiWeight]:
    """The two complementary weights whose pairing computes coefficient k:
    the (n-k)-step size-graded weight against the pulled-back fan of the
    k-truncation."""
    n = matroid.size - 1
    r = matroid.full_rank - 1
    if not 0 <= k <= r:
        raise ValueError(f"coefficient index {k} outside 0..{r}")
    w1 = permutohedral_weight(n, k)
    truncated = matroid.truncate(k) if k < r else matroid
    w2 = cremona_pullback_weight(bergman_weight(truncated))
    return w1, w2

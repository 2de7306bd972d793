"""Exact intersection products on the fan: piecewise-linear divisors,
their cup products against Minkowski weights, and the displacement-rule
degree pairing.  Both give independent geometric routes to the reduced
characteristic-polynomial coefficients, and both use only integer
arithmetic on flag cones.

A divisor is stored by its value on each ray.  Cupping a divisor against
a codimension-k weight produces a codimension-(k+1) weight supported on
facets of the original support: on each facet the contribution is minus
the weighted divisor values of the inserted rays, corrected by the
divisor's value on the balanced ray-sum inside the facet's own span.
Flag cones are unimodular, so that ray-sum has integer coordinates in
the facet's generators and the cup is integer-only.

The degree pairing displaces one weight by a generic vector v and counts
transversal intersections of complementary-dimension cones with lattice
index multiplicities.  Each pair is solved by one traversal of a graph
on the two flags' blocks (see cone_displacement_intersect): a pair meets
transversally exactly when that graph is a spanning tree, so every
index is 1.  Genericity is certified, never assumed: any exact tie (a
zero cone coefficient, or a singular-but-consistent system) aborts the
sweep and the caller retries with a perturbed v.  Displacement vectors
and intersection points are Fractions, scaled to integers for the
solve; there are no tolerances anywhere.
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
    flag_span_coefficients,
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


def _flag_blocks(n: int, flag: Flag) -> list[int]:
    """Block of each element 0..n: i for F_(i+1) minus F_i, and len(flag)
    for the complement of the last subset."""
    block = [len(flag)] * (n + 1)
    inside = 0
    for i, mask in enumerate(flag):
        new = mask & ~inside
        inside = mask
        while new:
            low = new & -new
            block[low.bit_length() - 1] = i
            new ^= low
    return block


def cone_displacement_intersect(
    n: int, sigma: Flag, tau: Flag, v: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], int]]:
    """Intersect sigma with (tau + v) for cones of complementary dimension.

    Returns (point, lattice index) for a transversal intersection, None
    for an empty one, and raises DegenerateDisplacementError whenever the
    answer would depend on a boundary tie: some cone coefficient is
    exactly zero, or the combined generators are singular yet the system
    is consistent.

    Lifted to {0..n} with v_0 = 0, a point of a flag cone is constant on
    the flag's blocks and each coefficient is the difference of adjacent
    block values.  So the system is one equation p[sigma(e)] - q[tau(e)]
    = v_e per element e, on potentials p of sigma's blocks and q of tau's:
    a graph with n + 2 block nodes and n + 1 element edges.  It is
    nonsingular exactly when that graph is connected, hence a tree, whose
    incidence matrix is totally unimodular: the index is then 1.
    """
    if len(sigma) + len(tau) != n:
        raise ValueError("cone dimensions must sum to the ambient dimension")
    scale = linalg.lcm_all([x.denominator for x in v])
    lifted = (0, *(x.numerator * (scale // x.denominator) for x in v))
    a = len(sigma)
    # Nodes 0..a are sigma's blocks and a+1..n+1 tau's, each in flag order.
    left = _flag_blocks(n, sigma)
    right = [a + 1 + block for block in _flag_blocks(n, tau)]
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n + 2)]
    for e in range(n + 1):
        adjacent[left[e]].append((right[e], -lifted[e]))
        adjacent[right[e]].append((left[e], lifted[e]))
    potential: list[Optional[int]] = [None] * (n + 2)
    components = 0
    for root in range(n + 2):
        if potential[root] is not None:
            continue
        components += 1
        potential[root] = 0
        stack = [root]
        while stack:
            node = stack.pop()
            for other, step in adjacent[node]:
                if potential[other] is None:
                    potential[other] = potential[node] + step
                    stack.append(other)
    if components > 1:
        if all(potential[left[e]] - potential[right[e]] == lifted[e] for e in range(n + 1)):
            raise DegenerateDisplacementError(
                f"displacement lies in the degenerate span of {sigma} and {tau}"
            )
        return None
    coeffs = [potential[i] - potential[i + 1] for i in range(n + 1) if i != a]
    if 0 in coeffs:
        raise DegenerateDisplacementError(f"boundary tie between {sigma} and {tau}")
    if any(c < 0 for c in coeffs):
        # The affine intersection point sits outside at least one cone;
        # emptiness is stable under small perturbations.
        return None
    origin = potential[left[0]]
    point = tuple(Fraction(potential[left[j]] - origin, scale) for j in range(1, n + 1))
    return point, 1


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


def pairing_terms(
    w1: MinkowskiWeight, w2: MinkowskiWeight, v: DisplacementVector
) -> list[PairingTerm]:
    """The transversally intersecting support pairs under displacement v.

    Completing the sweep without a DegenerateDisplacementError certifies
    v for this pair of supports.
    """
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
    left = [(sigma, _ray_sign_masks(n, sigma)[0]) for sigma in w1.weights]
    right = [(tau, _ray_sign_masks(n, tau)[1]) for tau in w2.weights]
    terms: list[PairingTerm] = []
    for sigma, pos in left:
        for tau, neg in right:
            if prefilter and pos | neg != needed:
                continue
            hit = cone_displacement_intersect(n, sigma, tau, v.coords)
            if hit is not None:
                terms.append(PairingTerm(sigma, tau, *hit))
    v.certified = True
    return terms


def terms_degree(w1: MinkowskiWeight, w2: MinkowskiWeight, terms: list[PairingTerm]) -> int:
    """Displacement-rule degree: lattice index times both weights, summed."""
    return sum(t.index * w1.value(t.sigma) * w2.value(t.tau) for t in terms)


def degree_pairing(
    w1: MinkowskiWeight, w2: MinkowskiWeight, v: DisplacementVector
) -> int:
    """Displacement-rule product degree of two complementary weights."""
    return terms_degree(w1, w2, pairing_terms(w1, w2, v))


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

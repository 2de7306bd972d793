"""Exact intersection products on the fan: piecewise-linear divisors,
their cup products against Minkowski weights, and the displacement-rule
degree pairing.  Both give independent geometric routes to the reduced
characteristic-polynomial coefficients, and both use only integer
arithmetic on flag cones.

A divisor is a rule: its value on the ray of each proper nonempty
subset, read from the subset's mask.  Cupping a divisor against
a codimension-k weight produces a codimension-(k+1) weight supported on
facets of the original support.  As Allermann and Rau define it, the
value on a facet comes from its star: minus the weighted divisor values
of the inserted rays, corrected by the divisor's value on their balanced
ray-sum inside the facet's own span.  On a flag cone the star splits
over the gaps of the facet's flag (see fan.facet_groups), and so does
the correction, read off the divisor's values at each gap's two ends:
the cup is integer-only and solves nothing.

The degree pairing displaces one weight by a generic vector v and counts
transversal intersections of complementary-dimension cones with lattice
index multiplicities.  The first weight is the permutohedral weight,
given by rule, and is never enumerated; v has positive, pairwise
distinct coordinates; pairing_terms refuses anything else.  Each cone
tau of the second weight has one candidate way to meet its blocks once,
their v-least elements, which names the one sigma that can meet tau + v.
Each hit meets transversally, and cone_displacement_intersect reads its
point off one traversal of a graph on the two flags' blocks, a spanning
tree, so every index is 1 and so is the first weight: a term counts the
weight of its tau alone.  Genericity is certified, never assumed: any
exact tie that a sweep over every pair would meet (a zero coefficient,
read off v's differences within tau's blocks) aborts the pairing.  So v
is certified for two weights exactly when pairing_terms returns, which
default_displacement's powers of two always do.
A displacement vector is a plain tuple of exact numbers, ints by
default, and a point is computed in the vector's own numbers; there are
no tolerances anywhere.
"""

from __future__ import annotations

from itertools import accumulate
from numbers import Rational
from typing import Callable, NamedTuple, Optional, Sequence

from .fan import (
    Flag,
    MinkowskiWeight,
    SizeGradedFlags,
    bergman_weight,
    cremona_pullback_weight,
    facet_groups,
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
    """The displacement vector ties with a cone boundary."""


def alpha(mask: int) -> int:
    """The divisor of min(0, x_1, ..., x_n) on the ray of a proper
    nonempty subset: -1 when the subset contains element 0, else 0."""
    return -(mask & 1)


def beta(mask: int) -> int:
    """alpha pulled back along negation, x -> -x: alpha's value on the
    complementary ray, so -1 when the subset misses element 0, else 0."""
    return (mask & 1) - 1


def divisor_cup(d: Callable[[int], int], weight: MinkowskiWeight) -> MinkowskiWeight:
    """Cup product of the divisor with ray values d(mask), for proper
    nonempty masks, against a codim-k weight: a codim-(k+1) weight.

    The value on a facet tau adds one term per gap of tau that the
    supported cones above it fill (see facet_groups): with W the gap's
    total weight and c its level on the block between low and high,
    (W - c) d(low) + c d(high) minus the weighted values of the inserted
    rays.  A gap end that is the empty set or the whole ground set is no
    ray, so its term is 0 and d is never called on it.
    A gap with no level is a balancing failure: after the sweep,
    NotBalancedError names the least such facet.
    """
    n = weight.n
    if weight.codim >= n:
        raise ValueError("weight already has top codimension")
    top = full_mask(n + 1)
    out: dict[Flag, int] = {}
    bad = []
    for tau, low, high, above, level in facet_groups(weight):
        if level is None:
            bad.append(tau)
            continue
        value = -sum(d(s) * w for s, w in above)
        if low:
            value += (sum(w for _, w in above) - level) * d(low)
        if high != top:
            value += level * d(high)
        out[tau] = out.get(tau, 0) + value
    if bad:
        raise NotBalancedError(min(bad))
    return MinkowskiWeight(n, weight.codim + 1, out)


# -- displacement-rule pairing ------------------------------------------


def default_displacement(n: int) -> tuple[int, ...]:
    """(2^(n-1), ..., 4, 2, 1): generic for every pair pairing_terms
    accepts, whatever the second weight.  The terms' Cremona images are
    then the chains of flats whose least elements under 0 < n < ... < 1
    decrease: as many at each level as count_descending_flags counts
    under 0 < 1 < ... < n, but another set (Björner 1980).

    The one tie pairing_terms can meet is u_x = u_y, with u_x = v_x -
    v_r for x outside the transversal R and r in it (see pairing_terms).
    Lifted by v_0 = 0, the values 0, 1, 2, 4, ... form a Sidon set: a sum
    of two distinct ones names its pair.  So v_x + v_s = v_y + v_r gives
    {x, s} = {y, r}, and as x is not in R, x = y: no two u's are equal.
    pairing_terms still tests for the tie, so genericity is certified on
    every call.
    """
    return tuple(1 << i for i in reversed(range(n)))


class PairingTerm(NamedTuple):
    sigma: Flag
    tau: Flag
    point: tuple[Rational, ...]


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
    n: int, sigma: Flag, tau: Flag, v: Sequence[Rational]
) -> tuple[Rational, ...]:
    """The point where sigma meets (tau + v), for cones of complementary
    dimension that meet transversally, as every pair that pairing_terms
    locates does; any other pair raises ValueError.

    Lifted to {0..n} with v_0 = 0, a point of a flag cone is constant on
    the flag's blocks and each coefficient is the difference of adjacent
    block values.  So the system is one equation p[sigma(e)] - q[tau(e)]
    = v_e per element e, on potentials p of sigma's blocks and q of tau's:
    a graph with n + 2 block nodes and n + 1 element edges.  It is
    nonsingular exactly when that graph is connected, hence a tree, whose
    incidence matrix is totally unimodular: the index is then 1, and the
    pair meets when every coefficient is positive.  The point is computed
    in v's own numbers.
    """
    if len(sigma) + len(tau) != n:
        raise ValueError("cone dimensions must sum to the ambient dimension")
    lifted = (0, *v)
    a = len(sigma)
    # Nodes 0..a are sigma's blocks and a+1..n+1 tau's, each in flag order.
    left = _flag_blocks(n, sigma)
    right = [a + 1 + block for block in _flag_blocks(n, tau)]
    adjacent: list[list[tuple[int, Rational]]] = [[] for _ in range(n + 2)]
    for e in range(n + 1):
        adjacent[left[e]].append((right[e], -lifted[e]))
        adjacent[right[e]].append((left[e], lifted[e]))
    potential: list[Optional[Rational]] = [None] * (n + 2)
    potential[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for other, step in adjacent[node]:
            if potential[other] is None:
                potential[other] = potential[node] + step
                stack.append(other)
    # Coefficient i is potential[i] - potential[i + 1], for i != a.
    if None in potential or any(
        potential[i] <= potential[i + 1] for i in range(n + 1) if i != a
    ):
        raise ValueError(f"{sigma} and {tau} + v do not meet transversally")
    origin = potential[left[0]]
    return tuple(potential[left[j]] - origin for j in range(1, n + 1))


def pairing_terms(
    w1: MinkowskiWeight, w2: MinkowskiWeight, v: Sequence[Rational]
) -> list[PairingTerm]:
    """The transversally intersecting support pairs under displacement v,
    ordered by sigma and then by tau.

    w1 must be a permutohedral_weight and v must have positive, pairwise
    distinct coordinates, as default_displacement does; anything else
    raises ValueError.  A sigma of w1 is n-k singleton blocks above a
    (k+1)-element bottom block R, so its graph against tau (see
    cone_displacement_intersect) is a tree exactly when R meets each of
    tau's blocks T_0..T_k once, say in r_j; with v lifted by v_0 = 0 and
    u_x = v_x - v_(r_j) for the other x in T_j, sigma then orders those
    singletons by decreasing u.  A hit needs v increasing along R and
    every u positive, so each tau names one candidate R, its v-least
    elements, and w1 is never enumerated.  Each hit meets transversally;
    cone_displacement_intersect gives its point in v's own numbers.

    Returning, rather than raising DegenerateDisplacementError, certifies
    v for this pair of supports; no argument is modified.  The verdict is
    that of a sweep over every pair of sigma in w1 and tau in w2,
    skipping unsolved the pairs where some coordinate has neither a
    positive sigma ray nor a negative tau ray: R must lie in 0 and the
    blocks after 0's, so 0 must be in T_0.  Its one tie is two equal u's
    on any such R, hit or not.  They lie in two blocks, v being
    distinct, so some R ties exactly when a difference v_x - v_r, x != r
    in one block (r = 0 in T_0), recurs in another.
    """
    if w1.n != w2.n:
        raise ValueError("weights live on different fans")
    n = w1.n
    k = w1.codim
    if k + w2.codim != n:
        raise ValueError("codimensions must sum to the ambient dimension")
    if len(v) != n:
        raise ValueError(f"displacement vector needs {n} coordinates")
    if not isinstance(w1.weights, SizeGradedFlags):
        raise ValueError("w1 must be a permutohedral_weight")
    if min(v, default=1) <= 0 or len(set(v)) < n:
        raise ValueError("displacement vector needs positive, pairwise distinct coordinates")
    lifted = (0, *v)
    found: list[PairingTerm] = []
    for tau in w2.weights:
        block_of = _flag_blocks(n, tau)
        if block_of[0]:
            continue
        blocks: list[list[int]] = [[] for _ in range(k + 1)]
        for e in range(n + 1):
            blocks[block_of[e]].append(e)
        # The tree's coefficients are v(r_(j+1)) - v(r_j) on tau, and on
        # sigma the steps between the u's in order and from the last to 0:
        # two equal u's are a zero coefficient under some swept order.
        owner: dict[Rational, int] = {}
        for j, block in enumerate(blocks):
            for r in block if j else (0,):
                for x in block:
                    if x != r and owner.setdefault(lifted[x] - lifted[r], j) != j:
                        raise DegenerateDisplacementError(f"boundary tie on {tau}")
        bottom = [min(block, key=lifted.__getitem__) for block in blocks]
        ends = [lifted[r] for r in bottom]
        if any(a > b for a, b in zip(ends, ends[1:])):
            continue
        u = {x: lifted[x] - ends[block_of[x]] for x in range(n + 1) if x not in bottom}
        order = sorted(u, key=u.__getitem__, reverse=True)
        sigma = tuple(accumulate(1 << x for x in order))
        found.append(PairingTerm(sigma, tau, cone_displacement_intersect(n, sigma, tau, v)))
    found.sort(key=lambda term: (term.sigma, term.tau))
    return found


def displacement_weights(matroid: Matroid, k: int) -> tuple[MinkowskiWeight, MinkowskiWeight]:
    """The two complementary weights whose pairing computes coefficient k:
    the (n-k)-step size-graded weight against the pulled-back fan of the
    k-truncation.  bergman_weight refuses a k outside 0..full rank - 1."""
    w2 = cremona_pullback_weight(bergman_weight(matroid, k))
    return permutohedral_weight(matroid.size - 1, k), w2

"""Flag cones in the fine subdivision of projective tropical space, and
integer Minkowski weights on them.

For a ground set {0, ..., n} the ambient lattice is Z^(n+1) modulo the
all-ones vector, coordinatized so elements 1..n map to the standard basis
of Z^n and element 0 maps to (-1, ..., -1).  The incidence vector of a
subset is the sum of its elements' images; complementary subsets have
opposite incidence vectors.

A cone is recorded as the strictly increasing chain (flag) of proper
nonempty subsets whose incidence vectors span it; chains of this shape
index exactly the cones of the fan and keep everything hashable and
exact.  A Minkowski weight of codimension k assigns an integer to every
(n-k)-dimensional cone, zero almost everywhere, subject to the balancing
condition around each one-smaller cone.

Every Bergman weight is built by bergman_weight from
Matroid.flat_strata.  The permutohedral weight (the fan of a truncated
free matroid) is given by rule instead: SizeGradedFlags tests membership
from the flag's shape and stores nothing, so its (n+1)!/(k+1)! cones
exist only when a caller iterates them.  There are no caches: flags are
checked and summed as bitmasks, and every weight is built afresh for the
caller that asked for it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import accumulate, permutations
from typing import Iterator, NamedTuple, Optional, Sequence

from .masks import complement, full_mask, iter_elements
from .matroid import Matroid

Flag = tuple[int, ...]


def incidence_vector(n: int, mask: int) -> tuple[int, ...]:
    """Image of a proper nonempty subset of {0..n} in Z^n coordinates."""
    if n < 0 or mask <= 0 or mask >= full_mask(n + 1):
        raise ValueError(f"mask {bin(mask)} is not a proper nonempty subset of a {n + 1}-set")
    if mask & 1:
        return tuple(0 if mask >> j & 1 else -1 for j in range(1, n + 1))
    return tuple(1 if mask >> j & 1 else 0 for j in range(1, n + 1))


def validate_flag(n: int, flag: Flag) -> None:
    top = full_mask(max(n + 1, 0))  # 0 when n < 0: no mask is proper then
    prev = 0
    for mask in flag:
        if not 0 < mask < top:
            raise ValueError(f"mask {bin(mask)} is not a proper nonempty subset of a {n + 1}-set")
        if prev and not (prev & ~mask == 0 and prev != mask):
            raise ValueError(f"flag {flag} is not strictly increasing")
        prev = mask


def flag_facets(flag: Flag) -> Iterator[tuple[Flag, int]]:
    """All (facet, removed subset) pairs; faces of a flag cone are subflags."""
    for i in range(len(flag)):
        yield flag[:i] + flag[i + 1:], flag[i]


class Frozen:
    """Base of immutable slotted records; equality and repr read the slots."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, s) for s in self.__slots__]
                == [getattr(other, s) for s in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SizeGradedFlags(Mapping, Frozen):
    """Read-only weight table with value 1 on every flag of subsets of
    sizes 1, 2, ..., n-k of {0..n}, and on nothing else.

    Membership is tested from the flag's shape; iteration is lazy and in
    sorted order, because the prefix unions of ordered tuples of distinct
    elements come out sorted when the tuples do.  Equality is Mapping's.
    """

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __getitem__(self, flag) -> int:
        if isinstance(flag, tuple) and len(flag) == self.n - self.k:
            top = full_mask(self.n + 1)
            prev = 0
            for mask in flag:
                # Each subset must add exactly one element of {0..n}.
                new = mask ^ prev if isinstance(mask, int) else 0
                if not (0 < new < top and new & (new - 1) == 0 and mask & prev == prev):
                    break
                prev = mask
            else:
                return 1
        raise KeyError(flag)

    def __len__(self) -> int:
        return math.factorial(self.n + 1) // math.factorial(self.k + 1)

    def __iter__(self) -> Iterator[Flag]:
        return (
            tuple(accumulate(1 << x for x in order))
            for order in permutations(range(self.n + 1), self.n - self.k)
        )


class MinkowskiWeight(Frozen):
    """Integer weight on the codimension-k cones; zero values are dropped.

    A SizeGradedFlags table is kept as it is: it holds valid flags by
    construction and no zeros.
    """

    __slots__ = ("n", "codim", "weights")

    def __init__(self, n: int, codim: int, weights: Mapping[Flag, int]):
        if not 0 <= codim <= n:
            raise ValueError(f"codimension {codim} outside 0..{n}")
        if isinstance(weights, SizeGradedFlags):
            if (weights.n, weights.k) != (n, codim):
                raise ValueError(f"{weights} does not fit n={n}, codim={codim}")
        else:
            dim = n - codim
            cleaned = {}
            for flag in sorted(weights):
                value = weights[flag]
                if value == 0:
                    continue
                if len(flag) != dim:
                    raise ValueError(f"flag {flag} has length {len(flag)}, expected {dim}")
                validate_flag(n, flag)
                cleaned[flag] = value
            weights = cleaned
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "weights", weights)

    def value(self, flag: Flag) -> int:
        return self.weights.get(tuple(flag), 0)

    def support(self) -> list[Flag]:
        return list(self.weights)

    def items(self):
        return self.weights.items()

    def __add__(self, other: "MinkowskiWeight") -> "MinkowskiWeight":
        if (self.n, self.codim) != (other.n, other.codim):
            raise ValueError("weights live on different cone sets")
        merged = dict(self.weights)
        for flag, value in other.weights.items():
            merged[flag] = merged.get(flag, 0) + value
        return MinkowskiWeight(self.n, self.codim, merged)

    def __repr__(self) -> str:
        return f"MinkowskiWeight(n={self.n}, codim={self.codim}, cones={len(self.weights)})"


def bergman_weight(matroid: Matroid) -> MinkowskiWeight:
    """Weight 1 on the cones of complete flags of proper flats.

    The matroid must be loopless; for the geometry to mean anything it
    should be simple (simplify first), though any loopless input yields a
    balanced weight.  The codimension is n minus (full rank - 1).
    """
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; simplify before building the fan")
    n = matroid.size - 1
    strata, covered_by = matroid.flat_strata()
    r = len(strata) - 2
    top = strata[-1][0]
    covers_up: dict[int, list[int]] = {f: [] for level in strata for f in level}
    for g, parents in covered_by.items():
        for f in parents:
            covers_up[f].append(g)

    weights: dict[Flag, int] = {}

    def extend(chain: tuple[int, ...], f: int, depth: int) -> None:
        if depth == r:
            weights[chain] = 1
            return
        for g in covers_up[f]:
            if g != top:
                extend(chain + (g,), g, depth + 1)

    extend((), strata[0][0], 0)
    return MinkowskiWeight(n, n - r, weights)


# Never filled: perfbench/layertrace.py reads it to count cache hits.
_perm_cache: dict[tuple[int, int], MinkowskiWeight] = {}


def permutohedral_weight(n: int, k: int) -> MinkowskiWeight:
    """Weight 1 on every flag of subsets of sizes 1, 2, ..., n-k, by rule.

    This is the fan of the (n-k)-truncated free matroid on {0..n}; for
    k = 0 it is the fundamental weight of the complete fan.
    """
    if not 0 <= k <= n:
        raise ValueError(f"codimension {k} outside 0..{n}")
    return MinkowskiWeight(n, k, SizeGradedFlags(n, k))


def fundamental_weight(n: int) -> MinkowskiWeight:
    return permutohedral_weight(n, 0)


def cremona_flag(n: int, flag: Flag) -> Flag:
    """Complement every subset and reverse; negation of the cone."""
    size = n + 1
    return tuple(complement(mask, size) for mask in reversed(flag))


def cremona_pullback_weight(weight: MinkowskiWeight) -> MinkowskiWeight:
    """Pull back along the involution that negates the ambient lattice.

    Cones map to their negatives, i.e. flags to reversed complement
    flags; values are carried along.  Applying this twice is the
    identity, and balancing is preserved.
    """
    n = weight.n
    return MinkowskiWeight(
        n, weight.codim,
        {cremona_flag(n, flag): value for flag, value in weight.items()},
    )


def flag_span_coefficients(n: int, flag: Flag, target: Sequence[int]) -> Optional[list[int]]:
    """Integer coefficients of target in the span of the flag's incidence
    vectors, or None when target lies outside that span.

    Lifted to {0..n} with coordinate 0 set to 0, the span is exactly the
    vectors constant on each block F1, F2 minus F1, ..., complement of
    Fk; the coefficient of F_i is the value on block i minus the value on
    block i+1.  Flag cones are unimodular, so no division is needed.
    """
    lifted = (0, *target)
    levels = []
    inside = 0
    for mask in (*flag, full_mask(n + 1)):
        block = mask & ~inside
        inside = mask
        low = block & -block
        level = lifted[low.bit_length() - 1]
        block ^= low
        while block:
            low = block & -block
            if lifted[low.bit_length() - 1] != level:
                return None
            block ^= low
        levels.append(level)
    return [a - b for a, b in zip(levels, levels[1:])]


def facet_ray_sums(
    weight: MinkowskiWeight,
) -> Iterator[tuple[Flag, list[tuple[int, int]], list[int]]]:
    """Yield (tau, above, ray_sum) for every facet tau of a supported cone,
    in sorted order.

    above lists (inserted subset, weight value) for the supported cones
    containing tau; ray_sum is the weighted sum of the inserted subsets'
    incidence vectors.
    """
    n = weight.n
    facet_map: dict[Flag, list[tuple[int, int]]] = {}
    for flag, value in weight.items():
        for tau, removed in flag_facets(flag):
            facet_map.setdefault(tau, []).append((removed, value))
    for tau in sorted(facet_map):
        above = facet_map[tau]
        # Coordinate j of a subset's incidence vector is [j in S] - [0 in S],
        # so sum the values per element over {0..n} and subtract element 0's.
        lifted = [0] * (n + 1)
        for removed, value in above:
            for e in iter_elements(removed):
                lifted[e] += value
        yield tau, above, [x - lifted[0] for x in lifted[1:]]


class BalancingViolation(NamedTuple):
    tau: Flag
    excess: tuple[int, ...]


def check_balancing(weight: MinkowskiWeight) -> list[BalancingViolation]:
    """Check the balancing condition around every one-smaller cone.

    For each facet tau of a supported cone, the weighted sum of the
    inserted subsets' incidence vectors must land in the span of tau's
    generators (the lattice normal to tau must see zero).  Returns the
    list of violations; balanced weights return [].
    """
    return [
        BalancingViolation(tau, tuple(total))
        for tau, _, total in facet_ray_sums(weight)
        if flag_span_coefficients(weight.n, tau, total) is None
    ]


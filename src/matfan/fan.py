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

One facet sweep, facet_groups, serves the balancing test here and the
divisor cup in intersect: it reads one block per gap of each facet's
flag and solves nothing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import accumulate, permutations
from typing import Iterator, NamedTuple, Optional

from .masks import complement, full_mask, iter_elements
from .matroid import Matroid

Flag = tuple[int, ...]


def validate_flag(n: int, flag: Flag) -> None:
    top = full_mask(max(n + 1, 0))  # 0 when n < 0: no mask is proper then
    prev = 0
    for mask in flag:
        if not 0 < mask < top:
            raise ValueError(f"mask {bin(mask)} is not a proper nonempty subset of a {n + 1}-set")
        if prev and not (prev & ~mask == 0 and prev != mask):
            raise ValueError(f"flag {flag} is not strictly increasing")
        prev = mask


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

    def items(self):
        return self.weights.items()

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
    weights: dict[Flag, int] = {}

    # Down from the top, a chain of r proper flats ends at rank 1: the
    # bottom is only ever below its last flat, never in it.
    def extend(chain: Flag, g: int) -> None:
        if len(chain) == r:
            weights[chain] = 1
            return
        for f in covered_by[g]:
            extend((f,) + chain, f)

    extend((), strata[-1][0])
    return MinkowskiWeight(n, n - r, weights)


# Never filled: perfbench/layertrace.py reads it to count cache hits.
_perm_cache: dict[tuple[int, int], MinkowskiWeight] = {}


def permutohedral_weight(n: int, k: int) -> MinkowskiWeight:
    """Weight 1 on every flag of subsets of sizes 1, 2, ..., n-k, by rule.

    This is the fan of the (n-k)-truncated free matroid on {0..n}; for
    k = 0 it is the fundamental weight of the complete fan.
    """
    return MinkowskiWeight(n, k, SizeGradedFlags(n, k))


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


def facet_groups(
    weight: MinkowskiWeight,
) -> Iterator[tuple[Flag, int, int, list[tuple[int, int]], Optional[int]]]:
    """Yield (tau, low, high, above, level) per facet tau of a supported
    cone and per gap of tau that such cones fill.

    The gap lies between low = tau[i-1] (0 when i = 0) and high = tau[i]
    (the full mask at the end); above lists (S, value) for the cones that
    insert S there.  Lifted to {0..n}, their incidence vectors add their
    total value on low, the sum of value * [e in S] on the block high
    minus low, and 0 beyond: a constant on every block of tau but this
    one.  level is that sum when it is constant on the block, else None,
    so tau's ray-sum lies in its span exactly when each gap has a level.
    """
    top = full_mask(weight.n + 1)
    for i in range(weight.n - weight.codim):
        groups: dict[Flag, list[tuple[int, int]]] = {}
        for flag, value in weight.items():
            groups.setdefault(flag[:i] + flag[i + 1:], []).append((flag[i], value))
        for tau, above in groups.items():
            low = tau[i - 1] if i else 0
            high = tau[i] if i < len(tau) else top
            sums = {sum(v for s, v in above if s >> e & 1) for e in iter_elements(high & ~low)}
            yield tau, low, high, above, sums.pop() if len(sums) == 1 else None


class BalancingViolation(NamedTuple):
    tau: Flag
    excess: tuple[int, ...]


def check_balancing(weight: MinkowskiWeight) -> list[BalancingViolation]:
    """Check the balancing condition around every one-smaller cone.

    For each facet tau of a supported cone, the weighted sum of the
    inserted subsets' incidence vectors must land in the span of tau's
    generators: by facet_groups, each gap of tau must have a level.
    Returns the violations in sorted order, with that sum as the excess;
    balanced weights return [].
    """
    bad = {tau for tau, _, _, _, level in facet_groups(weight) if level is None}
    if not bad:
        return []
    # Only the unbalanced facets get their ray-sums, in a second pass.
    lifted = {tau: [0] * (weight.n + 1) for tau in bad}
    for flag, value in weight.items():
        for i in range(len(flag)):
            total = lifted.get(flag[:i] + flag[i + 1:])
            if total is not None:
                for e in iter_elements(flag[i]):
                    total[e] += value
    # Coordinate j of a subset's incidence vector is [j in S] - [0 in S].
    return [
        BalancingViolation(tau, tuple(x - lifted[tau][0] for x in lifted[tau][1:]))
        for tau in sorted(bad)
    ]

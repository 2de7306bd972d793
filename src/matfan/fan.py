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

Every Bergman weight, a truncation's included, is read by bergman_weight
off the matroid's own Matroid.flat_strata.  The permutohedral weight (the
fan of a truncated free matroid) is given by rule instead: SizeGradedFlags
tests membership from the flag's shape and stores nothing, so its
(n+1)!/(k+1)! cones exist only when a caller iterates them.  There are
no caches: flags are checked and summed as bitmasks, and every weight is
built afresh, in its builder's order; only the `fan` export sorts flags.

One facet sweep, facet_groups, serves the balancing test here and the
divisor cup in intersect: it reads one block per gap of each facet's
flag and solves nothing.  check_balancing makes one pass of it and
returns the unbalanced facets.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import accumulate, permutations
from typing import Iterator, Optional

from .masks import full_mask, iter_elements
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
        # validate_flag tests range and nesting; the shape rule is that
        # mask i of the flag has i elements.
        if (isinstance(flag, tuple) and len(flag) == self.n - self.k
                and all(isinstance(mask, int) and mask.bit_count() == i
                        for i, mask in enumerate(flag, 1))):
            try:
                validate_flag(self.n, flag)
                return 1
            except ValueError:
                pass
        raise KeyError(flag)

    def __len__(self) -> int:
        return math.factorial(self.n + 1) // math.factorial(self.k + 1)

    def __iter__(self) -> Iterator[Flag]:
        return (
            tuple(accumulate(1 << x for x in order))
            for order in permutations(range(self.n + 1), self.n - self.k)
        )


class MinkowskiWeight(Frozen):
    """Integer weight on the codimension-k cones, in its builder's order;
    zero values are dropped.  A SizeGradedFlags table is kept as it is:
    it holds valid flags by construction and no zeros.
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
            for flag, value in weights.items():
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

    def __repr__(self) -> str:
        return f"MinkowskiWeight(n={self.n}, codim={self.codim}, cones={self.weights.__len__()})"


def bergman_weight(matroid: Matroid, k: Optional[int] = None) -> MinkowskiWeight:
    """Weight 1 on the flags of proper flats of ranks 1..k: the fan of the
    k-truncation, whose flats below the top are the matroid's own.  k
    defaults to full rank - 1, the complete flags; the codimension is n - k.

    The matroid must be loopless; for the geometry to mean anything it
    should be simple (simplify first), though any loopless input yields a
    balanced weight.
    """
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; simplify before building the fan")
    n = matroid.size - 1
    strata, covered_by = matroid.flat_strata()
    r = len(strata) - 2
    k = r if k is None else k
    if not 0 <= k <= r:
        raise ValueError(f"truncation level {k} outside 0..{r}")
    weights: dict[Flag, int] = {}

    # Down from each rank-k flat, a chain of k flats ends at rank 1: the
    # bottom is only ever below its last flat, never in it.  Covers are
    # pushed reversed, so the flags come out in the lattice's order.
    stack = [((), strata[k])]
    while stack:
        chain, below = stack.pop()
        if len(chain) == k:
            weights[chain] = 1
        else:
            stack.extend(((f,) + chain, covered_by[f]) for f in reversed(below))
    return MinkowskiWeight(n, n - k, weights)


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
    top = full_mask(n + 1)
    return tuple(top & ~mask for mask in reversed(flag))


def cremona_pullback_weight(weight: MinkowskiWeight) -> MinkowskiWeight:
    """Pull back along the involution that negates the ambient lattice.

    Cones map to their negatives, i.e. flags to reversed complement
    flags; values are carried along.  Applying this twice is the
    identity, and balancing is preserved.
    """
    n = weight.n
    return MinkowskiWeight(
        n, weight.codim,
        {cremona_flag(n, flag): value for flag, value in weight.weights.items()},
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
        for flag, value in weight.weights.items():
            groups.setdefault(flag[:i] + flag[i + 1:], []).append((flag[i], value))
        for tau, above in groups.items():
            low = tau[i - 1] if i else 0
            high = tau[i] if i < len(tau) else top
            sums = {sum(v for s, v in above if s >> e & 1) for e in iter_elements(high & ~low)}
            yield tau, low, high, above, sums.pop() if len(sums) == 1 else None


def check_balancing(weight: MinkowskiWeight) -> list[Flag]:
    """The facets around which the weight is not balanced, sorted; []
    when it is balanced.

    For each facet tau of a supported cone, the weighted sum of the
    inserted subsets' incidence vectors must land in the span of tau's
    generators: by facet_groups, each gap of tau must have a level.
    """
    return sorted({tau for tau, _, _, _, level in facet_groups(weight) if level is None})

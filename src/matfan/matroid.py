"""Matroids on a ground set {0, ..., n} with exact rank oracles.

A matroid is its rank function.  Concrete backends cover the standard
constructions: uniform and free matroids, column matroids of exact
matrices over GF(p) or the rationals (a multigraph's is its incidence
matrix over GF(2)), explicit basis lists, and explicit rank tables.
Derived wrappers implement free coextension and relabelling lazily,
without materializing tables; a truncation needs no wrapper, since
fan.bergman_weight reads its fan off the matroid's own flats.
The backends trust their input; validate_rank_table checks an explicit
table (or a basis list's table) against the rank axioms exactly.

Only the backends whose rank computation does real work memoize rank
values, one dict per instance: linear (graphs among them) and relabelled.
A rank table keeps no memo, since its rank is one list index and a memo
would only copy the table; a basis list is a rank table, built once by its
constructor.  Uniform and free matroids keep no memo, and neither does the
free coextension, which adjusts one call to its base's rank, so it reads
the memo of the backend underneath.  A relabelling (simplify's result)
keeps its own memo and computes its misses through its input's rank
computation, not its input's memo: each of its masks names one input mask,
so that memo would hold a second copy.  Instances are immutable after
construction and a memo dict is only written under CPython's GIL, so
concurrent readers are safe.  All arithmetic is exact.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import linalg
from .masks import (
    MAX_GROUND_SIZE,
    check_mask,
    elements_of,
    full_mask,
    iter_subsets,
    mask_of,
)


class Matroid:
    """Abstract base: subclasses implement ``_rank_impl`` on valid masks.

    Subclasses whose ``_rank_impl`` is constant work or one call to another
    matroid's rank set ``_memoize_rank`` to False.
    """

    _memoize_rank = True

    def __init__(self, size: int, name: str | None = None):
        if not 1 <= size <= MAX_GROUND_SIZE:
            raise ValueError(f"ground-set size {size} out of range 1..{MAX_GROUND_SIZE}")
        self.size = size
        self.name = name if name is not None else type(self).__name__
        self._rank_cache: Optional[dict[int, int]] = {} if self._memoize_rank else None
        self._strata_cache: Optional[tuple[list[list[int]], dict[int, list[int]]]] = None

    def _rank_impl(self, mask: int) -> int:
        raise NotImplementedError

    # -- rank oracle -------------------------------------------------

    def rank(self, mask: int) -> int:
        memo = self._rank_cache
        if memo is not None:
            r = memo.get(mask)
            if r is not None:
                # Memoized masks were checked when they were stored.
                return r
        # mask >> size is nonzero exactly for the masks check_mask rejects:
        # negative ones and those with bits outside the ground set.
        if mask >> self.size:
            check_mask(mask, self.size)
        r = self._rank_impl(mask)
        if memo is not None:
            memo[mask] = r
        return r

    @property
    def ground_mask(self) -> int:
        return full_mask(self.size)

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground_mask)

    # -- closure and flats --------------------------------------------

    def closure(self, mask: int) -> int:
        """Smallest flat containing mask: add every element that keeps rank."""
        r = self.rank(mask)
        out = mask
        for x in range(self.size):
            b = 1 << x
            if not out & b and self.rank(mask | b) == r:
                out |= b
        return out

    def loops(self) -> int:
        return self.closure(0)

    def flat_strata(self) -> tuple[list[list[int]], dict[int, list[int]]]:
        """All flats, stratified by rank, plus the covering relation.

        Returns (strata, covered_by): strata[k] lists the rank-k flats in
        ascending mask order, and covered_by[G] lists the flats covered by
        G.  Built cover by cover, assuming a matroid rank function: the
        covers of a rank-k flat F partition the elements outside F, and the
        cover through x holds the y with rank(F + x + y) = k + 1.  Each
        cover is grown once, from its lowest element x, and tests only the
        elements no earlier cover of F took, so each pair {x, y} outside F
        is tested at most once.  Each parent is appended to the list of each
        of its covers, with no set and no sort: the flats of a level are
        scanned in ascending order and each cover of F is found once, so
        every covered_by list comes out ascending and without repeats.
        """
        if self._strata_cache is None:
            rank = self.rank
            bottom = self.closure(0)
            strata = [[bottom]]
            covered_by: dict[int, list[int]] = {bottom: []}
            current = [bottom]
            top = self.ground_mask
            while current != [top]:
                cover_rank = len(strata)
                nxt: dict[int, list[int]] = {}
                for f in current:
                    rest = top & ~f
                    while rest:
                        x = rest & -rest
                        rest ^= x
                        g = fx = f | x
                        others = rest
                        while others:
                            y = others & -others
                            others ^= y
                            if rank(fx | y) == cover_rank:
                                g |= y
                        nxt.setdefault(g, []).append(f)
                        rest &= ~g
                current = sorted(nxt)
                strata.append(current)
                covered_by.update(nxt)
            self._strata_cache = (strata, covered_by)
        return self._strata_cache

    # -- standard constructions ---------------------------------------

    def simplify(self) -> tuple["Matroid", list[Optional[int]]]:
        """Combinatorial geometry: drop loops, collapse parallel classes.

        Returns (geometry, mapping) where mapping[x] is the new index of
        element x, or None for loops.  Simple matroids are fixed points
        and are returned unchanged.
        """
        loops = self.closure(0)
        reps: list[int] = []
        class_of: dict[int, int] = {}
        seen = loops
        for x in range(self.size):
            b = 1 << x
            if b & seen:
                continue
            cls = self.closure(b)
            rep_index = len(reps)
            reps.append(x)
            for y in elements_of(cls & ~loops):
                class_of[y] = rep_index
            seen |= cls
        if not reps:
            raise ValueError("rank-zero matroid has an empty simplification")
        if loops == 0 and len(reps) == self.size:
            return self, list(range(self.size))
        mapping: list[Optional[int]] = [
            None if (1 << x) & loops else class_of[x] for x in range(self.size)
        ]
        geometry = RelabeledMatroid(self, reps, name=f"si({self.name})")
        return geometry, mapping

    def free_coextension(self) -> "Matroid":
        """Dual of the free extension of the dual; rank and size grow by one."""
        return FreeCoextensionMatroid(self)

    # -- whole-matroid queries -----------------------------------------

    def independent_set_counts(self) -> tuple[int, ...]:
        """Number of independent sets of each cardinality 0..full_rank."""
        full_rank = self.full_rank
        counts = [0] * (full_rank + 1)
        for mask in iter_subsets(self.size):
            c = mask.bit_count()
            if c <= full_rank and self.rank(mask) == c:
                counts[c] += 1
        return tuple(counts)

    def rank_table(self) -> list[int]:
        return [self.rank(mask) for mask in iter_subsets(self.size)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} size={self.size}>"


class UniformMatroid(Matroid):
    """Every k-subset is a basis: rank(S) = min(|S|, k)."""

    _memoize_rank = False

    def __init__(self, rank: int, size: int, name: str | None = None):
        if not 0 <= rank <= size:
            raise ValueError(f"uniform rank {rank} outside 0..{size}")
        super().__init__(size, f"uniform({rank},{size})" if name is None else name)
        self.uniform_rank = rank

    def _rank_impl(self, mask: int) -> int:
        return min(mask.bit_count(), self.uniform_rank)


class FreeMatroid(UniformMatroid):
    """Every subset independent; the lattice of flats is Boolean."""

    def __init__(self, size: int, name: str | None = None):
        super().__init__(size, size, f"free({size})" if name is None else name)


class LinearMatroid(Matroid):
    """Column matroid of an exact matrix over GF(p) or the rationals.

    field is None for the rationals or a prime p for GF(p).  Entries over
    GF(p) must be ints; over Q they may be ints or Fractions, not floats.
    A GF(2) column is the bitmask of its odd entries, ranked in an XOR basis.
    """

    def __init__(self, matrix: Sequence[Sequence], field: int | None = None,
                 name: str | None = None):
        if not matrix or not matrix[0]:
            raise ValueError("matrix must be nonempty")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ValueError("matrix rows have unequal lengths")
        if field is not None and not linalg.is_prime(field):
            raise ValueError(f"{field} is not prime")
        tag = "Q" if field is None else f"GF({field})"
        super().__init__(width, f"linear({tag},{len(matrix)}x{width})" if name is None else name)
        self.field = field
        entries = [x for row in matrix for x in row]
        if field is None and any(isinstance(x, float) for x in entries):
            raise ValueError("matrix entries over Q must be exact, not floats")
        if field is not None and not all(isinstance(x, int) for x in entries):
            raise ValueError(f"matrix entries over GF({field}) must be ints")
        # Integer columns for Q and odd p: over Q each column is scaled by
        # the lcm of its denominators, a nonzero scalar that keeps ranks.
        self.columns = []
        for col in zip(*matrix):
            if field is None:
                col = [Fraction(x) for x in col]
                scale = lcm(*(x.denominator for x in col))
                self.columns.append(tuple(int(x * scale) for x in col))
            elif field == 2:
                self.columns.append(sum((x & 1) << i for i, x in enumerate(col)))
            else:
                self.columns.append(tuple(x % field for x in col))

    def _rank_impl(self, mask: int) -> int:
        if self.field != 2:
            # Rank is transpose-invariant, so feed the columns as rows.
            return linalg.rank([self.columns[e] for e in elements_of(mask)], self.field)
        # XOR basis keyed by leading bit: reduce each column by the basis
        # vectors under its leading bits; whatever is left joins the basis.
        basis: dict[int, int] = {}
        for e in elements_of(mask):
            x = self.columns[e]
            while x:
                top = x.bit_length()
                if top not in basis:
                    basis[top] = x
                    break
                x ^= basis[top]
        return len(basis)


class GraphicMatroid(LinearMatroid):
    """Cycle matroid of a multigraph; elements are edge indices.

    rank(S) = (vertices touched by S) - (components of the subgraph on S).
    Parallel edges and self-loops are allowed; self-loops are matroid loops.
    It is the GF(2) column matroid whose column for edge uv is bit[u] ^
    bit[v], over endpoints numbered densely (vertex ids only name them).
    """

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]],
                 name: str | None = None):
        if vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"edge ({u},{v}) has endpoints outside 0..{vertices - 1}")
        # Past LinearMatroid.__init__: there is no matrix to check.
        Matroid.__init__(self, len(edges), f"graphic(V={vertices},E={len(edges)})"
                         if name is None else name)
        ends = dict.fromkeys(w for edge in edges for w in edge)
        bit = {w: 1 << i for i, w in enumerate(ends)}
        self.field = 2
        self.columns = [bit[u] ^ bit[v] for u, v in edges]


class RankTableMatroid(Matroid):
    """Matroid given by an explicit table of all 2**size rank values.

    The constructor checks only shape; run validate_rank_table on
    untrusted tables to confirm the rank axioms.
    """

    _memoize_rank = False

    def __init__(self, size: int, ranks: Sequence[int], name: str | None = None):
        super().__init__(size, f"table({size})" if name is None else name)
        if len(ranks) != 1 << size:
            raise ValueError(f"rank table needs {1 << size} entries, got {len(ranks)}")
        if ranks[0] != 0:
            raise ValueError("rank of the empty set must be 0")
        self.ranks = list(ranks)

    def _rank_impl(self, mask: int) -> int:
        return self.ranks[mask]


class BasesMatroid(RankTableMatroid):
    """Matroid given by its bases: rank(S) = max over bases of |B & S|.

    The constructor builds the rank table once, in O(2**size * size)
    steps: by descending mask, every subset of a basis is marked
    independent before its own subsets; then by ascending mask, a
    dependent set takes the largest rank among its one-smaller subsets.
    It does not test basis exchange; the table passes validate_rank_table
    exactly when the family satisfies it.
    """

    def __init__(self, size: int, bases: Sequence[int], name: str | None = None):
        # Past RankTableMatroid.__init__: the table is built in place below,
        # so there is no shape to check and no list to copy.
        Matroid.__init__(self, size, f"bases({size})" if name is None else name)
        if not bases:
            raise ValueError("at least one basis is required")
        card = bases[0].bit_count()
        for b in bases:
            check_mask(b, size)
            if b.bit_count() != card:
                raise ValueError("bases must all have the same cardinality")
        complements = iter_subsets(size)
        full = self.ground_mask
        ranks = self.ranks = [-1] * (full + 1)
        for b in bases:
            ranks[b] = card
        for c in complements:
            mask = full ^ c
            if ranks[mask] > 0:
                for x in elements_of(mask):
                    ranks[mask ^ 1 << x] = ranks[mask] - 1
        for mask in range(full + 1):
            if ranks[mask] < 0:
                ranks[mask] = max(ranks[mask ^ 1 << x] for x in elements_of(mask))


class RelabeledMatroid(Matroid):
    """Restriction to a subset of elements, relabelled to 0..k-1."""

    def __init__(self, base: Matroid, kept: Sequence[int], name: str | None = None):
        super().__init__(len(kept), f"re({base.name})" if name is None else name)
        self.base = base
        self.kept = list(kept)

    def _rank_impl(self, mask: int) -> int:
        # Past the base's memo: this memo already answers repeated masks,
        # and the relabelling is injective, so the base's would only copy it.
        return self.base._rank_impl(mask_of(self.kept[e] for e in elements_of(mask)))


class FreeCoextensionMatroid(Matroid):
    """Adds element e = `base.size` as the dual of the free extension of the
    dual, in closed form: rank(S) = r(S - e) + 1 when e is in S, and
    min(r(S) + 1, |S|) otherwise."""

    _memoize_rank = False

    def __init__(self, base: Matroid):
        super().__init__(base.size + 1, f"coext({base.name})")
        self.base = base

    def _rank_impl(self, mask: int) -> int:
        b = 1 << self.base.size
        if mask & b:
            return self.base.rank(mask ^ b) + 1
        return min(self.base.rank(mask) + 1, mask.bit_count())


def validate_rank_table(size: int, ranks: Sequence[int]) -> Optional[str]:
    """Check the rank axioms on an explicit table, exactly.

    Returns None if the table passes, otherwise a human-readable witness.
    One ascending scan checks unit increase (so no rank is negative) and
    records keeps[S] = {x not in S : r(S + x) = r(S)}.  Given unit increase,
    submodularity holds iff keeps[S - y] - {y} is in keeps[S] for y in S.
    """
    if len(ranks) != 1 << size:
        return f"table has {len(ranks)} entries, expected {1 << size}"
    if ranks[0] != 0:
        return f"rank of the empty set is {ranks[0]}, expected 0"
    keeps = array("q", [0]) * (1 << size)
    for mask in iter_subsets(size):
        r = ranks[mask]
        keep = 0
        for x in range(size):
            b = 1 << x
            if mask & b:
                continue
            step = ranks[mask | b] - r
            if step == 0:
                keep |= b
            elif step != 1:
                return (f"unit increase fails at S={sorted(elements_of(mask))}, "
                        f"x={x}: {r} -> {ranks[mask | b]}")
        for y in elements_of(mask):
            b = 1 << y
            lost = keeps[mask ^ b] & ~b & ~keep
            if lost:
                s = mask ^ b | lost & -lost
                return (f"submodularity fails at S={sorted(elements_of(s))}, "
                        f"T={sorted(elements_of(mask))}")
        keeps[mask] = keep
    return None

"""Every geometry on up to 6 points passes check.

A geometry is a simple matroid.  Deleting a point of a geometry leaves a
geometry, so every geometry on n + 1 points is a single-element extension
of one on n points.  The extensions are the modular cuts of the flat
lattice (Crapo 1965): up-sets of flats closed under meets of modular
pairs.  The new point is parallel to a rank-1 flat of the cut, or a loop
if the cut holds the empty flat, so the extensions that stay simple are
the cuts of flats of rank 2 and up.  The empty cut adds a coloop.

Isomorphs are rejected within buckets keyed by each element's profile,
the (rank, size) of the flats that contain it.  The counts cannot be
looked up here, so the generator is checked against itself: on up to 5
points, the labelled geometries counted over every family of bases equal
the sum of n!/|Aut(M)| over the classes it generates.  Every geometry
then passes the rank axioms oracle and runs through run_check as a rank
table, so the four routes are checked on every input of up to 6 points,
whatever its field.
"""

from functools import cache
from itertools import combinations, permutations
from math import factorial

import pytest

from matfan.matroid import RankTableMatroid
from matfan.validation import run_check

from oracles import rank_axioms_oracle

MAX_POINTS = 6


def flats(size, ranks):
    """The sets that every added element enlarges."""
    return frozenset(mask for mask in range(1 << size)
                     if all(ranks[mask | 1 << e] > ranks[mask]
                            for e in range(size) if not mask >> e & 1))


def closure(size, ranks, mask):
    return mask | sum(1 << e for e in range(size) if ranks[mask | 1 << e] == ranks[mask])


def modular_cuts(size, ranks):
    """Yield each modular cut of flats of rank 2 and up, the empty one first."""
    # By falling rank, so each flat's covers are decided before it is.
    upper = sorted((f for f in flats(size, ranks) if ranks[f] >= 2), key=lambda f: -ranks[f])
    covers = {f: [g for g in upper if g & f == f and ranks[g] == ranks[f] + 1] for f in upper}

    def walk(i, cut):
        if i == len(upper):
            # A modular pair whose meet has rank below 2 has no meet in
            # the cut, so such a cut is refused here too.
            if all((f & g) in cut for f, g in combinations(cut, 2)
                   if ranks[f] + ranks[g] == ranks[f & g] + ranks[f | g]):
                yield cut
            return
        yield from walk(i + 1, cut)
        if all(g in cut for g in covers[upper[i]]):
            yield from walk(i + 1, cut | {upper[i]})

    yield from walk(0, frozenset())


def extension(size, ranks, cut):
    """Rank table on size + 1 points: the new point raises the rank of a
    set exactly when the set's closure is outside the cut."""
    return ranks + tuple(r + (closure(size, ranks, mask) not in cut)
                         for mask, r in enumerate(ranks))


def relabel(mask, perm):
    return sum(1 << perm[e] for e in range(len(perm)) if mask >> e & 1)


def profiles(size, lattice, ranks):
    return [sorted((ranks[f], f.bit_count()) for f in lattice if f >> e & 1)
            for e in range(size)]


def isomorphic(size, a, b):
    """Whether some relabelling maps the flats of table a onto those of b."""
    flats_a, flats_b = flats(size, a), flats(size, b)
    pa, pb = profiles(size, flats_a, a), profiles(size, flats_b, b)
    return any({relabel(f, perm) for f in flats_a} == flats_b
               for perm in permutations(range(size))
               if all(pa[e] == pb[perm[e]] for e in range(size)))


def automorphisms(size, ranks):
    lattice = flats(size, ranks)
    return sum({relabel(f, perm) for f in lattice} == lattice
               for perm in permutations(range(size)))


@cache
def geometries(size):
    """One rank table (a tuple) per isomorphism class of geometries."""
    if size == 1:
        return ((0, 1),)
    buckets = {}
    for ranks in geometries(size - 1):
        for cut in modular_cuts(size - 1, ranks):
            table = extension(size - 1, ranks, cut)
            key = (table[-1], tuple(sorted(map(tuple, profiles(size, flats(size, table), table)))))
            bucket = buckets.setdefault(key, [])
            if not any(isomorphic(size, table, seen) for seen in bucket):
                bucket.append(table)
    return tuple(table for bucket in buckets.values() for table in bucket)


def labelled_geometries(size):
    """Count the simple matroids on range(size) by brute force over every
    family of equal-sized sets that satisfies basis exchange."""
    count = 0
    for rank in range(1, size + 1):
        candidates = [sum(1 << e for e in s) for s in combinations(range(size), rank)]
        for choice in range(1, 1 << len(candidates)):
            family = {b for i, b in enumerate(candidates) if choice >> i & 1}
            exchange = all(any((a ^ 1 << x) | 1 << y in family
                               for y in range(size) if (b & ~a) >> y & 1)
                           for a in family for b in family
                           for x in range(size) if (a & ~b) >> x & 1)
            # Simple: each pair of points (and so each point) lies in a basis.
            simple = all(any(b >> x & 1 and b >> y & 1 for b in family)
                         for x in range(size) for y in range(size))
            count += exchange and simple
    return count


def test_geometry_counts():
    assert [len(geometries(n)) for n in range(1, MAX_POINTS + 1)] == [1, 1, 2, 4, 9, 26]
    by_rank = [sum(t[-1] == r for t in geometries(MAX_POINTS)) for r in range(2, MAX_POINTS + 1)]
    assert by_rank == [1, 9, 11, 4, 1]


@pytest.mark.parametrize("size, labelled", [(1, 1), (2, 1), (3, 2), (4, 7), (5, 49)])
def test_the_classes_account_for_every_labelled_geometry(size, labelled):
    assert labelled_geometries(size) == labelled
    assert sum(factorial(size) // automorphisms(size, t) for t in geometries(size)) == labelled


def test_every_geometry_passes_check():
    for size in range(1, MAX_POINTS + 1):
        for ranks in geometries(size):
            assert rank_axioms_oracle(size, ranks) is None
            report = run_check(RankTableMatroid(size, ranks)).report
            assert report["pass"] and "skipped" not in report, report
            assert report["subject_size"] == size

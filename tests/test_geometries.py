"""Every geometry on up to 7 points passes check.

A geometry is a simple matroid.  Deleting a point of a geometry leaves a
geometry, so every geometry on n + 1 points is a single-element extension
of one on n points.  The extensions are the modular cuts of the flat
lattice (Crapo 1965): up-sets of flats closed under meets of modular
pairs.  The new point is parallel to a rank-1 flat of the cut, or a loop
if the cut holds the empty flat, so the extensions that stay simple are
the cuts of flats of rank 2 and up.  The empty cut adds a coloop.  The
cuts are walked with the modular meets forced as flats join, so no
up-set that is not a cut is completed.

Isomorphs are rejected within buckets keyed by each element's profile,
the (rank, size) of the flats that contain it.  The counts cannot be
looked up here, so the generator is checked against itself: on up to 5
points, the labelled geometries counted over every family of bases equal
the sum of n!/|Aut(M)| over the classes it generates.  Every geometry
then passes the rank axioms oracle and runs through run_check as a rank
table, so the four routes are checked on every input of up to 7 points,
whatever its field.

The rank-3 geometries are also counted without the generator.  A simple
matroid of rank 3 is a linear space: its lines with 3 or more points,
any two meeting in at most one point, none through every point.  These
families are listed directly and their isomorphism classes counted by
marking each new family's whole orbit under the relabellings.
"""

from functools import cache
from itertools import combinations, permutations, product
from math import factorial

import pytest

from matfan.matroid import RankTableMatroid
from matfan.validation import run_check

from oracles import rank_axioms_oracle

MAX_POINTS = 7


@cache
def flats(size, ranks):
    """The sets that every added element enlarges."""
    return frozenset(mask for mask in range(1 << size)
                     if all(ranks[mask | 1 << e] > ranks[mask]
                            for e in range(size) if not mask >> e & 1))


def closure(size, ranks, mask):
    return mask | sum(1 << e for e in range(size) if ranks[mask | 1 << e] == ranks[mask])


def modular_cuts(size, ranks):
    """Yield each modular cut of flats of rank 2 and up, the empty one first.

    The walk decides the flats by falling rank, so the flats above each
    one and its modular partners are decided before it is.  Leaving a flat
    out rules out every flat below it, which keeps the cut an up-set.  A
    flat joins only when each modular partner in the cut meets it in rank
    2 or more; that meet is then forced, and a branch that rules out a
    forced flat ends.  So every leaf is a modular cut, and every modular
    cut is a leaf.
    """
    upper = sorted((f for f in flats(size, ranks) if ranks[f] >= 2), key=lambda f: -ranks[f])
    place = {f: i for i, f in enumerate(upper)}
    below = [sum(1 << place[g] for g in upper if g & f == g != f) for f in upper]
    # partners[i]: (bit of an earlier flat g modular with upper[i] and not
    # above it, bit of their meet or 0 when the meet has rank below 2).
    partners = [[(1 << j, 1 << place[f & g] if ranks[f & g] >= 2 else 0)
                 for j, g in enumerate(upper[:i])
                 if g & f != f and ranks[f] + ranks[g] == ranks[f & g] + ranks[f | g]]
                for i, f in enumerate(upper)]

    def walk(i, cut, forced, out):
        if forced & out:
            return
        if i == len(upper):
            yield frozenset(f for j, f in enumerate(upper) if cut >> j & 1)
            return
        bit = 1 << i
        yield from walk(i + 1, cut, forced, out | bit | below[i])
        if out & bit:
            return
        for g, meet in partners[i]:
            if cut & g:
                if not meet:
                    return
                forced |= meet
        yield from walk(i + 1, cut | bit, forced, out)

    yield from walk(0, 0, 0, 0)


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
    """Whether some relabelling maps the flats of table a onto those of b.
    Only relabellings that keep each element's profile are tried."""
    flats_a, flats_b = flats(size, a), flats(size, b)
    pa, pb = profiles(size, flats_a, a), profiles(size, flats_b, b)
    if len(flats_a) != len(flats_b) or sorted(pa) != sorted(pb):
        return False
    classes = {}
    for e in range(size):
        classes.setdefault(tuple(pa[e]), []).append(e)
    targets = [[x for x in range(size) if tuple(pb[x]) == p] for p in classes]
    perm = [0] * size
    for images in product(*map(permutations, targets)):
        for sources, image in zip(classes.values(), images):
            for e, x in zip(sources, image):
                perm[e] = x
        if all(relabel(f, perm) in flats_b for f in flats_a):
            return True
    return False


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


def linear_spaces(size):
    """Every family of lines on range(size), as bitmask tuples: sets of 3
    to size - 1 points, any two sharing at most one point."""
    lines = [sum(1 << e for e in s) for k in range(3, size) for s in combinations(range(size), k)]

    def extend(start, chosen):
        yield chosen
        for i in range(start, len(lines)):
            if all((lines[i] & line).bit_count() <= 1 for line in chosen):
                yield from extend(i + 1, chosen + (lines[i],))

    return extend(0, ())


def linear_space_classes(size):
    """One family of lines per linear space on size points, up to
    relabelling: each new family's whole orbit is marked as seen."""
    perms = list(permutations(range(size)))
    seen = set()
    for family in linear_spaces(size):
        if frozenset(family) not in seen:
            seen.update(frozenset(relabel(line, perm) for line in family) for perm in perms)
            yield family


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
    assert [len(geometries(n)) for n in range(1, MAX_POINTS + 1)] == [1, 1, 2, 4, 9, 26, 101]
    by_rank = [sum(t[-1] == r for t in geometries(MAX_POINTS)) for r in range(2, MAX_POINTS + 1)]
    assert by_rank == [1, 23, 49, 22, 5, 1]


def test_rank_3_counts_match_the_linear_spaces():
    # The rank-3 geometries on 3 to 7 points, from the lines alone and no
    # modular cut; on 7 points test_geometry_counts finds 23 of rank 3 too.
    counts = [len(list(linear_space_classes(n))) for n in range(3, MAX_POINTS + 1)]
    assert counts == [1, 2, 4, 9, 23]


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

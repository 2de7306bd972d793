"""Every geometry on N points passes check, as a script:

    PYTHONPATH=src python3 tests/geometries.py N

A geometry is a simple matroid.  Deleting a point of a geometry leaves a
geometry, so every geometry on n + 1 points is a single-element extension
of one on n points.  The extensions are the modular cuts of the flat
lattice (Crapo 1965): up-sets of flats closed under meets of modular
pairs.  The new point is parallel to a rank-1 flat of the cut, or a loop
if the cut holds the empty flat, so the extensions that stay simple are
the cuts of flats of rank 2 and up.  The empty cut adds a coloop.  The
cuts are walked with the modular meets forced as flats join, so no
up-set that is not a cut is completed.

Isomorphs are rejected within buckets keyed by rank, number of flats
and each element's profile, the (rank, size) of the flats that contain
it.  Each candidate's flats and profiles are computed once, and only
the accepted classes keep theirs.

The rank-3 geometries are also counted without the generator.  A simple
matroid of rank 3 is a linear space: its lines with 3 or more points,
any two meeting in at most one point, none through every point.  These
families are listed directly and their isomorphism classes counted by
marking each new family's whole orbit under the relabellings.

Each geometry must satisfy the rank axioms oracle and pass check as a
rank table with all four routes and nothing skipped, whatever its
field.  The split by rank must match SPLITS, and its rank-3 count the
linear spaces.  Then each geometry of rank 3 or more must pass
oracles.degree_one_hodge, the Hodge theorem in degree 1
(Adiprasito-Huh-Katz) with an ample class and with each mix of alpha
and beta, tied to the mu of its report.  The script prints the counts,
the split, the number of distinct forms and the times, and exits 1 on
the first geometry that fails.  tests/test_geometries.py runs the same
generator and checks on 1 to 7 points under pytest.
"""

import sys
import time
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product

from matfan.matroid import RankTableMatroid
from matfan.validation import run_check

from oracles import all_flats_oracle, degree_one_hodge, every_route_failure, rank_axioms_oracle

# The geometries on N points by rank.  950 on 8 points is the count
# Mayhew-Royle 2008 tabulate, as recalled without the paper at hand;
# this generator and an earlier one that cached every candidate's flats
# both reproduce it.
SPLITS = {
    1: {1: 1},
    2: {2: 1},
    3: {2: 1, 3: 1},
    4: {2: 1, 3: 2, 4: 1},
    5: {2: 1, 3: 4, 4: 3, 5: 1},
    6: {2: 1, 3: 9, 4: 11, 5: 4, 6: 1},
    7: {2: 1, 3: 23, 4: 49, 5: 22, 6: 5, 7: 1},
    8: {2: 1, 3: 68, 4: 617, 5: 217, 6: 40, 7: 6, 8: 1},
}


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
    upper = sorted((f for f in all_flats_oracle(size, ranks.__getitem__) if ranks[f] >= 2),
                   key=lambda f: -ranks[f])
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
    return [tuple(sorted((ranks[f], f.bit_count()) for f in lattice if f >> e & 1))
            for e in range(size)]


def isomorphic(size, a, b):
    """Whether some relabelling maps the flats of a onto those of b, each
    a (flats, profiles) pair with as many flats and the same profiles as
    the other.  Only relabellings that keep each element's profile are
    tried."""
    (flats_a, pa), (flats_b, pb) = a, b
    classes = {}
    for e in range(size):
        classes.setdefault(pa[e], []).append(e)
    targets = [[x for x in range(size) if pb[x] == p] for p in classes]
    perm = [0] * size
    for images in product(*map(permutations, targets)):
        for sources, image in zip(classes.values(), images):
            for e, x in zip(sources, image):
                perm[e] = x
        if all(relabel(f, perm) in flats_b for f in flats_a):
            return True
    return False


@cache
def geometries(size):
    """One rank table (a tuple) per isomorphism class of geometries."""
    if size == 1:
        return ((0, 1),)
    buckets = {}
    for ranks in geometries(size - 1):
        for cut in modular_cuts(size - 1, ranks):
            table = extension(size - 1, ranks, cut)
            lattice = frozenset(all_flats_oracle(size, table.__getitem__))
            profile = profiles(size, lattice, table)
            bucket = buckets.setdefault((table[-1], len(lattice), tuple(sorted(profile))), [])
            if not any(isomorphic(size, (lattice, profile), seen) for _, seen in bucket):
                bucket.append((table, (lattice, profile)))
    return tuple(table for bucket in buckets.values() for table, _ in bucket)


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
    relabelling: each new family's whole orbit is marked as seen.  A
    family is marked as one int with a bit per line: on 8 points the
    433,038 labelled linear spaces then peak at 64 MiB, where frozensets
    took 274 MiB (CPython 3.11)."""
    perms = list(permutations(range(size)))
    seen = set()
    for family in linear_spaces(size):
        if sum(1 << line for line in family) not in seen:
            seen.update(sum(1 << relabel(line, perm) for line in family) for perm in perms)
            yield family


def check(size, ranks):
    """(why the geometry fails, None), or (None, the mu of its report's
    Moebius route) when it passes."""
    failure = rank_axioms_oracle(size, ranks)
    if failure:
        return f"not a rank table: {failure}", None
    report = run_check(RankTableMatroid(size, ranks)).report
    failure = every_route_failure(report)
    if failure:
        return failure, None
    if report["subject_size"] != size:
        return f"the subject has {report['subject_size']} elements", None
    return None, report["mu"]["mobius"]


def main(size):
    start = time.perf_counter()
    tables = geometries(size)
    generated = time.perf_counter()
    mus = []
    for ranks in tables:
        failure, mu = check(size, ranks)
        if failure:
            print(f"{ranks}: {failure}")
            return 1
        mus.append(mu)
    checked = time.perf_counter()
    # On fewer than 3 points the empty family of lines is no geometry of rank 3.
    linear = len(list(linear_space_classes(size))) if size >= 3 else 0
    split = dict(sorted(Counter(ranks[-1] for ranks in tables).items()))
    print(f"{len(tables)} geometries on {size} points pass check by all four routes")
    print(f"by rank: {split}; {linear} linear spaces of rank 3")
    print(f"generated in {generated - start:.1f} s, checked in {checked - generated:.1f} s, "
          f"linear spaces in {time.perf_counter() - checked:.1f} s")
    if split != SPLITS.get(size) or split.get(3, 0) != linear:
        print(f"expected {SPLITS.get(size)} by rank, with the linear spaces of rank 3")
        return 1
    start = time.perf_counter()
    higher = [(ranks, mu) for ranks, mu in zip(tables, mus) if ranks[-1] >= 3]
    for ranks, mu in higher:
        failure = degree_one_hodge(RankTableMatroid(size, ranks), mu)
        if failure:
            print(f"{ranks}: {failure}")
            return 1
    # The ample class's form and the R - 2 mixes of alpha and beta, of
    # which rank 3's one is the ample class's form.
    forms = sum(ranks[-1] - 1 - (ranks[-1] == 3) for ranks, _ in higher)
    print(f"{len(higher)} of rank 3 or more pass the Hodge theorem in degree 1 "
          f"on {forms} forms, in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))

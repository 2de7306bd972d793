"""Every geometry on up to 7 points passes check.

tests/geometries.py generates one rank table per isomorphism class of
geometries (simple matroids) by single-element extensions along modular
cuts.  The counts cannot be looked up here, so the generator is checked
against itself: on up to 5 points, the labelled geometries counted over
every family of bases equal the sum of n!/|Aut(M)| over the classes it
generates.  The rank-3 classes are counted again as linear spaces,
without the generator.  Every geometry then passes geometries.check:
the rank axioms oracle, and run_check as a rank table with all four
routes and nothing skipped, whatever its field, and geometries.check
returns the mu of that report.  The script tests/geometries.py runs the
same on 8 points, and then oracles.degree_one_hodge, with that mu, on
every geometry of rank 3 or more: the ample class's form and the form
of each mix of alpha and beta, one form at rank 3, where the one mix
cups no divisor.  Its main is run here on 6 points, with
a geometry that fails each check and with a wrong count.
"""

from itertools import combinations, permutations
from math import factorial

import pytest

from geometries import SPLITS, check, geometries, linear_space_classes, main, relabel
from oracles import all_flats_oracle

MAX_POINTS = 7


def automorphisms(size, ranks):
    lattice = frozenset(all_flats_oracle(size, ranks.__getitem__))
    return sum({relabel(f, perm) for f in lattice} == lattice
               for perm in permutations(range(size)))


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
            assert check(size, ranks)[0] is None, ranks


def test_the_script_passes_6_points():
    assert main(6) == 0


def test_the_script_fails_on_a_failing_geometry(monkeypatch, capsys):
    failing = geometries(6)[10]
    monkeypatch.setattr("geometries.check",
                        lambda size, ranks: ("made to fail" if ranks == failing else None, None))
    assert main(6) == 1
    assert capsys.readouterr().out == f"{failing}: made to fail\n"


def test_the_script_fails_on_a_wrong_count(monkeypatch, capsys):
    monkeypatch.setattr("geometries.check", lambda size, ranks: (None, None))
    monkeypatch.setitem(SPLITS[6], 4, SPLITS[6][4] + 1)
    assert main(6) == 1
    assert "expected {2: 1, 3: 9, 4: 12, 5: 4, 6: 1} by rank" in capsys.readouterr().out


def test_the_script_fails_on_a_geometry_that_fails_in_degree_1(monkeypatch, capsys):
    failing = geometries(6)[10]
    assert failing[-1] >= 4
    monkeypatch.setattr("geometries.check", lambda size, ranks: (None, None))
    monkeypatch.setattr("geometries.degree_one_hodge",
                        lambda matroid, mu: "made to fail" if tuple(matroid.ranks) == failing else None)
    assert main(6) == 1
    assert capsys.readouterr().out.endswith(f"{failing}: made to fail\n")

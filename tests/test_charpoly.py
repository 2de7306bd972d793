"""Characteristic polynomials, Moebius values and flag counts."""

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from matfan import charpoly, cli, corpus
from matfan.validation import run_check
from matfan.charpoly import (
    char_poly,
    count_descending_flags,
    is_log_concave,
    mobius,
    reduced_char_poly,
)
from matfan.matroid import (
    FreeCoextensionMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    UniformMatroid,
)
from matfan.schema import load_matroid, load_matroid_file

from oracles import (
    FANO_MATRIX,
    K4_EDGES,
    ROUTES,
    char_poly_oracle,
    descending_flag_count_oracle,
    det_int,
    graphic_rank,
    mobius_oracle,
    mobius_weisner,
    mu_oracle,
    point_counts,
    uniform_rank,
    value_at,
)
from strategies import RANDOM_MATROIDS, linear_documents


# -- polynomial arithmetic --------------------------------------------------


def times_q_minus_one(quotient):
    """(q - 1) * quotient, both degree-descending."""
    return tuple(a - b for a, b in zip((*quotient, 0), (0, *quotient)))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda q: q[0] != 0),
       st.lists(st.integers(-50, 50), min_size=1, max_size=7))
def test_reduced_char_poly_divides_by_q_minus_one(quotient, poly):
    reduced, mu = reduced_char_poly(times_q_minus_one(quotient))
    assert reduced == tuple(quotient)
    assert mu == tuple((-1) ** k * c for k, c in enumerate(quotient))
    if sum(poly):
        with pytest.raises(charpoly.NonDivisibleError, match=rf"value {sum(poly)} at 1$"):
            reduced_char_poly(tuple(poly))
    else:
        assert times_q_minus_one(reduced_char_poly(tuple(poly))[0]) == tuple(poly)
    with pytest.raises(ValueError, match="loops"):
        reduced_char_poly(())


# -- the Mobius function ------------------------------------------------------


@pytest.mark.parametrize("matroid,rank_fn", [
    (GraphicMatroid(4, K4_EDGES), graphic_rank(4, K4_EDGES)),
    (UniformMatroid(2, 4), uniform_rank(2)),
    (LinearMatroid(FANO_MATRIX, 2), None),
])
def test_mobius_matches_oracle(matroid, rank_fn):
    rank_fn = rank_fn or matroid.rank
    mu = mobius(matroid.flat_strata()[0])
    assert mu == mobius_oracle(matroid.size, rank_fn)
    assert mu[0] == 1


def test_weisner_route_agrees():
    for matroid in (GraphicMatroid(4, K4_EDGES), UniformMatroid(3, 6),
                    corpus.build("rt-whirl"), corpus.build("rt-one-line")):
        assert mobius_weisner(matroid) == mobius(matroid.flat_strata()[0])


@settings(max_examples=150, deadline=None)
@given(RANDOM_MATROIDS)
def test_mobius_matches_weisner_on_random_matroids(matroid):
    # The defining recursion against Weisner's recursion over covers,
    # which needs a loopless matroid: so both read the simplification.
    if not matroid.full_rank:
        return
    simple = matroid.simplify()[0]
    assert mobius(simple.flat_strata()[0]) == mobius_weisner(simple)


def test_mobius_alternates_in_sign():
    strata, _ = LinearMatroid(FANO_MATRIX, 2).flat_strata()
    mu = mobius(strata)
    for k, level in enumerate(strata):
        for f in level:
            assert mu[f] * (-1) ** k > 0


def test_lattice_shape_k4():
    strata, covered_by = GraphicMatroid(4, K4_EDGES).flat_strata()
    assert [len(s) for s in strata] == [1, 6, 7, 1]
    assert covered_by[strata[-1][0]] == strata[2]


def test_one_mobius_pass_per_matroid(monkeypatch):
    passes = []
    monkeypatch.setattr(charpoly, "mobius", lambda strata: passes.append(1) or mobius(strata))
    # k4: 6 elements, so the Welsh-Mason step runs, but it counts the
    # coextension's flags from its rank oracle and sums no Moebius values.
    assert run_check(corpus.build("k4")).ok
    assert len(passes) == 1
    # u(2,22): above the 21-element subset scan, so only the subject.
    passes.clear()
    assert run_check(UniformMatroid(2, 22)).ok
    assert len(passes) == 1


# -- characteristic polynomials ---------------------------------------------


def test_char_poly_k4():
    p = char_poly(GraphicMatroid(4, K4_EDGES))
    assert p == (1, -6, 11, -6)
    # Cycle matroid of a connected graph: q * char_poly counts colorings.
    assert 4 * value_at(p, 4) == 24


def test_char_poly_factors_for_complete_graphs():
    k5 = char_poly(GraphicMatroid(5, [(u, v) for u in range(5)
                                      for v in range(u + 1, 5)]))
    for q in range(1, 5):
        assert value_at(k5, q) == 0
    assert value_at(k5, 5) == math.factorial(4)


@pytest.mark.parametrize("matroid,rank_fn", [
    (UniformMatroid(2, 4), uniform_rank(2)),
    (UniformMatroid(3, 5), uniform_rank(3)),
    (GraphicMatroid(4, K4_EDGES), graphic_rank(4, K4_EDGES)),
])
def test_char_poly_matches_whitney_oracle(matroid, rank_fn):
    assert list(char_poly(matroid)) == char_poly_oracle(matroid.size, rank_fn)


def test_char_poly_of_the_two_point_configurations():
    assert char_poly(LinearMatroid(FANO_MATRIX, 2)) == (1, -7, 14, -8)
    assert char_poly(LinearMatroid(FANO_MATRIX, None)) == (1, -7, 15, -9)


def test_char_poly_free_is_power_of_q_minus_one():
    p = char_poly(FreeMatroid(4))
    assert p == (1, -4, 6, -4, 1)


def test_char_poly_with_loops_is_zero():
    loopy = RankTableMatroid(2, [0, 0, 1, 1])
    assert char_poly(loopy) == ()
    with pytest.raises(ValueError):
        reduced_char_poly(char_poly(loopy))


# -- chi by point counts over finite fields ------------------------------------
#
# Every route reads the rank oracle, so a wrong LinearMatroid rank would
# pass them all; point_counts reads the matrix and no rank.


GOLDEN_INPUTS = sorted(Path(__file__).parent.glob("golden/**/inputs/*.json"))
LINEAR_DOCUMENTS = {
    **{name: corpus._DOCUMENTS[name] for name in ("fano", "non-fano")},
    **{path.stem: doc for path in GOLDEN_INPUTS
       if (doc := json.loads(path.read_text()))["type"] == "linear"},
}
# test_golden pins each to the report `matfan check` writes.
PINNED_REPORTS = {path.stem: path.parent.parent / f"{path.stem}_check.json"
                  for path in GOLDEN_INPUTS}


def without_loops(document):
    """The document less its zero columns: the loops, which check drops
    before its routes run."""
    field = document["field"]

    def is_zero(x):
        return Fraction(x) == 0 if field == "Q" else x % int(field[3:-1]) == 0

    columns = [col for col in zip(*document["matrix"]) if not all(map(is_zero, col))]
    return dict(document, matrix=[list(row) for row in zip(*columns)])


def values_at(poly, counts):
    """poly's values at the counts' points, paired as point_counts pairs them."""
    return [(x, value_at(poly, x)) for x, _ in counts]


def assert_point_counts_match(document, report):
    # r + 1 values fix a polynomial of degree r.  check reports the
    # loopless matroid; a loop makes chi 0, which char_poly gives as ().
    subject = without_loops(document)
    counts = point_counts(subject)
    poly = tuple(int(c) for c in report["char_poly"])
    assert len(poly) == len(counts) and values_at(poly, counts) == counts
    whole = char_poly(load_matroid(document))
    whole_counts = counts if subject == document else point_counts(document)
    assert len(whole) in (0, len(counts)) and values_at(whole, whole_counts) == whole_counts
    mu = list(reduced_char_poly(poly)[1])
    assert report["mu"] and all(v == mu for v in report["mu"].values()), report["mu"]


@pytest.mark.parametrize("name", LINEAR_DOCUMENTS)
def test_point_counts_give_chi_and_every_route(name):
    document = LINEAR_DOCUMENTS[name]
    if name in PINNED_REPORTS:
        report = json.loads(PINNED_REPORTS[name].read_text())
    else:
        report = run_check(load_matroid(document)).report
    assert_point_counts_match(document, report)


@settings(max_examples=40, deadline=None)
@given(st.one_of(linear_documents(2, 9), linear_documents(3, 7)))
def test_point_counts_give_chi_and_every_route_on_random_matroids(document):
    matroid = load_matroid(document)
    assume(matroid.full_rank > 0)
    assert_point_counts_match(document, run_check(matroid).report)


def test_point_counts_follow_a_changed_column():
    fano = LINEAR_DOCUMENTS["fano"]
    # Column 6, (1, 1, 1), becomes (1, 1, 0), a copy of column 2.
    changed = dict(fano, matrix=[row[:6] + [bit] for row, bit in zip(fano["matrix"], (1, 1, 0))])
    counts = point_counts(changed)
    assert values_at(char_poly(load_matroid(changed)), counts) == counts
    assert values_at(char_poly(load_matroid(fano)), counts) != counts


def test_point_counts_need_a_prime_of_good_reduction():
    # Each prime below 17 divides a nonzero 3 x 3 minor of q-r3, and the
    # count mod each of them is another matroid's; 17 divides none.
    q_r3 = LINEAR_DOCUMENTS["q-r3"]
    expected = char_poly(load_matroid(q_r3))
    columns = list(zip(*q_r3["matrix"]))
    minors = [det_int([[columns[e][i] for e in kept] for i in range(3)])
              for kept in combinations(range(8), 3)]
    for prime in (2, 3, 5, 7, 11, 13):
        assert any(d % prime == 0 for d in minors if d)
        counts = point_counts(q_r3, prime)
        assert values_at(expected, counts) != counts
    assert all(d % 17 for d in minors if d)
    counts = point_counts(q_r3)
    assert counts == point_counts(q_r3, 17) == values_at(expected, counts)


# -- reduced polynomial and coefficient vectors -----------------------------


FROZEN_MU = {
    "k4": (1, 5, 6),
    "k5": (1, 9, 26, 24),
    "fano": (1, 6, 8),
    "non-fano": (1, 6, 9),
    "rt-whirl": (1, 5, 7),
    "rt-one-line": (1, 5, 9),
    "free-4": (1, 3, 3, 1),
    "u-2-5": (1, 4),
    "u-3-6": (1, 5, 10),
}


@pytest.mark.parametrize("name,expected", sorted(FROZEN_MU.items()))
def test_frozen_mu_vectors(name, expected):
    matroid = corpus.build(name)
    reduced, mu = reduced_char_poly(char_poly(matroid))
    assert mu == expected
    # The vector is the reduced polynomial with alternating signs removed.
    assert tuple(abs(c) for c in reduced) == expected
    assert mu == mu_oracle(matroid.size, matroid.rank)


def test_reduced_poly_k4():
    reduced, mu = reduced_char_poly(char_poly(GraphicMatroid(4, K4_EDGES)))
    assert reduced == (1, -5, 6)
    assert mu == (1, 5, 6)


def test_mu_after_simplification():
    simple, _ = corpus.build("rt-parallel").simplify()
    assert reduced_char_poly(char_poly(simple))[1] == (1, 3, 2)


def test_free_mu_is_binomial():
    for size in range(1, 8):
        mu = reduced_char_poly(char_poly(FreeMatroid(size)))[1]
        assert mu == tuple(math.comb(size - 1, k) for k in range(size))


def test_uniform_mu_is_binomial():
    for m in range(2, 8):
        for k in range(1, m):
            mu = reduced_char_poly(char_poly(UniformMatroid(k, m)))[1]
            assert mu == tuple(math.comb(m - 1, j) for j in range(k))


# -- descending flag counts --------------------------------------------------


def test_flag_zero_level_is_one():
    assert count_descending_flags(UniformMatroid(2, 4))[0] == 1


def test_flag_counts_match_brute_force():
    for matroid in (GraphicMatroid(4, K4_EDGES), UniformMatroid(2, 4),
                    UniformMatroid(3, 5), UniformMatroid(1, 3)):
        vector = count_descending_flags(matroid)
        assert len(vector) == matroid.full_rank
        for k, count in enumerate(vector):
            assert count == descending_flag_count_oracle(matroid.size, matroid.rank, k)
    with pytest.raises(ValueError):
        count_descending_flags(RankTableMatroid(2, [0, 0, 1, 1]))


@pytest.mark.parametrize("name", sorted(FROZEN_MU))
def test_flag_counts_equal_mu(name):
    matroid = corpus.build(name)
    assert count_descending_flags(matroid) == reduced_char_poly(char_poly(matroid))[1]


@settings(max_examples=150, deadline=None)
@given(RANDOM_MATROIDS)
def test_flag_counts_match_brute_force_on_random_matroids(matroid):
    if not matroid.full_rank:
        return
    simple = matroid.simplify()[0]
    assert count_descending_flags(simple) == tuple(
        descending_flag_count_oracle(simple.size, simple.rank, k)
        for k in range(simple.full_rank))


def test_flags_read_no_flat(monkeypatch, tmp_path, capsys):
    # The flags route reads the rank oracle alone, so a fault in the
    # lattice of flats cannot move it and the Moebius route alike.
    cases = [
        (corpus.build("fano"), FROZEN_MU["fano"]),
        (corpus.build("k4"), FROZEN_MU["k4"]),
        (corpus.build("free-6"), tuple(math.comb(5, k) for k in range(6))),
        (corpus.build("rt-parallel").simplify()[0], (1, 3, 2)),
    ]

    def refuse(*args):
        raise AssertionError("the flags route read the lattice of flats")

    monkeypatch.setattr(Matroid, "flat_strata", refuse)
    monkeypatch.setattr(charpoly, "mobius", refuse)
    for matroid, expected in cases:
        assert count_descending_flags(matroid) == expected, matroid.name

    path = tmp_path / "free-18.json"
    path.write_text(json.dumps({"type": "free", "size": 18}))
    assert cli.main(["mu", "--method", "flags", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"]["flags"] == [math.comb(17, k) for k in range(18)]


# -- Welsh-Mason: independent sets against the free coextension --------------


def k6():
    return GraphicMatroid(6, list(combinations(range(6), 2)))


def test_welsh_mason_on_k6_with_every_route():
    # K6: 15 edges, within the subset scan, and 2,700 complete flags of
    # flats, within the flag gate, so nothing is skipped.  Forests of K6
    # by size; the last entry is Cayley's 6^4 spanning trees.
    report = run_check(k6()).report
    assert report["f_vector"] == [1, 15, 105, 435, 1080, 1296]
    assert report["mu_coextension"] == report["f_vector"]
    assert report["welsh_mason"] is True
    assert "skipped" not in report
    assert set(report["mu"]) == ROUTES
    assert report["truncation_identity"] is True
    assert report["pass"] is True


def test_coextension_lattice_gives_the_f_vector():
    # run_check counts the free coextension's flags from its rank oracle,
    # so this keeps the coextension's own flat lattice and Moebius sum
    # under the identity.  K6's coextension has 3,135 flats.
    for m in (*map(corpus.build, corpus.CORPUS_NAMES), k6()):
        s = m.simplify()[0]
        mu = reduced_char_poly(char_poly(s.free_coextension()))[1]
        assert mu == s.independent_set_counts(), m.name


def test_check_builds_one_flat_lattice(monkeypatch):
    def refuse(self):
        raise AssertionError("run_check built the free coextension's flat lattice")

    real = Matroid.flat_strata
    built = []

    def recorded(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Matroid, "flat_strata", recorded)
    monkeypatch.setattr(FreeCoextensionMatroid, "flat_strata", refuse)
    gf2 = Path(__file__).parent / "golden" / "inputs" / "gf2_r4_13.json"
    for matroid in (corpus.build("k4"), k6(), load_matroid_file(str(gf2))):
        built.clear()
        result = run_check(matroid)
        assert result.ok, result.report
        assert result.report["welsh_mason"] is True
        assert len({id(m) for m in built}) == 1, matroid.name


# -- log-concavity ------------------------------------------------------------


def test_is_log_concave():
    assert is_log_concave((1, 5, 6))
    assert is_log_concave((1, 9, 26, 24))
    assert is_log_concave((1,))
    assert is_log_concave(())
    assert is_log_concave((4, 2, 1))
    assert not is_log_concave((1, 1, 2))
    assert not is_log_concave((2, 1, 2))


def test_frozen_vectors_are_log_concave():
    for expected in FROZEN_MU.values():
        assert is_log_concave(expected)

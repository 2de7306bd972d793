"""Characteristic polynomials, Moebius values and flag counts."""

import math

import pytest
from hypothesis import given, strategies as st

from matfan import charpoly, corpus
from matfan.validation import GEOMETRY_LIMIT, run_check
from matfan.charpoly import (
    char_poly,
    count_descending_flags,
    is_log_concave,
    mobius,
    mu_vector_mobius,
    reduced_char_poly,
)
from matfan.matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    RankTableMatroid,
    UniformMatroid,
)

from oracles import (
    FANO_MATRIX,
    K4_EDGES,
    char_poly_oracle,
    descending_flag_count_oracle,
    graphic_rank,
    mobius_oracle,
    mobius_weisner,
    mu_oracle,
    uniform_rank,
)


# -- polynomial arithmetic --------------------------------------------------


def value_at(p, x):
    """p(x) by Horner's rule, p degree-descending."""
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


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
    # k4: 6 elements, so the Welsh-Mason step reduces the coextension too.
    assert run_check(corpus.build("k4")).ok
    assert len(passes) == 2
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
    assert mu_vector_mobius(simple) == (1, 3, 2)


def test_free_mu_is_binomial():
    for size in range(1, 8):
        mu = mu_vector_mobius(FreeMatroid(size))
        assert mu == tuple(math.comb(size - 1, k) for k in range(size))


def test_uniform_mu_is_binomial():
    for m in range(2, 8):
        for k in range(1, m):
            mu = mu_vector_mobius(UniformMatroid(k, m))
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
    assert count_descending_flags(matroid) == mu_vector_mobius(matroid)


# -- Welsh-Mason: independent sets against the free coextension --------------


def test_welsh_mason_above_the_geometry_limit():
    # K6: 15 edges, above the geometry limit and within the subset scan.
    # Forests of K6 by size; the last entry is Cayley's 6^4 spanning trees.
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert k6.size - 1 > GEOMETRY_LIMIT
    report = run_check(k6).report
    assert report["f_vector"] == [1, 15, 105, 435, 1080, 1296]
    assert report["mu_coextension"] == report["f_vector"]
    assert report["welsh_mason"] is True
    assert "welsh_mason" not in report["skipped"]
    assert report["pass"] is True


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

"""Weighted fans: incidence vectors, flag cones, balancing, Cremona."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from matfan import corpus, linalg
from matfan.fan import (
    BalancingViolation,
    MinkowskiWeight,
    bergman_weight,
    check_balancing,
    cremona_flag,
    cremona_pullback_weight,
    flag_span_coefficients,
    fundamental_weight,
    incidence_vector,
    permutohedral_weight,
    validate_flag,
)
from matfan.masks import full_mask
from matfan.matroid import FreeMatroid, GraphicMatroid, RankTableMatroid

from oracles import flag_generators, unimodularity_factors


# -- lattice points of subsets ----------------------------------------------


def test_incidence_examples():
    # Subsets without element 0 are 0/1 indicator vectors.
    assert incidence_vector(4, 0b01010) == (1, 0, 1, 0)
    assert incidence_vector(2, 0b010) == (1, 0)
    # Element 0 maps to minus the all-ones vector, and subsets through 0
    # to minus the indicator of the complement.
    assert incidence_vector(2, 0b001) == (-1, -1)
    assert incidence_vector(2, 0b101) == (-1, 0)


def test_incidence_complement_pairs_cancel():
    for n in (1, 2, 3, 4):
        top = full_mask(n + 1)
        for mask in range(1, top):
            a = incidence_vector(n, mask)
            b = incidence_vector(n, top ^ mask)
            assert all(x + y == 0 for x, y in zip(a, b))


def test_incidence_rejects_improper_subsets():
    with pytest.raises(ValueError):
        incidence_vector(2, 0)
    with pytest.raises(ValueError):
        incidence_vector(2, 0b111)


def test_validate_flag():
    validate_flag(3, (0b0001, 0b0011, 0b0111))
    validate_flag(3, ())
    with pytest.raises(ValueError):
        validate_flag(3, (0b0011, 0b0001))  # decreasing
    with pytest.raises(ValueError):
        validate_flag(3, (0b0001, 0b0110))  # not nested
    with pytest.raises(ValueError):
        validate_flag(3, (0b1111,))  # improper


# -- the weight container -----------------------------------------------------


def test_weight_drops_zeros_and_sorts():
    w = MinkowskiWeight(2, 1, {(4,): 0, (2,): 3, (1,): 1})
    assert w.support() == [(1,), (2,)]
    assert w.value((4,)) == 0
    assert w.value((2,)) == 3


def test_weight_validates_cone_dimensions():
    with pytest.raises(ValueError):
        MinkowskiWeight(2, 1, {(1, 3): 1})  # wrong flag length
    with pytest.raises(ValueError):
        MinkowskiWeight(2, 3, {})  # codim out of range


def test_weight_addition_cancels():
    a = MinkowskiWeight(2, 1, {(1,): 2, (2,): 1})
    b = MinkowskiWeight(2, 1, {(1,): -2, (4,): 5})
    total = a + b
    assert total.weights == {(2,): 1, (4,): 5}
    with pytest.raises(ValueError):
        a + MinkowskiWeight(2, 2, {(): 1})


def test_weight_equality_is_structural():
    a = MinkowskiWeight(2, 1, {(1,): 1, (2,): 1})
    b = MinkowskiWeight(2, 1, {(2,): 1, (1,): 1, (4,): 0})
    assert a == b


# -- matroid fans -------------------------------------------------------------


def test_bergman_smallest_line():
    w = bergman_weight(corpus.build("u-2-3"))
    assert (w.n, w.codim) == (2, 1)
    assert w.weights == {(1,): 1, (2,): 1, (4,): 1}


def test_bergman_k4():
    w = bergman_weight(corpus.build("k4"))
    assert (w.n, w.codim) == (5, 3)
    assert len(w.weights) == 18
    assert all(v == 1 for v in w.weights.values())
    # Every cone is a (rank-1 flat, rank-2 flat) chain.
    m = GraphicMatroid(4, corpus.K4_EDGES)
    for f1, f2 in w.support():
        assert m.is_flat(f1) and m.is_flat(f2)
        assert m.rank(f1) == 1 and m.rank(f2) == 2
        assert f1 & f2 == f1


def test_bergman_fano_has_21_cones():
    w = bergman_weight(corpus.build("fano"))
    assert len(w.weights) == 21


def test_bergman_free_is_permutohedral():
    # All proper subsets are flats, so the fan is the complete flag fan.
    w = bergman_weight(FreeMatroid(3))
    assert len(w.weights) == 6
    assert w == permutohedral_weight(2, 0)


def test_bergman_rejects_loops():
    with pytest.raises(ValueError):
        bergman_weight(RankTableMatroid(2, [0, 0, 1, 1]))


def test_bergman_rank_one_point():
    w = bergman_weight(FreeMatroid(1))
    assert (w.n, w.codim) == (0, 0)
    assert w.weights == {(): 1}


# -- graded free fans ----------------------------------------------------------


def test_permutohedral_counts():
    # Maximal flags of proper subsets of an (n+1)-set: (n+1)!.
    for n in range(4):
        assert len(permutohedral_weight(n, 0).weights) == math.factorial(n + 1)
    # One step shorter: (n+1)! / 2.
    assert len(permutohedral_weight(3, 1).weights) == 12


def test_permutohedral_is_truncated_free_fan():
    for k in range(4):
        expected = bergman_weight(FreeMatroid(4).truncate(3 - k))
        assert permutohedral_weight(3, k) == expected


def test_permutohedral_top_codim():
    w = permutohedral_weight(3, 3)
    assert w.weights == {(): 1}


def test_fundamental_weight():
    w = fundamental_weight(2)
    assert w.codim == 0
    assert all(v == 1 for v in w.weights.values())


def test_permutohedral_bounds():
    with pytest.raises(ValueError):
        permutohedral_weight(2, 3)


# -- flag spans ------------------------------------------------------------------


@st.composite
def flags(draw):
    """A random flag on {0..n}, n <= 8: prefixes of a random ordering."""
    n = draw(st.integers(0, 8))
    order = draw(st.permutations(range(n + 1)))
    sizes = sorted(draw(st.sets(st.integers(1, n)))) if n else []
    return n, tuple(sum(1 << x for x in order[:size]) for size in sizes)


@settings(max_examples=300, deadline=None)
@given(flags(), st.data())
def test_flag_span_matches_rational_solve(flag_case, data):
    n, flag = flag_case
    gens = flag_generators(n, flag)
    if data.draw(st.booleans()):
        # Built inside the span from integer coefficients.
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(flag),
                                    max_size=len(flag)))
        target = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    else:
        # Arbitrary, and so mostly outside the span.
        target = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    expected = linalg.solve_in_span(gens, target)
    got = flag_span_coefficients(n, flag, target)
    assert got == expected
    assert got is None or all(isinstance(c, int) for c in got)


def test_flag_span_examples():
    # Flag ({1}, {1,2}) on {0,1,2}: blocks {1}, {2}, {0}.
    assert flag_span_coefficients(2, (0b010, 0b110), (3, 1)) == [2, 1]
    assert flag_span_coefficients(2, (0b010, 0b110), (1, 1)) == [0, 1]
    assert flag_span_coefficients(2, (0b010,), (1, 1)) is None
    assert flag_span_coefficients(2, (), (0, 0)) == []
    assert flag_span_coefficients(2, (), (0, 1)) is None


# -- balancing -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["u-2-3", "u-2-4", "u-3-5", "k4", "fano",
                                  "non-fano", "rt-whirl", "rt-one-line", "free-4"])
def test_corpus_fans_are_balanced(name):
    matroid = corpus.build(name)
    simple, _ = matroid.simplify()
    assert check_balancing(bergman_weight(simple)) == []


def test_permutohedral_weights_are_balanced():
    for n in range(4):
        for k in range(n + 1):
            assert check_balancing(permutohedral_weight(n, k)) == []


def test_single_cone_is_not_balanced():
    w = MinkowskiWeight(2, 0, {(0b010, 0b110): 1})
    violations = check_balancing(w)
    assert violations
    v = violations[0]
    assert isinstance(v, BalancingViolation)
    assert len(v.tau) == 1 and len(v.excess) == 2


def test_wrong_multiplicity_breaks_balancing():
    doubled = MinkowskiWeight(2, 1, {(1,): 2, (2,): 1, (4,): 1})
    assert check_balancing(doubled)
    assert check_balancing(bergman_weight(corpus.build("u-2-3"))) == []


def test_top_codimension_is_vacuously_balanced():
    assert check_balancing(MinkowskiWeight(2, 2, {(): 7})) == []


# -- the negation involution ----------------------------------------------------


def test_cremona_flag_reverses_complements():
    assert cremona_flag(2, (0b001, 0b011)) == (0b100, 0b110)
    assert cremona_flag(2, ()) == ()


def test_cremona_is_an_involution():
    for name in ("u-2-3", "k4", "fano"):
        w = bergman_weight(corpus.build(name))
        assert cremona_pullback_weight(cremona_pullback_weight(w)) == w


def test_cremona_fixes_the_complete_fan_only():
    w0 = permutohedral_weight(2, 0)
    assert cremona_pullback_weight(w0) == w0
    w1 = permutohedral_weight(2, 1)
    pulled = cremona_pullback_weight(w1)
    assert pulled != w1
    # Rays {0},{1},{2} map to the three 2-element complements.
    assert sorted(pulled.support()) == [(0b011,), (0b101,), (0b110,)]


def test_cremona_preserves_balancing():
    w = cremona_pullback_weight(bergman_weight(corpus.build("k4")))
    assert check_balancing(w) == []


def test_cremona_line_example():
    w = cremona_pullback_weight(bergman_weight(corpus.build("u-2-3")))
    assert w.weights == {(0b011,): 1, (0b101,): 1, (0b110,): 1}


# -- unimodularity ----------------------------------------------------------------


def test_flag_cones_are_unimodular():
    for name in ("k4", "fano"):
        w = bergman_weight(corpus.build(name))
        for flag in w.support():
            factors = unimodularity_factors(w.n, flag)
            assert factors == [1] * len(flag)


def test_complete_flags_are_unimodular():
    w = permutohedral_weight(3, 0)
    for flag in w.support():
        assert unimodularity_factors(3, flag) == [1, 1, 1]
    assert unimodularity_factors(3, ()) == []

"""Divisors, cup products, and the displacement-rule pairing."""

import ast
import gc
import json
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import matfan
from matfan import cli, corpus, intersect, linalg, validation
from matfan.charpoly import char_poly, count_descending_flags, is_log_concave, reduced_char_poly
from matfan.fan import (
    MinkowskiWeight,
    SizeGradedFlags,
    bergman_weight,
    check_balancing,
    cremona_flag,
    cremona_pullback_weight,
    permutohedral_weight,
)
from matfan.intersect import (
    DegenerateDisplacementError,
    NotBalancedError,
    alpha,
    beta,
    cone_displacement_intersect,
    default_displacement,
    displacement_weights,
    divisor_cup,
    pairing_terms,
)
from matfan.masks import full_mask
from matfan.matroid import FreeMatroid, RelabeledMatroid, UniformMatroid
from matfan.schema import load_matroid
from matfan.validation import (
    cup_chain,
    mu_vector_displacement,
    out_of_reach,
    run_check,
    terms_degree,
)

from oracles import (
    PLDivisor,
    alpha_divisor,
    certified_terms,
    cremona_pullback_divisor,
    displacement_reference,
    evaluate_in_cone,
    flag_generators,
    inertia,
    min_formula,
    nef_check,
    nef_values,
    oracle_divisor_cup,
    pairing_sweep_oracle,
    perturbed_displacement,
    transversal_pairing_oracle,
    truncation,
)
from strategies import RANDOM_MATROIDS, sparse_paving_documents


# -- piecewise-linear divisors ------------------------------------------------


def nonzero_rays(rule, n):
    return {mask: rule(mask) for mask in range(1, full_mask(n + 1)) if rule(mask)}


def test_alpha_divisor_ray_values():
    assert nonzero_rays(alpha, 2) == {0b001: -1, 0b011: -1, 0b101: -1}
    assert alpha(0b010) == 0


def test_divisor_rejects_improper_rays():
    with pytest.raises(ValueError):
        PLDivisor(2, {0: 1})
    with pytest.raises(ValueError):
        PLDivisor(2, {0b111: 1})


def test_divisor_arithmetic():
    a = alpha_divisor(2)
    zero = a - a
    assert zero.ray_values == {}
    double = a + a
    assert double.value(0b001) == -2
    assert (-a).value(0b011) == 1
    with pytest.raises(ValueError):
        a + alpha_divisor(3)


def test_divisor_json():
    d = PLDivisor(2, {0b010: 3, 0b001: -1})
    assert d.to_json() == {"rays": {"1": -1, "2": 3}}


def test_cremona_pullback_divisor():
    # Value on a ray is alpha on the complement: -1 exactly off 0.
    assert nonzero_rays(beta, 2) == {0b110: -1, 0b100: -1, 0b010: -1}
    assert all(beta(mask) == alpha(0b111 ^ mask) for mask in range(1, 0b111))


@pytest.mark.parametrize("n", range(1, 9))
def test_rules_match_the_ray_tables(n):
    table = alpha_divisor(n)
    pulled = cremona_pullback_divisor(table)
    assert cremona_pullback_divisor(pulled) == table
    masks = range(1, full_mask(n + 1))
    assert [alpha(mask) for mask in masks] == [table.value(mask) for mask in masks]
    assert [beta(mask) for mask in masks] == [pulled.value(mask) for mask in masks]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_alpha_evaluates_to_the_minimum_formula(data):
    # Pick a flag cone in a small fan and a nonnegative rational point in
    # it; the linear extension of alpha must equal min(0, x_1, ..., x_n).
    n = data.draw(st.integers(1, 3))
    support = list(permutohedral_weight(n, 0).weights)
    flag = data.draw(st.sampled_from(support))
    coeffs = [Fraction(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3)))
              for _ in flag]
    gens = flag_generators(n, flag)
    point = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
    assert evaluate_in_cone(alpha, flag, coeffs) == min_formula(point)


def test_evaluate_in_cone_shape_check():
    with pytest.raises(ValueError):
        evaluate_in_cone(alpha, (0b001,), (1, 2))


# -- cup products ---------------------------------------------------------------


def test_nef_values_of_alpha_are_zero_one():
    for n in (1, 2, 3):
        w = nef_values(alpha_divisor(n))
        assert set(w.weights.values()) <= {1}
        assert check_balancing(w) == []


def test_nef_checks():
    for n in (1, 2, 3):
        a = alpha_divisor(n)
        assert nef_check(a)
        assert nef_check(cremona_pullback_divisor(a))
        assert not nef_check(-a)
    assert nef_check(PLDivisor(0, {}))


def test_cup_is_linear_in_the_divisor():
    w = bergman_weight(corpus.build("k4"))
    a = alpha_divisor(w.n)
    b = cremona_pullback_divisor(a)
    both = divisor_cup((a + b).value, w)
    cup_a, cup_b = divisor_cup(a.value, w), divisor_cup(b.value, w)
    summed = {flag: cup_a.value(flag) + cup_b.value(flag)
              for flag in {*cup_a.weights, *cup_b.weights}}
    assert both == MinkowskiWeight(w.n, w.codim + 1, summed)


def test_cups_commute():
    w = bergman_weight(corpus.build("u-3-5"))
    assert divisor_cup(alpha, divisor_cup(beta, w)) == divisor_cup(beta, divisor_cup(alpha, w))


def test_cup_truncation_identity():
    for name in ("k4", "fano", "u-3-6"):
        matroid = corpus.build(name)
        r = matroid.full_rank - 1
        w = bergman_weight(matroid)
        cupped = divisor_cup(alpha, w)
        assert cupped == bergman_weight(truncation(matroid, r - 1))


def test_alpha_chain_ends_at_the_point():
    n = 2
    w = permutohedral_weight(n, 0)
    for _ in range(n):
        w = divisor_cup(alpha, w)
    assert w.weights == {(): 1}


def test_cup_of_top_codimension_raises():
    with pytest.raises(ValueError):
        divisor_cup(alpha, MinkowskiWeight(2, 2, {(): 1}))


@pytest.mark.parametrize("name", ["k4", "fano", "free-6", "k5"])
def test_cup_chain_matches_the_global_sweep_cup_by_cup(monkeypatch, name):
    # k5 is above the geometry limit, so cup_chain is called directly.
    cups = []

    def checked(d, weight):
        got = divisor_cup(d, weight)
        assert got == oracle_divisor_cup(d, weight)
        cups.append(got)
        return got

    monkeypatch.setattr(validation, "divisor_cup", checked)
    matroid = corpus.build(name)
    r = matroid.full_rank - 1
    degrees, _ = cup_chain(matroid)
    assert degrees == list(reduced_char_poly(char_poly(matroid))[1])
    # r alpha-cups, then k beta-cups for each degree k.
    assert len(cups) == r * (r + 3) // 2


def test_cup_chain_keeps_one_alpha_level_alive(monkeypatch):
    # At each cup only the alpha level and the beta-cup it feeds are
    # alive; the weights that existed before the route are not counted.
    gc.collect()
    kept = [o for o in gc.get_objects() if isinstance(o, MinkowskiWeight)]
    before = {id(o) for o in kept}
    live = []

    def counted(d, weight):
        live.append(sum(isinstance(o, MinkowskiWeight) and id(o) not in before
                        for o in gc.get_objects()))
        return divisor_cup(d, weight)

    monkeypatch.setattr(validation, "divisor_cup", counted)
    matroid = FreeMatroid(6)
    assert tuple(cup_chain(matroid)[0]) == reduced_char_poly(char_poly(matroid))[1]
    r = matroid.full_rank - 1
    assert len(live) == r * (r + 3) // 2
    assert max(live) <= 2


def test_cup_detects_unbalanced_weight():
    lone = MinkowskiWeight(2, 0, {(0b010, 0b110): 1})
    with pytest.raises(NotBalancedError) as exc:
        divisor_cup(alpha, lone)
    assert len(exc.value.tau) == 1


# -- mixed degrees of nef divisors -------------------------------------------------
#
# For nef divisors D1, D2 the mixed degrees deg(D1^(r-k) . D2^k . B) on the
# Bergman weight B of dimension r are log-concave in k: Huh-Katz for
# realizable matroids, Adiprasito-Huh-Katz (arXiv:1511.02888) for all.  The
# coefficients are the case (alpha, beta).  The nef divisors of the
# permutohedral fan are positive sums of simplices (Postnikov 2009).


def simplex_divisor(n, a, pulled=False):
    """m_A(S) = [A <= S] - [0 in S] for a nonempty A <= {0..n}, or its
    pullback along negation, m'_A(S) = [0 in S] - [A meets S], as a table."""
    rays = range(1, full_mask(n + 1))
    if pulled:
        values = {s: (s & 1) - bool(a & s) for s in rays}
    else:
        values = {s: (a & s == a) - (s & 1) for s in rays}
    return PLDivisor(n, {s: v for s, v in values.items() if v})


@st.composite
def simplex_sums(draw, n):
    # Counted down from the whole set, so that the simplest draw is alpha; a
    # singleton A gives a linear function, which has degree 0.
    top = full_mask(n + 1)
    sets = st.integers(0, top - 3).map(lambda x: top - x).filter(lambda a: a & (a - 1))
    d = PLDivisor(n, {})
    for a, pulled, times in draw(st.lists(
            st.tuples(sets, st.booleans(), st.integers(1, 3)), min_size=1, max_size=3)):
        for _ in range(times):
            d = d + simplex_divisor(n, a, pulled)
    return d


def mixed_degrees(matroid, d1, d2):
    """[deg(d1^(r-k) . d2^k . B) for k = 0..r], B the Bergman weight."""
    r = matroid.full_rank - 1
    degrees = []
    for k in range(r + 1):
        w = bergman_weight(matroid)
        for d in [d1] * (r - k) + [d2] * k:
            w = divisor_cup(d, w)
        degrees.append(w.value(()))
    return degrees


HODGE_SAMPLE = ["k4", "u-3-6", "fano", "u-4-7", "free-5"]


def test_simplex_divisors_of_the_whole_set_are_alpha_and_beta():
    for n in range(1, 6):
        top = full_mask(n + 1)
        assert simplex_divisor(n, top) == alpha_divisor(n)
        assert simplex_divisor(n, top, pulled=True) == cremona_pullback_divisor(alpha_divisor(n))


@pytest.mark.parametrize("name", HODGE_SAMPLE)
def test_alpha_and_beta_give_the_coefficients(name):
    matroid = corpus.build(name)
    n = matroid.size - 1
    alpha_table = simplex_divisor(n, full_mask(n + 1))
    beta_table = simplex_divisor(n, full_mask(n + 1), pulled=True)
    assert (mixed_degrees(matroid, alpha_table.value, beta_table.value)
            == list(reduced_char_poly(char_poly(matroid))[1]))


@pytest.mark.parametrize("name", HODGE_SAMPLE)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_mixed_degrees_of_nef_divisors_are_log_concave(name, data):
    matroid = corpus.build(name)
    n = matroid.size - 1
    d1, d2 = data.draw(simplex_sums(n)), data.draw(simplex_sums(n))
    assert nef_check(d1) and nef_check(d2)
    degrees = mixed_degrees(matroid, d1.value, d2.value)
    assert min(degrees) >= 0 and is_log_concave(degrees), degrees


@pytest.mark.parametrize("name", HODGE_SAMPLE)
def test_a_divisor_that_is_not_nef_breaks_the_inequality(name):
    # alpha - m_{1,2} with beta: the inequality has teeth.
    matroid = corpus.build(name)
    n = matroid.size - 1
    control = simplex_divisor(n, full_mask(n + 1)) - simplex_divisor(n, 0b110)
    assert not nef_check(control)
    degrees = mixed_degrees(matroid, control.value, beta)
    assert not (min(degrees) >= 0 and is_log_concave(degrees)), degrees


# -- the Hodge index theorem in degree 1 -------------------------------------------
#
# On the ray divisors D_F(S) = [S = F] of the proper flats F, the form
# Q(F, G) = deg(D_F . D_G . alpha^(r-2) . B) has at most one positive
# eigenvalue: the Hodge index theorem (Huh-Katz), which the Hodge-Riemann
# relations of Adiprasito-Huh-Katz give for every matroid.  On the flats,
# alpha is minus the sum of the D_F with 0 in F, and Q(alpha, alpha) =
# deg(alpha^r . B) = mu_0 = 1, so it has exactly one.  In rank 3 the form is
# the pairing of degree-1 classes into degree 2 of the Chow ring, which
# is perfect: its kernel is the n linear functions.


def hodge_form(matroid, d=alpha):
    """The proper flats of a simple matroid, by rank, and Q over them,
    with d in place of alpha."""
    strata, _ = matroid.flat_strata()
    flats = [f for level in strata[1:-1] for f in level]
    w = bergman_weight(matroid)
    for _ in range(matroid.full_rank - 3):
        w = divisor_cup(d, w)
    cupped = [divisor_cup(lambda s, f=f: int(s == f), w) for f in flats]
    return flats, [[divisor_cup(lambda s, g=g: int(s == g), wf).value(()) for g in flats]
                   for wf in cupped]


def assert_hodge_index(matroid):
    flats, form = hodge_form(matroid)
    a = [-(f & 1) for f in flats]
    assert sum(x * q * y for x, row in zip(a, form) for q, y in zip(row, a)) == 1
    positive, _, kernel = inertia(form)
    assert positive == 1
    if matroid.full_rank == 3:
        assert kernel == matroid.size - 1


@pytest.mark.parametrize("name", ["u-3-5", "k4", "fano", "u-4-6"])
def test_the_hodge_form_has_one_positive_eigenvalue(name):
    assert_hodge_index(corpus.build(name))


@settings(max_examples=25, deadline=None)
@given(sparse_paving_documents().filter(lambda doc: doc["ranks"][-1] == 3))
def test_the_hodge_form_has_one_positive_eigenvalue_on_sparse_paving_matroids(doc):
    assert_hodge_index(load_matroid(doc))


def test_a_divisor_that_is_not_nef_breaks_the_hodge_index():
    # alpha - m_{1,2} in place of alpha: the count has teeth.
    matroid = corpus.build("u-4-6")
    n = matroid.size - 1
    control = simplex_divisor(n, full_mask(n + 1)) - simplex_divisor(n, 0b110)
    _, form = hodge_form(matroid, control.value)
    assert inertia(form)[0] > 1


# -- displacement vectors ---------------------------------------------------------


def test_default_displacement():
    assert default_displacement(4) == (8, 4, 2, 1)
    assert all(type(c) is int for c in default_displacement(4))
    assert default_displacement(0) == ()


def one_to_n(n):
    """(1, 2, ..., n): positive and distinct, but often tied on two u's."""
    return tuple(Fraction(i) for i in range(1, n + 1))


def test_perturbed_displacement_window():
    rng = random.Random(11)
    v = perturbed_displacement(4, rng)
    for i, c in enumerate(v, start=1):
        assert Fraction(i) < c < Fraction(i + 1)
    assert all(a < b for a, b in zip(v, v[1:]))


def test_production_displacements_meet_the_pairing_contract():
    # pairing_terms refuses tied or non-positive vectors, so the default
    # and the oracles' perturbations must be positive with distinct
    # coordinates.
    for n in range(31):
        vectors = [default_displacement(n)]
        vectors += [perturbed_displacement(n, random.Random(seed)) for seed in range(20)]
        for v in vectors:
            assert len(v) == n and meets_pairing_contract(v)


def test_perturbed_displacement_is_seed_deterministic():
    a = perturbed_displacement(3, random.Random(5))
    b = perturbed_displacement(3, random.Random(5))
    assert a == b


# -- single-pair intersections ------------------------------------------------------


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def test_intersect_two_dim_cone_with_point():
    # Cone of the flag ({2}, {1,2}) is x2 >= x1 >= 0; (1,2) is interior.
    hit = cone_displacement_intersect(2, (0b100, 0b110), (), frac(1, 2))
    assert hit == (frac(1, 2), 1)
    # The mirror flag needs the mirrored displacement.
    hit = cone_displacement_intersect(2, (0b010, 0b110), (), frac(2, 1))
    assert hit == (frac(2, 1), 1)
    # Outside the mirror cone the pair is empty, which only the
    # reference classifies; the solver refuses it.
    assert displacement_reference(2, (0b010, 0b110), (), frac(1, 2)) is None
    with pytest.raises(ValueError, match="transversally"):
        cone_displacement_intersect(2, (0b010, 0b110), (), frac(1, 2))


def test_intersect_boundary_tie_is_refused():
    assert displacement_reference(2, (0b010, 0b110), (), frac(1, 1)) == "boundary tie"
    with pytest.raises(ValueError, match="transversally"):
        cone_displacement_intersect(2, (0b010, 0b110), (), frac(1, 1))


def test_intersect_singular_cases():
    # Same ray on both sides: the system is singular, and the block graph
    # is not connected.  Whether the pair is degenerate depends on the
    # displacement hitting the common line; the solver refuses both.
    for v, verdict in ((frac(1, 0), "degenerate span"), (frac(1, 1), None)):
        assert displacement_reference(2, (0b010,), (0b010,), v) == verdict
        with pytest.raises(ValueError, match="transversally"):
            cone_displacement_intersect(2, (0b010,), (0b010,), v)


def test_intersect_ray_against_ray():
    # sigma = ray of {1}, tau = ray of {0,1}; tau + v crosses sigma.
    hit = cone_displacement_intersect(2, (0b010,), (0b011,), frac(1, 2))
    assert hit is not None
    point, index = hit
    assert index == 1
    # The point lies on the sigma ray: second coordinate zero.
    assert point[1] == 0


def test_intersect_trivial_dimension():
    assert cone_displacement_intersect(0, (), (), ()) == ((), 1)


def test_intersect_validates_dimensions():
    with pytest.raises(ValueError):
        cone_displacement_intersect(2, (0b010,), (), frac(1, 2))


@st.composite
def flag_of_length(draw, n, length, rooted=False):
    """A random flag of `length` proper nonempty subsets of {0..n}; with
    rooted, its first subset holds 0."""
    if length == 0:
        return ()
    order = [0, *draw(st.permutations(range(1, n + 1)))] if rooted else draw(
        st.permutations(range(n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n), min_size=length, max_size=length)))
    return tuple(sum(1 << x for x in order[:cut]) for cut in cuts)


@st.composite
def flag_pairs(draw):
    """(n, sigma, tau) with len(sigma) + len(tau) == n, n <= 7."""
    n = draw(st.integers(0, 7))
    a = draw(st.integers(0, n))
    return n, draw(flag_of_length(n, a)), draw(flag_of_length(n, n - a))


def displacements(n):
    return st.one_of(
        st.just(default_displacement(n)),
        st.tuples(*[st.integers(-2, 3).map(Fraction)] * n),
        st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * n),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tree_solve_matches_bareiss_reference(data):
    # Where the reference finds a transversal pair, the tree solve gives
    # its point and index; every empty, degenerate or tied pair raises.
    n, sigma, tau = data.draw(flag_pairs())
    v = data.draw(displacements(n))
    expected = displacement_reference(n, sigma, tau, v)
    if isinstance(expected, tuple):
        assert cone_displacement_intersect(n, sigma, tau, v) == expected
    else:
        with pytest.raises(ValueError, match="transversally"):
            cone_displacement_intersect(n, sigma, tau, v)


def tied_displacements(n):
    """Vectors of at most three distinct values, so that ties are common;
    most of them are positive, so the sign test applies."""
    values = st.sampled_from((-1, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2))).map(Fraction)
    return st.lists(values, min_size=1, max_size=3).flatmap(
        lambda pool: st.tuples(*[st.sampled_from(pool)] * n))


def distinct_positive_displacements(n):
    """Vectors that pairing_terms accepts: positive, no two coordinates
    equal.  (1, ..., n) and its permutations often tie two u's."""
    return st.one_of(
        st.just(default_displacement(n)),
        st.just(one_to_n(n)),
        st.permutations(range(1, n + 1)).map(lambda p: tuple(map(Fraction, p))),
        st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4),
                 min_size=n, max_size=n, unique=True).map(tuple),
    )


def meets_pairing_contract(v):
    return all(c > 0 for c in v) and len(set(v)) == len(v)


def _sweep_outcome(sweep, w1, w2, v):
    try:
        return sweep(w1, w2, v)
    except DegenerateDisplacementError:
        return "degenerate"


@st.composite
def pairing_supports(draw):
    """(w1, w2): the permutohedral weight of codimension k against a
    random support of codimension n-k, n <= 5."""
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, n))
    flags = draw(st.lists(flag_of_length(n, k), min_size=1, max_size=4))
    w2 = MinkowskiWeight(n, n - k, {flag: draw(st.sampled_from((1, -1, 2))) for flag in flags})
    return permutohedral_weight(n, k), w2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_located_pairs_match_the_full_sweep(data):
    # Random supports of codimension n-k against the permutohedral weight:
    # the located terms, their order and the degeneracy verdict must be
    # those of the sweep over every pair with the sign prefilter.  A vector
    # with a tied, zero or negative coordinate is refused outright.
    w1, w2 = data.draw(pairing_supports())
    n = w1.n
    v = data.draw(st.one_of(distinct_positive_displacements(n), displacements(n),
                            tied_displacements(n)))
    if meets_pairing_contract(v):
        assert _sweep_outcome(pairing_terms, w1, w2, v) == _sweep_outcome(
            pairing_sweep_oracle, w1, w2, v)
    else:
        with pytest.raises(ValueError, match="distinct"):
            pairing_terms(w1, w2, v)
    # The default is generic for every support: no tie, and the sweep's terms.
    default = default_displacement(n)
    assert pairing_terms(w1, w2, default) == pairing_sweep_oracle(w1, w2, default)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scaling_the_vector_scales_the_points(data):
    # Points are computed in v's own numbers: clearing v's denominators
    # by c keeps the pairs, their order and the degree, scales each
    # point by c and leaves it in ints.
    w1, w2 = data.draw(pairing_supports())
    n = w1.n
    v = data.draw(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4),
                           min_size=n, max_size=n, unique=True).map(tuple))
    c = math.lcm(*(x.denominator for x in v))
    scaled = tuple(int(c * x) for x in v)
    terms = _sweep_outcome(pairing_terms, w1, w2, v)
    scaled_terms = _sweep_outcome(pairing_terms, w1, w2, scaled)
    if terms == "degenerate":
        assert scaled_terms == "degenerate"
        return
    assert scaled_terms == [t._replace(point=tuple(c * x for x in t.point)) for t in terms]
    assert all(type(x) is int for t in scaled_terms for x in t.point)
    assert terms_degree(w1, w2, scaled_terms) == terms_degree(w1, w2, terms)


@pytest.mark.parametrize("n, k, support, v, outcome", [
    # R = {0, 1} = T_1 misses T_0 = {2}, and v_0 = v_1: a degenerate span.
    (2, 1, [(0b100,)], (0, 1), "degenerate"),
    # The same under a positive v: R holds T_1 = {1, 3}, and v_1 = v_3.
    (3, 2, [(0b0001, 0b1011)], (Fraction(5, 2), Fraction(1, 2), Fraction(5, 2)), "degenerate"),
    # Positive v and v_3 = v_4 in T_3 = {3, 4}, but with 0 in T_2 only
    # {0, 3, 4} are negative rays or 0: too few for R, so no pair survives
    # the sign test.
    (4, 3, [(0b00010, 0b00110, 0b00111)], (1, 2, 3, 3), []),
    # The transversal R = {2, 0} has v_2 = v_0: a zero coefficient on tau.
    (2, 1, [(0b110,)], (-1, 0), "degenerate"),
    # Positive v; on the transversal R = {0, 3, 1}, u = 1 on 2, 4 and 5.
    # Those are not negative rays of tau, so no degenerate span covers them.
    (5, 2, [(0b110101, 0b111101)], (1, 1, 2, 1, 1), "degenerate"),
    # Positive, distinct v; on the transversal R = {0, 2}, u = 1 on 1 and 3.
    (3, 1, [(0b0011,)], (1, 2, 3), "degenerate"),
    # Only R = {0, 2, 4} ties, u_1 = u_3 = 1, and v decreases along it
    # (0, 3, 2), so the tie is on a transversal that cannot hit.
    (4, 2, [(0b00011, 0b01111)], (1, 3, 4, 2), "degenerate"),
    # v_4 = 5 leaves every u distinct; the candidate R = {0, 2, 4} still
    # cannot hit.
    (4, 2, [(0b00011, 0b01111)], (1, 3, 5, 2), []),
])
def test_located_pairs_on_each_kind_of_tie(n, k, support, v, outcome):
    # The sweep classifies every tie; pairing_terms accepts only positive
    # vectors with distinct coordinates, where two equal u's are the one
    # tie left.
    w1 = permutohedral_weight(n, k)
    w2 = MinkowskiWeight(n, n - k, {flag: 1 for flag in support})
    v = tuple(map(Fraction, v))
    assert _sweep_outcome(pairing_sweep_oracle, w1, w2, v) == outcome
    if meets_pairing_contract(v):
        assert _sweep_outcome(pairing_terms, w1, w2, v) == outcome
    else:
        with pytest.raises(ValueError, match="distinct"):
            pairing_terms(w1, w2, v)


def _verdict(pairing, w1, w2, v):
    try:
        return pairing(w1, w2, v)
    except DegenerateDisplacementError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_candidate_per_cone_matches_every_transversal(data):
    # Past the full sweep's reach, up to n = 10: the one candidate per
    # cone and the tie test on within-block differences must give the
    # terms, order, verdict and message of a test on every transversal.
    # Rooted flags have a transversal, and vectors from small integer
    # pools repeat their differences, so ties are common.
    n = data.draw(st.integers(0, 10))
    k = data.draw(st.integers(0, n))
    flags = data.draw(st.lists(st.sampled_from((True, True, False)).flatmap(
        lambda rooted: flag_of_length(n, k, rooted)), min_size=1, max_size=4))
    w1 = permutohedral_weight(n, k)
    w2 = MinkowskiWeight(n, n - k, dict.fromkeys(flags, 1))
    v = data.draw(st.lists(st.integers(1, n + 3), min_size=n, max_size=n, unique=True))
    assert _verdict(pairing_terms, w1, w2, v) == _verdict(transversal_pairing_oracle, w1, w2, v)


def test_pairing_names_one_candidate_per_cone():
    # Twenty cones in n = 30, each with T_0 = {0} and ten 3-element
    # blocks whose largest elements decrease: 3^10 transversals apiece.
    # Under the default vector a block's largest element is its v-least,
    # so exactly one transversal of each cone hits.
    n, k = 30, 10
    rng = random.Random(7)
    flags = set()
    while len(flags) < 20:
        rest = rng.sample(range(1, n + 1), n)
        blocks = sorted((rest[i:i + 3] for i in range(0, n, 3)), key=max, reverse=True)
        flags.add(tuple(accumulate((sum(1 << x for x in b) for b in blocks[:k - 1]),
                                   operator.or_, initial=1)))
    w1 = permutohedral_weight(n, k)
    w2 = MinkowskiWeight(n, n - k, dict.fromkeys(flags, 1))
    v = default_displacement(n)
    start = time.perf_counter()
    terms = pairing_terms(w1, w2, v)
    assert time.perf_counter() - start < 1
    assert len(terms) == 20 and {t.tau for t in terms} == flags
    for t in terms:
        assert displacement_reference(n, t.sigma, t.tau, v) == (t.point, 1)


@pytest.mark.parametrize("matroid", [UniformMatroid(3, 9), UniformMatroid(4, 9)])
def test_displacement_never_enumerates_the_permutohedral_weight(monkeypatch, matroid):
    def refuse(self):
        raise AssertionError("permutohedral weight enumerated")

    monkeypatch.setattr(SizeGradedFlags, "__iter__", refuse)
    report = run_check(matroid).report
    assert report["pass"]
    assert report["mu"]["displacement"] == report["mu"]["flags"]


def test_production_never_calls_the_generic_solvers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic solver called from production")

    monkeypatch.setattr(linalg, "solve_square_int", refuse)
    monkeypatch.setattr(linalg, "solve_in_span", refuse)
    for name, mu in (("k4", [1, 5, 6]), ("fano", [1, 6, 8])):
        matroid = corpus.build(name)
        traced = []
        result = run_check(matroid, trace=lambda k, term: traced.append(term))
        assert result.internal_error is None and result.ok
        assert result.report["mu"] == {method: mu for method in
                                       ("mobius", "flags", "divisor", "displacement")}
        assert len(traced) == sum(mu)
        assert all(term.index == 1 and len(term.point) == matroid.size - 1
                   for term in traced)


def test_production_imports_no_random():
    # The displacement vector is generic by construction; nothing in the
    # package draws at random.
    package = Path(matfan.__file__).parent
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "random" for name in names), module.name


def test_the_package_defines_no_generic_solver():
    # The generic solvers are test oracles; the package may only bind
    # their names to None, which the benchmark's tracer looks up.
    solvers = {"solve_square_int", "solve_in_span"}
    package = Path(matfan.__file__).parent
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name not in solvers, f"{module.name}:{node.lineno}"
            elif isinstance(node, ast.Assign):
                bound = {t.id for target in node.targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)}
                assert not (bound & solvers) or (
                    isinstance(node.value, ast.Constant) and node.value.value is None
                ), f"{module.name}:{node.lineno}"


# -- full pairings ---------------------------------------------------------------


def test_degree_pairing_shape_checks():
    w1 = permutohedral_weight(2, 1)
    with pytest.raises(ValueError):
        pairing_terms(w1, permutohedral_weight(3, 2), default_displacement(2))
    with pytest.raises(ValueError):
        pairing_terms(w1, permutohedral_weight(2, 0), default_displacement(2))
    with pytest.raises(ValueError):
        pairing_terms(w1, permutohedral_weight(2, 1), default_displacement(3))
    # Pairs are located only against the permutohedral weight, even when
    # a table holds the same flags.
    with pytest.raises(ValueError, match="permutohedral_weight"):
        pairing_terms(MinkowskiWeight(2, 1, {(0b011,): 1}), permutohedral_weight(2, 1),
                      default_displacement(2))
    with pytest.raises(ValueError, match="permutohedral_weight"):
        pairing_terms(MinkowskiWeight(2, 1, dict(w1.weights.items())), permutohedral_weight(2, 1),
                      default_displacement(2))


def test_pairing_line_by_hand():
    # Level 1 of the three-point line: two transversal pairs, index 1.
    w1, w2 = displacement_weights(corpus.build("u-2-3"), 1)
    terms = pairing_terms(w1, w2, default_displacement(2))
    assert len(terms) == 2
    assert {t.sigma for t in terms} == {(0b010,), (0b100,)}
    assert all(t.index == 1 for t in terms)
    assert terms_degree(w1, w2, pairing_terms(w1, w2, default_displacement(2))) == 2


def test_default_pairing_points_are_ints():
    matroid = corpus.build("k4")
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        terms = pairing_terms(w1, w2, default_displacement(w1.n))
        assert terms and all(type(c) is int for t in terms for c in t.point)


def test_pairing_level_zero_point_is_the_displacement():
    w1, w2 = displacement_weights(corpus.build("k4"), 0)
    v = default_displacement(5)
    terms = pairing_terms(w1, w2, v)
    assert len(terms) == 1
    assert terms[0].tau == ()
    assert terms[0].point == v
    assert terms[0].index == 1


def test_pairing_certifies_the_vector():
    w1, w2 = displacement_weights(corpus.build("u-2-3"), 1)
    # Certified means that the sweep returns; it records nothing on its
    # arguments, so a list serves as well as a tuple.
    v = list(default_displacement(2))
    before = (list(v), dict(w1.weights), dict(w2.weights))
    assert terms_degree(w1, w2, pairing_terms(w1, w2, v)) == 2
    assert (v, dict(w1.weights), dict(w2.weights)) == before


def test_certified_pairing_retries_past_degeneracy():
    # At level 2 of k4, (1, ..., n) ties two u's: the sweep is degenerate,
    # and the oracles' retry certifies mu_2 = 6 under a perturbed vector.
    # The default certifies the same degree on its first try.
    w1, w2 = displacement_weights(corpus.build("k4"), 2)
    bad = one_to_n(w1.n)
    with pytest.raises(DegenerateDisplacementError):
        pairing_terms(w1, w2, bad)
    terms, used, first = certified_terms(w1, w2, random.Random(0), bad)
    assert terms_degree(w1, w2, terms) == 6
    assert pairing_terms(w1, w2, used) == terms
    assert not first
    assert used != bad
    assert terms_degree(w1, w2, pairing_terms(w1, w2, default_displacement(w1.n))) == 6


def test_a_tie_in_check_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # A tie under the default is a broken invariant, not a retry.
    def tied(w1, w2, v):
        return pairing_terms(w1, w2, one_to_n(w1.n))

    monkeypatch.setattr(validation, "pairing_terms", tied)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"type": "graphic", "vertices": 4,
                                "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    assert cli.main(["check", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith("DegenerateDisplacementError")
    assert report["pass"] is False


def test_a_located_pair_that_misses_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # Ordering sigma's singletons by increasing u names cones that miss
    # tau + v.  The solver refuses such a pair, so check exits 3 instead
    # of dropping it and reporting disagreeing routes.
    monkeypatch.setattr(intersect, "sorted", lambda items, key, reverse: sorted(items, key=key),
                        raising=False)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"type": "graphic", "vertices": 4,
                                "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    assert cli.main(["check", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith("ValueError")
    assert "do not meet transversally" in report["error"]
    assert report["pass"] is False


def test_certified_pairing_is_deterministic():
    w1, w2 = displacement_weights(corpus.build("fano"), 1)
    v = one_to_n(w1.n)
    a_terms, a_used, _ = certified_terms(w1, w2, random.Random(9), v)
    b_terms, b_used, _ = certified_terms(w1, w2, random.Random(9), v)
    assert terms_degree(w1, w2, a_terms) == terms_degree(w1, w2, b_terms) == 6
    assert a_used == b_used


def test_displacement_weights_shapes():
    m = corpus.build("k4")
    for k in range(3):
        w1, w2 = displacement_weights(m, k)
        assert w1.codim + w2.codim == w1.n == w2.n
    with pytest.raises(ValueError):
        displacement_weights(m, 3)
    with pytest.raises(ValueError):
        displacement_weights(m, -1)


# -- the two geometric coefficient routes ------------------------------------------


GEOMETRY_SAMPLE = ["u-1-2", "u-2-3", "u-2-5", "u-3-6", "free-4", "k4",
                   "fano", "non-fano", "rt-whirl", "rt-one-line"]


@pytest.mark.parametrize("name", GEOMETRY_SAMPLE)
def test_displacement_route_matches_mobius(name):
    matroid = corpus.build(name)
    assert mu_vector_displacement(matroid) == reduced_char_poly(char_poly(matroid))[1]


@pytest.mark.parametrize("name", GEOMETRY_SAMPLE)
def test_located_pairs_match_the_full_sweep_on_the_corpus(name):
    # Real supports, where many cones of w2 meet: same terms, same order.
    matroid = corpus.build(name)
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        for v in (default_displacement(w1.n), perturbed_displacement(w1.n, random.Random(k))):
            assert _sweep_outcome(pairing_terms, w1, w2, v) == _sweep_outcome(
                pairing_sweep_oracle, w1, w2, v)


def v_descending_chains(matroid, k, v):
    """Chains of flats of ranks 1..k, innermost first, whose v-least
    elements strictly decrease in v (lifted by v_0 = 0), with the top
    flat avoiding 0; the flats by brute force over every subset."""
    lifted = (0, *v)
    full = full_mask(matroid.size)
    flats = [[] for _ in range(k + 1)]
    for s in range(full + 1):
        rank = matroid.rank(s)
        if rank <= k and all(matroid.rank(s | 1 << x) > rank
                             for x in range(matroid.size) if not s >> x & 1):
            flats[rank].append(s)

    def least(f):
        return min(lifted[x] for x in range(matroid.size) if f >> x & 1)

    chains = [()]
    for rank in range(1, k + 1):
        chains = [(*c, g) for c in chains for g in flats[rank]
                  if not g & 1 and (not c or not c[-1] & ~g and least(g) < least(c[-1]))]
    return sorted(chains)


BIJECTION_SAMPLE = ["k4", "fano", "non-fano", "free-6", "rt-whirl", "u-3-7"]


@pytest.mark.parametrize("name", BIJECTION_SAMPLE)
def test_displacement_terms_are_the_v_descending_flags(name):
    # A located pair needs each block of tau to meet R in its v-least
    # element, so the Cremona images of the terms' taus are the flags
    # that descend in v's order: once each, for the default and shuffles.
    matroid = corpus.build(name)
    n = matroid.size - 1
    default = default_displacement(n)
    vectors = [default] + [tuple(random.Random(seed).sample(default, n)) for seed in range(3)]
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        for v in vectors:
            terms = pairing_terms(w1, w2, v)
            assert sorted(cremona_flag(n, t.tau) for t in terms) == v_descending_chains(
                matroid, k, v), (k, v)


@pytest.mark.parametrize("name", BIJECTION_SAMPLE)
def test_default_terms_are_not_the_flags_that_count_flags(name):
    # count_descending_flags counts the chains whose least elements
    # decrease: the v-descending ones for v = (1, 2, 4, ...).  The
    # default's terms are another set of chains, of the same size at every
    # level, so the flags and displacement routes do not count one set.
    matroid = corpus.build(name)
    n = matroid.size - 1
    images, chains = [], []
    for k in range(matroid.full_rank):
        terms = pairing_terms(*displacement_weights(matroid, k), default_displacement(n))
        images.append(sorted(cremona_flag(n, t.tau) for t in terms))
        chains.append(v_descending_chains(matroid, k, tuple(1 << i for i in range(n))))
    assert [len(c) for c in images] == [len(c) for c in chains]
    assert images != chains


@pytest.mark.parametrize("name", GEOMETRY_SAMPLE)
def test_divisor_route_matches_mobius(name):
    matroid = corpus.build(name)
    assert tuple(cup_chain(matroid)[0]) == reduced_char_poly(char_poly(matroid))[1]


def test_cup_chain_reads_no_ray_tables():
    # alpha and beta are rules, so the chain holds only the weights it
    # builds, the base included: tables of all 2^17 rays would take
    # megabytes.
    matroid = UniformMatroid(2, 17)
    tracemalloc.start()
    try:
        degrees, _ = cup_chain(matroid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees == [1, 16]
    assert peak < 1 << 20


def test_divisor_route_at_thirty_one_elements():
    # 2^30 rays: no ray table of this fan fits in memory.
    matroid = UniformMatroid(3, 31)
    assert tuple(cup_chain(matroid)[0]) == reduced_char_poly(char_poly(matroid))[1] == (1, 30, 435)


def test_both_routes_on_the_rational_configuration():
    m = corpus.build("non-fano")
    assert tuple(cup_chain(m)[0]) == (1, 6, 9)
    assert mu_vector_displacement(m) == (1, 6, 9)


def test_mu_level_bounds():
    # u(2,3) has coefficients 0..1 only: neither route reaches level 2 or -1.
    m = corpus.build("u-2-3")
    degrees, _ = cup_chain(m)
    assert len(degrees) == m.full_rank
    top = divisor_cup(alpha, bergman_weight(m))
    with pytest.raises(ValueError):
        divisor_cup(alpha, top)
    with pytest.raises(ValueError):
        displacement_weights(m, 2)
    with pytest.raises(ValueError):
        displacement_weights(m, -1)


def test_explicit_displacement_vector_is_used():
    w1, w2 = displacement_weights(corpus.build("u-2-3"), 1)
    v = frac(Fraction(3, 2), Fraction(7, 3))
    terms, used, first = certified_terms(w1, w2, random.Random(0), v)
    assert terms_degree(w1, w2, terms) == 2
    assert used is v and first
    assert pairing_terms(w1, w2, used) == terms


def test_pairing_respects_weight_multiplicities():
    # Doubling one side doubles the degree.
    w1, w2 = displacement_weights(corpus.build("u-2-3"), 1)
    doubled = MinkowskiWeight(w2.n, w2.codim,
                              {f: 2 * c for f, c in w2.weights.items()})
    v = default_displacement(2)
    degree = terms_degree(w1, w2, pairing_terms(w1, w2, v))
    assert terms_degree(w1, doubled, pairing_terms(w1, doubled, v)) == 2 * degree


# -- relabelling ----------------------------------------------------------------
#
# alpha and beta read element 0, default_displacement orders the elements
# and count_descending_flags orders chains by their least elements, but the
# coefficients do not depend on the labels.  Only vectors are compared: the
# traced terms do depend on them.


def assert_routes_ignore_the_labels(simple, permutation):
    relabelled = RelabeledMatroid(simple, permutation)
    blocked = out_of_reach(simple, balancing=False)
    routes = [lambda m: reduced_char_poly(char_poly(m))[1], count_descending_flags]
    if "divisor" not in blocked:
        routes.append(lambda m: cup_chain(m)[0])
    if "displacement" not in blocked:
        routes.append(mu_vector_displacement)
    for route in routes:
        assert tuple(route(simple)) == tuple(route(relabelled)), (simple.name, permutation)


@settings(max_examples=60, deadline=None)
@given(RANDOM_MATROIDS, st.data())
def test_every_route_ignores_the_labels(matroid, data):
    assume(matroid.full_rank > 0)
    simple = matroid.simplify()[0]
    assert_routes_ignore_the_labels(simple, data.draw(st.permutations(range(simple.size))))


@pytest.mark.parametrize("name", [
    name for name in corpus.CORPUS_NAMES
    if corpus.build(name).simplify()[0].size - 1 <= validation.GEOMETRY_LIMIT])
def test_every_route_ignores_the_labels_on_the_corpus(name):
    simple = corpus.build(name).simplify()[0]
    permutation = list(range(simple.size))
    random.Random(name).shuffle(permutation)
    assert_routes_ignore_the_labels(simple, permutation)

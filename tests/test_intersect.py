"""Divisors, cup products, and the displacement-rule pairing."""

import ast
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matfan
from matfan import cli, corpus, linalg, validation
from matfan.charpoly import mu_vector_mobius
from matfan.fan import (
    MinkowskiWeight,
    SizeGradedFlags,
    bergman_weight,
    check_balancing,
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
    degree_pairing,
    displacement_weights,
    divisor_cup,
    pairing_terms,
)
from matfan.masks import full_mask
from matfan.matroid import FreeMatroid, UniformMatroid
from matfan.validation import (
    cup_chain,
    mu_vector_displacement,
    mu_vector_divisors,
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
    min_formula,
    nef_check,
    nef_values,
    oracle_divisor_cup,
    pairing_sweep_oracle,
    perturbed_displacement,
    truncation,
)


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
    _, degrees = cup_chain(bergman_weight(matroid))
    assert degrees == list(mu_vector_mobius(matroid))
    # r alpha-cups, then k beta-cups for each degree k.
    assert len(cups) == r * (r + 3) // 2


def test_cup_detects_unbalanced_weight():
    lone = MinkowskiWeight(2, 0, {(0b010, 0b110): 1})
    with pytest.raises(NotBalancedError) as exc:
        divisor_cup(alpha, lone)
    assert len(exc.value.tau) == 1


# -- displacement vectors ---------------------------------------------------------


def test_default_displacement():
    assert default_displacement(4) == (Fraction(1), Fraction(2), Fraction(4), Fraction(8))
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
    assert cone_displacement_intersect(2, (0b010, 0b110), (), frac(1, 2)) is None


def test_intersect_boundary_tie_is_degenerate():
    with pytest.raises(DegenerateDisplacementError):
        cone_displacement_intersect(2, (0b010, 0b110), (), frac(1, 1))


def test_intersect_singular_cases():
    # Same ray on both sides: the system is singular; whether it is
    # degenerate depends on the displacement hitting the common line.
    with pytest.raises(DegenerateDisplacementError):
        cone_displacement_intersect(2, (0b010,), (0b010,), frac(1, 0))
    assert cone_displacement_intersect(2, (0b010,), (0b010,), frac(1, 1)) is None


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
def flag_of_length(draw, n, length):
    """A random flag of `length` proper nonempty subsets of {0..n}."""
    if length == 0:
        return ()
    order = draw(st.permutations(range(n + 1)))
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


def tree_classification(n, sigma, tau, v):
    """cone_displacement_intersect's answer in the reference's terms."""
    try:
        return cone_displacement_intersect(n, sigma, tau, v)
    except DegenerateDisplacementError as exc:
        return "degenerate span" if "degenerate span" in str(exc) else "boundary tie"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tree_solve_matches_bareiss_reference(data):
    n, sigma, tau = data.draw(flag_pairs())
    v = data.draw(displacements(n))
    assert tree_classification(n, sigma, tau, v) == displacement_reference(n, sigma, tau, v)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_located_pairs_match_the_full_sweep(data):
    # Random supports of codimension n-k against the permutohedral weight:
    # the located terms, their order and the degeneracy verdict must be
    # those of the sweep over every pair with the sign prefilter.  A vector
    # with a tied, zero or negative coordinate is refused outright.
    n = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, n))
    flags = data.draw(st.lists(flag_of_length(n, k), min_size=1, max_size=4))
    w2 = MinkowskiWeight(n, n - k, {flag: data.draw(st.sampled_from((1, -1, 2)))
                                    for flag in flags})
    w1 = permutohedral_weight(n, k)
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


@pytest.mark.parametrize("matroid", [UniformMatroid(3, 9), UniformMatroid(4, 9)])
def test_displacement_never_enumerates_the_permutohedral_weight(monkeypatch, matroid):
    def refuse(self):
        raise AssertionError("permutohedral weight enumerated")

    monkeypatch.setattr(SizeGradedFlags, "__iter__", refuse)
    report = run_check(matroid).report
    assert report["pass"]
    assert [row["pairs"] for row in report["displacement_detail"]] == report["mu"]["flags"]


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


# -- full pairings ---------------------------------------------------------------


def test_degree_pairing_shape_checks():
    w1 = permutohedral_weight(2, 1)
    with pytest.raises(ValueError):
        degree_pairing(w1, permutohedral_weight(3, 2), default_displacement(2))
    with pytest.raises(ValueError):
        degree_pairing(w1, permutohedral_weight(2, 0), default_displacement(2))
    with pytest.raises(ValueError):
        degree_pairing(w1, permutohedral_weight(2, 1), default_displacement(3))
    # Pairs are located only against the permutohedral weight, even when
    # a table holds the same flags.
    with pytest.raises(ValueError, match="permutohedral_weight"):
        degree_pairing(MinkowskiWeight(2, 1, {(0b011,): 1}), permutohedral_weight(2, 1),
                       default_displacement(2))
    with pytest.raises(ValueError, match="permutohedral_weight"):
        degree_pairing(MinkowskiWeight(2, 1, dict(w1.items())), permutohedral_weight(2, 1),
                       default_displacement(2))


def test_pairing_line_by_hand():
    # Level 1 of the three-point line: two transversal pairs, index 1.
    w1, w2 = displacement_weights(corpus.build("u-2-3"), 1)
    terms = pairing_terms(w1, w2, default_displacement(2))
    assert len(terms) == 2
    assert {t.sigma for t in terms} == {(0b010,), (0b100,)}
    assert all(t.index == 1 for t in terms)
    assert degree_pairing(w1, w2, default_displacement(2)) == 2


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
    assert degree_pairing(w1, w2, v) == 2
    assert (v, dict(w1.weights), dict(w2.weights)) == before


def test_certified_pairing_retries_past_degeneracy():
    # At level 2 of k4, (1, ..., n) ties two u's: the sweep is degenerate,
    # and the oracles' retry certifies mu_2 = 6 under a perturbed vector.
    # The default certifies the same degree on its first try.
    w1, w2 = displacement_weights(corpus.build("k4"), 2)
    bad = one_to_n(w1.n)
    with pytest.raises(DegenerateDisplacementError):
        degree_pairing(w1, w2, bad)
    terms, used, first = certified_terms(w1, w2, random.Random(0), bad)
    assert terms_degree(w1, w2, terms) == 6
    assert pairing_terms(w1, w2, used) == terms
    assert not first
    assert used != bad
    assert degree_pairing(w1, w2, default_displacement(w1.n)) == 6


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
    assert mu_vector_displacement(matroid) == mu_vector_mobius(matroid)


@pytest.mark.parametrize("name", GEOMETRY_SAMPLE)
def test_located_pairs_match_the_full_sweep_on_the_corpus(name):
    # Real supports, where many cones of w2 meet: same terms, same order.
    matroid = corpus.build(name)
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        for v in (default_displacement(w1.n), perturbed_displacement(w1.n, random.Random(k))):
            assert _sweep_outcome(pairing_terms, w1, w2, v) == _sweep_outcome(
                pairing_sweep_oracle, w1, w2, v)


@pytest.mark.parametrize("name", GEOMETRY_SAMPLE)
def test_divisor_route_matches_mobius(name):
    matroid = corpus.build(name)
    assert mu_vector_divisors(matroid) == mu_vector_mobius(matroid)


def test_cup_chain_reads_no_ray_tables():
    # alpha and beta are rules, so the chain holds only the weights it
    # builds: tables of all 2^17 rays would take megabytes.
    base = bergman_weight(UniformMatroid(2, 17))
    tracemalloc.start()
    try:
        _, degrees = cup_chain(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees == [1, 16]
    assert peak < 1 << 20


def test_divisor_route_at_thirty_one_elements():
    # 2^30 rays: no ray table of this fan fits in memory.
    matroid = UniformMatroid(3, 31)
    assert mu_vector_divisors(matroid) == mu_vector_mobius(matroid) == (1, 30, 435)


def test_both_routes_on_the_rational_configuration():
    m = corpus.build("non-fano")
    assert mu_vector_divisors(m) == (1, 6, 9)
    assert mu_vector_displacement(m) == (1, 6, 9)


def test_mu_level_bounds():
    # u(2,3) has coefficients 0..1 only: neither route reaches level 2 or -1.
    m = corpus.build("u-2-3")
    chain, degrees = cup_chain(bergman_weight(m))
    assert len(degrees) == m.full_rank
    with pytest.raises(ValueError):
        divisor_cup(alpha, chain[-1])
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
                              {f: 2 * c for f, c in w2.items()})
    v = default_displacement(2)
    assert degree_pairing(w1, doubled, v) == 2 * degree_pairing(w1, w2, v)

"""Weighted fans: incidence vectors, flag cones, balancing, Cremona."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matfan
from matfan import corpus
from matfan.fan import (
    MinkowskiWeight,
    SizeGradedFlags,
    bergman_weight,
    check_balancing,
    cremona_flag,
    cremona_pullback_weight,
    permutohedral_weight,
    validate_flag,
)
from matfan.intersect import NotBalancedError, divisor_cup
from matfan.masks import full_mask
from matfan.matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    RankTableMatroid,
    UniformMatroid,
)
from matfan.schema import load_matroid

from oracles import (
    PLDivisor,
    closure,
    facet_ray_sums,
    flag_generators,
    flag_span_coefficients,
    incidence_vector,
    oracle_divisor_cup,
    permutohedral_oracle,
    solve_in_span,
    truncation,
    unimodular,
)
from strategies import graphs, sparse_paving_documents


# -- lattice points of subsets ----------------------------------------------
# incidence_vector is the test oracle behind flag_generators and the facet
# ray sums below; the library itself works on bitmasks.


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
    with pytest.raises(ValueError, match="is not strictly increasing"):
        validate_flag(3, (0b0011, 0b0001))  # decreasing
    with pytest.raises(ValueError, match="is not strictly increasing"):
        validate_flag(3, (0b0001, 0b0110))  # not nested
    with pytest.raises(ValueError, match="not a proper nonempty subset of a 4-set"):
        validate_flag(3, (0b1111,))  # improper
    with pytest.raises(ValueError, match="not a proper nonempty subset of a 4-set"):
        validate_flag(3, (0b0001, 0))  # empty
    with pytest.raises(ValueError, match="not a proper nonempty subset of a -1-set"):
        validate_flag(-2, (0b1,))  # no ground set


# -- the weight container -----------------------------------------------------


def test_weight_drops_zeros_and_keeps_the_builders_order():
    w = MinkowskiWeight(2, 1, {(4,): 0, (2,): 3, (1,): 1})
    assert w.weights == {(1,): 1, (2,): 3}
    assert list(w.weights) == [(2,), (1,)]  # only `matfan fan` sorts
    assert w.value((4,)) == 0
    assert w.value((2,)) == 3


def test_weight_validates_cone_dimensions():
    with pytest.raises(ValueError):
        MinkowskiWeight(2, 1, {(1, 3): 1})  # wrong flag length
    with pytest.raises(ValueError):
        MinkowskiWeight(2, 3, {})  # codim out of range


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
    for f1, f2 in w.weights:
        assert closure(m, f1) == f1 and closure(m, f2) == f2
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
    # Checked against nested chains of subsets, not against flats.
    for n in range(6):
        w = bergman_weight(FreeMatroid(n + 1))
        assert set(w.weights) == permutohedral_oracle(n, 0)
        assert set(w.weights.values()) == {1}


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
    # permutohedral_weight is given by rule; the Bergman fan of u(n-k+1, n+1),
    # the (n-k)-truncated free matroid, and the oracle of nested subsets are
    # built independently.
    for n in range(6):
        for k in range(n + 1):
            w = permutohedral_weight(n, k)
            assert (w.n, w.codim) == (n, k)
            expected = bergman_weight(UniformMatroid(n - k + 1, n + 1))
            assert w == expected  # as mappings, whatever their orders
            assert len(w.weights) == len(expected.weights)
            flags = permutohedral_oracle(n, k)
            assert len(flags) == math.factorial(n + 1) // math.factorial(k + 1)
            assert set(w.weights) == flags
            assert set(w.weights.values()) == {1}


GF3_MATRICES = st.builds(LinearMatroid, st.lists(
    st.lists(st.integers(0, 2), min_size=7, max_size=7), min_size=1, max_size=4), st.just(3))


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(5, 9), GF3_MATRICES, sparse_paving_documents().map(load_matroid)))
def test_truncated_fans_match_independent_truncations(matroid):
    # bergman_weight(m, k) walks m's own flats; the reference is the full
    # fan of the truncation built as a rank table of min(r(S), k + 1).
    if not matroid.full_rank:
        return
    simple = matroid.simplify()[0]
    r = simple.full_rank - 1
    for k in range(r + 1):
        w = bergman_weight(simple, k)
        expected = bergman_weight(truncation(simple, k))
        assert (w.n, w.codim) == (simple.size - 1, simple.size - 1 - k)
        assert w == expected
        assert list(w.weights) == list(expected.weights)
    assert bergman_weight(simple, r) == bergman_weight(simple)
    for k in (-1, r + 1):
        with pytest.raises(ValueError, match=rf"truncation level {k} outside 0\.\.{r}"):
            bergman_weight(simple, k)


@pytest.mark.parametrize("flag", [
    (0b0011, 0b0111),          # first subset has two elements
    (0b0001, 0b0111),          # second step adds two elements
    (0b0001, 0b0010),          # not nested
    (0b0001, 0b0011, 0b0111),  # too long for codimension 1
    (0b0001,),                 # too short
    (0b0001, 0b10001),         # element outside {0..3}
    (0b0010, 0b0010),          # not strictly increasing
    (-1, 0b0011),
    (1.0, 0b0011),
    [0b0001, 0b0011],          # not a tuple
])
def test_permutohedral_rejects_other_flags(flag):
    w = permutohedral_weight(3, 1)
    assert w.weights.get(flag) is None
    assert flag not in w.weights


def test_size_graded_table_must_fit_its_weight():
    with pytest.raises(ValueError, match="does not fit"):
        MinkowskiWeight(3, 2, SizeGradedFlags(3, 1))


def imported_names(module: str) -> set[str]:
    """Every module a matfan source file imports and every name it imports
    from one, dotted; names imported within the package start with a dot."""
    imported = set()
    for node in ast.walk(ast.parse((Path(matfan.__file__).parent / module).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            imported.add(base)
            imported.update(f"{base}{sep}{alias.name}" for alias in node.names)
    return imported


def test_geometric_modules_do_not_import_the_lattice_routes():
    # The Moebius and descending-flag routes live in charpoly; the fan and
    # the intersection routes cross-check them, so they must not import it.
    for module in ("fan.py", "intersect.py"):
        imported = imported_names(module)
        assert not any("charpoly" in name.split(".") for name in imported), (module, imported)


def test_the_input_layer_stays_below_the_geometry():
    # schema turns documents into matroids and knows nothing above them;
    # corpus is documents, loaded the way every user document is.
    above = {"fan", "intersect", "charpoly", "validation", "corpus", "cli"}
    imported = imported_names("schema.py")
    assert not any(above & set(name.split(".")) for name in imported), imported
    package = {name for name in imported_names("corpus.py")
               if name.startswith((".", "matfan"))}
    assert package == {".matroid", ".matroid.Matroid", ".schema", ".schema.load_matroid"}


def test_permutohedral_top_codim():
    w = permutohedral_weight(3, 3)
    assert w.weights == {(): 1}


def test_fundamental_weight():
    # The fundamental weight of the complete fan is its codimension-0
    # permutohedral weight.
    w = permutohedral_weight(2, 0)
    assert w.codim == 0
    assert all(v == 1 for v in w.weights.values())


def test_permutohedral_bounds():
    for k in (-1, 3):
        with pytest.raises(ValueError, match=rf"codimension {k} outside 0\.\.2"):
            permutohedral_weight(2, k)


def test_permutohedral_weight_is_fresh_on_every_call():
    first = permutohedral_weight(3, 1)
    second = permutohedral_weight(3, 1)
    assert first == second
    assert first is not second and first.weights is not second.weights
    # The weight is given by rule: its table cannot be changed at all.
    with pytest.raises(AttributeError):
        first.weights.clear()
    with pytest.raises(TypeError):
        first.weights[(0b0001,)] = 2
    with pytest.raises(AttributeError):
        first.weights.k = 0
    assert permutohedral_weight(3, 1) == second
    assert len(second.weights) == 12


def test_permutohedral_weight_is_never_built():
    # Counted and tested by rule, far beyond any size that could be listed.
    assert len(permutohedral_weight(19, 0).weights) == math.factorial(20)
    # 31! exceeds what len() can return (sys.maxsize), so ask __len__.
    w = permutohedral_weight(30, 0)
    assert w.weights.__len__() == math.factorial(31)
    chain = tuple(full_mask(i) for i in range(1, 31))
    assert w.value(chain) == 1
    assert w.value(chain[:-1] + (full_mask(31) ^ 1,)) == 0
    assert w.value(chain[1:]) == 0


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
    expected = solve_in_span(gens, target)
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
    assert check_balancing(w) == [(0b010,), (0b110,)]


def test_wrong_multiplicity_breaks_balancing():
    doubled = MinkowskiWeight(2, 1, {(1,): 2, (2,): 1, (4,): 1})
    assert check_balancing(doubled)
    assert check_balancing(bergman_weight(corpus.build("u-2-3"))) == []


def test_top_codimension_is_vacuously_balanced():
    assert check_balancing(MinkowskiWeight(2, 2, {(): 7})) == []


@st.composite
def weights(draw):
    """A weight on {0..n}, n <= 5: a multiple of the balanced permutohedral
    weight (possibly zero) plus up to three random cones, which mostly
    break balancing."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    scale = draw(st.integers(-2, 2))
    values = {flag: scale for flag in permutohedral_weight(n, k).weights}
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(range(n + 1)))
        sizes = sorted(draw(st.sets(st.integers(1, n), min_size=n - k, max_size=n - k)))
        flag = tuple(sum(1 << x for x in order[:size]) for size in sizes)
        values[flag] = values.get(flag, 0) + draw(st.integers(-3, 3))
    return MinkowskiWeight(n, k, values)


def incidence_ray_sums(weight):
    """(facet, sum of value * incidence_vector(removed subset)), sorted."""
    n = weight.n
    sums = {}
    for flag, value in weight.weights.items():
        for i, removed in enumerate(flag):
            total = sums.setdefault(flag[:i] + flag[i + 1:], [0] * n)
            for j, x in enumerate(incidence_vector(n, removed)):
                total[j] += value * x
    return sorted(sums.items())


@settings(max_examples=200, deadline=None)
@given(weights())
def test_ray_sums_are_incidence_vector_sums_and_unbalanced_facets_are_unspanned(weight):
    expected = incidence_ray_sums(weight)
    assert [(tau, total) for tau, _, total in facet_ray_sums(weight)] == expected
    assert check_balancing(weight) == [
        tau for tau, total in expected
        if solve_in_span(flag_generators(weight.n, tau), total) is None
    ]


@settings(max_examples=200, deadline=None)
@given(weights(), st.data())
def test_cup_matches_the_global_sweep(weight, data):
    n = weight.n
    d = PLDivisor(n, {mask: data.draw(st.integers(-4, 4))
                      for mask in range(1, full_mask(n + 1))}).value
    violations = check_balancing(weight)
    if weight.codim == n:
        for cup in (divisor_cup, oracle_divisor_cup):
            with pytest.raises(ValueError):
                cup(d, weight)
    elif not violations:
        assert divisor_cup(d, weight) == oracle_divisor_cup(d, weight)
    else:
        for cup in (divisor_cup, oracle_divisor_cup):
            with pytest.raises(NotBalancedError) as exc:
                cup(d, weight)
            assert exc.value.tau == violations[0]


def test_fan_keeps_no_global_sweep():
    for name in ("facet_ray_sums", "flag_span_coefficients", "flag_facets"):
        assert not hasattr(matfan.fan, name)


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
    assert pulled.weights == {(0b011,): 1, (0b101,): 1, (0b110,): 1}


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
        for flag in w.weights:
            assert unimodular(flag_generators(w.n, flag))


def test_complete_flags_are_unimodular():
    w = permutohedral_weight(3, 0)
    for flag in w.weights:
        assert unimodular(flag_generators(3, flag))
    assert unimodular(flag_generators(3, ()))

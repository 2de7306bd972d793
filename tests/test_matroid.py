"""Rank oracles, flats, and the standard constructions."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from matfan import corpus, linalg
from matfan.fan import bergman_weight
from matfan.masks import full_mask, iter_elements, iter_subsets
from matfan.matroid import (
    BasesMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    RelabeledMatroid,
    UniformMatroid,
    validate_rank_table,
)
from matfan.validation import run_check

from oracles import (
    FANO_MATRIX,
    K4_EDGES,
    K5_EDGES,
    bases_rank_oracle,
    forest_rank_oracle,
    graphic_rank,
    independent_counts_oracle,
    matrix_rank_oracle,
    rank_axioms_oracle,
    simplification_oracle,
    dual,
    free_extension,
    strata_oracle,
    uniform_rank,
)
from strategies import RANDOM_MATROIDS


def assert_same_ranks(matroid: Matroid, rank_fn) -> None:
    for mask in iter_subsets(matroid.size):
        assert matroid.rank(mask) == rank_fn(mask), bin(mask)


def is_simple(matroid: Matroid) -> bool:
    """No loops, and every single element is its own closure."""
    return all(matroid.closure(b) == b for b in [0] + [1 << x for x in range(matroid.size)])


# -- backends against independent oracles ---------------------------------


def test_uniform_rank():
    m = UniformMatroid(2, 5)
    assert_same_ranks(m, uniform_rank(2))
    assert m.full_rank == 2
    with pytest.raises(ValueError):
        UniformMatroid(6, 5)
    with pytest.raises(ValueError):
        UniformMatroid(-1, 5)


def test_free_is_uniform_of_full_rank():
    m = FreeMatroid(4)
    assert_same_ranks(m, uniform_rank(4))
    assert is_simple(m)


def test_graphic_rank_k4():
    m = GraphicMatroid(4, K4_EDGES)
    assert_same_ranks(m, graphic_rank(4, K4_EDGES))
    assert m.full_rank == 3
    assert m.name == "graphic(V=4,E=6)"
    assert GraphicMatroid(4, K4_EDGES, "k4").name == "k4"


def test_graphic_rank_k5():
    m = GraphicMatroid(5, K5_EDGES)
    assert m.full_rank == 4
    # Spot-check a few masks against the forest oracle; full sweep is 2^10.
    oracle = graphic_rank(5, K5_EDGES)
    for mask in (0, 1, 0b1111111111, 0b1010101, 0b1100110011):
        assert m.rank(mask) == oracle(mask)


def test_graphic_loops_and_parallels():
    # Self-loop at vertex 0 plus a doubled edge.
    m = GraphicMatroid(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
    assert m.rank(0b0001) == 0
    assert m.loops() == 0b0001
    assert m.rank(0b0110) == 1
    assert m.full_rank == 2
    assert_same_ranks(m, forest_rank_oracle(3, [(0, 0), (0, 1), (0, 1), (1, 2)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 10**12), min_size=1, max_size=5, unique=True).flatmap(
    lambda labels: st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                            min_size=1, max_size=9)),
    st.integers(1, 10**12))
def test_graphic_rank_matches_the_components_oracle(edges, extra):
    # Sparse labels, self-loops and repeated edges; every vertex past the
    # largest endpoint, and most below it, is isolated.
    vertices = max(max(e) for e in edges) + extra
    assert_same_ranks(GraphicMatroid(vertices, edges), graphic_rank(vertices, edges))


def test_graphic_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"^edge \(0,2\) has endpoints outside 0\.\.1$"):
        GraphicMatroid(2, [(0, 2)])
    with pytest.raises(ValueError, match=r"^edge \(-1,1\) has endpoints outside 0\.\.1$"):
        GraphicMatroid(2, [(0, 1), (-1, 1)])
    with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
        GraphicMatroid(0, [])
    # A graph with no edges has an empty ground set.
    with pytest.raises(ValueError, match=r"^ground-set size 0 out of range 1\.\.31$"):
        GraphicMatroid(3, [])


def test_linear_rank_binary_vs_rational():
    binary = LinearMatroid(FANO_MATRIX, 2)
    rational = LinearMatroid(FANO_MATRIX, None)
    cols = [tuple(row[e] for row in FANO_MATRIX) for e in range(7)]
    assert_same_ranks(binary, matrix_rank_oracle(cols, 2))
    assert_same_ranks(rational, matrix_rank_oracle(cols, None))
    # Columns for 3, 5, 6 sum to zero mod 2 only; every other line of the
    # binary configuration is collinear over the rationals as well.
    assert binary.rank(0b110100) == 2
    assert rational.rank(0b110100) == 3
    assert binary.rank(0b111) == rational.rank(0b111) == 2


def test_linear_fraction_entries():
    m = LinearMatroid([["1/2", 1], [0, "2/3"]], None)
    assert m.full_rank == 2


def test_linear_rejects_fractions_over_gf():
    with pytest.raises(ValueError):
        LinearMatroid([["1/2"]], 2)


def test_linear_rejects_inexact_entries():
    # 1/2 is 2 mod 3, a unit: truncating it to 0 would make a loop.
    with pytest.raises(ValueError, match="ints"):
        LinearMatroid([[Fraction(1, 2), 1]], 3)
    with pytest.raises(ValueError, match="ints"):
        LinearMatroid([[1.0, 1]], 3)
    with pytest.raises(ValueError, match="floats"):
        LinearMatroid([[0.5, 1]], None)


@pytest.mark.parametrize("matrix, field, message", [
    ([], None, "nonempty"),
    ([[]], 2, "nonempty"),
    ([[1, 0], [1]], None, "unequal lengths"),
    ([[1, 0], [0, 1]], 4, "4 is not prime"),
], ids=["no-rows", "no-columns", "ragged", "gf4"])
def test_linear_refuses_malformed_matrices(matrix, field, message):
    with pytest.raises(ValueError, match=message):
        LinearMatroid(matrix, field)


def test_linear_ranks_over_q_build_no_fraction(monkeypatch):
    # Rational columns are scaled to integers once, at construction; the
    # elimination keeps every entry an integer minor.
    assert "Fraction" not in vars(linalg)
    expected = corpus.build("non-fano").rank_table()
    m = corpus.build("non-fano")

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built during rank elimination")

    monkeypatch.setattr("matfan.matroid.Fraction", refuse)
    assert m.rank_table() == expected


def test_binary_ranks_never_reach_the_elimination(monkeypatch):
    # One GF(2) algorithm: binary matrices, graphs among them, rank their
    # odd entries in an XOR basis; linalg.rank serves only Q and odd p.
    # The matrix has entries in -3..3, a zero column (a loop), column 4
    # parallel to column 1 mod 2 only, and the circuit {0, 3, 5}.
    matrix = [[3, -1, 0, 2, -3, -1],
              [-2, 1, 0, 1, 3, 3],
              [1, -2, 0, -2, 2, -3]]
    builds = (lambda: corpus.build("fano"), lambda: GraphicMatroid(4, K4_EDGES),
              lambda: LinearMatroid(matrix, 2))
    expected = [build().rank_table() for build in builds]
    oracle = matrix_rank_oracle(list(zip(*matrix)), 2)
    assert expected[2] == [oracle(mask) for mask in iter_subsets(6)]
    assert expected[1] == [graphic_rank(4, K4_EDGES)(mask) for mask in iter_subsets(6)]

    def refuse(*args, **kwargs):
        raise AssertionError("linalg.rank called on a GF(2) matroid")

    monkeypatch.setattr(linalg, "rank", refuse)
    assert [build().rank_table() for build in builds] == expected


fraction_entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda height: st.lists(
    st.tuples(st.lists(fraction_entry, min_size=height, max_size=height),
              st.sampled_from((-2, 1, 3))),
    min_size=1, max_size=5)))
def test_linear_fraction_columns_rank_as_their_integer_multiples(drawn):
    columns = [col for col, _ in drawn]
    scaled = [[int(x * prod(y.denominator for y in col) * sign) for x in col]
              for col, sign in drawn]
    table = LinearMatroid([list(r) for r in zip(*columns)], None).rank_table()
    assert table == LinearMatroid([list(r) for r in zip(*scaled)], None).rank_table()
    oracle = matrix_rank_oracle(columns, None)
    assert table == [oracle(mask) for mask in iter_subsets(len(columns))]


def test_bases_matroid():
    # U(2,3) given by its three bases.
    m = BasesMatroid(3, [0b011, 0b101, 0b110])
    assert_same_ranks(m, uniform_rank(2))
    with pytest.raises(ValueError):
        BasesMatroid(3, [])
    with pytest.raises(ValueError):
        BasesMatroid(3, [0b011, 0b111])  # mixed sizes


def test_base_class_and_helpers_refuse_what_they_cannot_answer():
    # The abstract base has no rank, and the corpus no entry of an
    # unknown name.
    with pytest.raises(NotImplementedError):
        Matroid(3).rank(0b001)
    with pytest.raises(ValueError, match="unknown corpus entry 'k9'"):
        corpus.build("k9")


def test_rank_table_matroid_round_trip():
    src = GraphicMatroid(4, K4_EDGES)
    copy = RankTableMatroid(6, src.rank_table())
    assert copy.rank_table() == src.rank_table()


def test_rank_table_rejects_invalid():
    with pytest.raises(ValueError):
        RankTableMatroid(2, [0, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        RankTableMatroid(2, [1, 1, 1, 2])  # empty set has rank 1


# -- rank axioms on every backend ----------------------------------------


def rank_axioms(matroid: Matroid) -> None:
    size = matroid.size
    for mask in iter_subsets(size):
        r = matroid.rank(mask)
        assert 0 <= r <= mask.bit_count()
        for x in range(size):
            b = 1 << x
            if not mask & b:
                assert r <= matroid.rank(mask | b) <= r + 1
    for s in iter_subsets(size):
        for t in iter_subsets(size):
            assert (matroid.rank(s | t) + matroid.rank(s & t)
                    <= matroid.rank(s) + matroid.rank(t))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
def test_uniform_axioms(km):
    m, k = km
    rank_axioms(UniformMatroid(k, m))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda v: st.lists(
            st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
            min_size=1, max_size=5,
        )
    )
)
def test_graphic_axioms(edges):
    v = 1 + max(max(e) for e in edges)
    rank_axioms(GraphicMatroid(v, edges))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        min_size=2, max_size=3,
    )
)
def test_linear_axioms(matrix):
    rank_axioms(LinearMatroid(matrix, None))
    rank_axioms(LinearMatroid(matrix, 3))
    # Over GF(2) the odd negatives -1 count as 1 and -2 as 0.
    binary = LinearMatroid(matrix, 2)
    rank_axioms(binary)
    assert_same_ranks(binary, matrix_rank_oracle(list(zip(*matrix)), 2))


def test_derived_constructions_satisfy_axioms():
    base = GraphicMatroid(4, K4_EDGES)
    rank_axioms(dual(base))
    rank_axioms(free_extension(base))
    rank_axioms(base.free_coextension())


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("build", [
    lambda: GraphicMatroid(4, K4_EDGES),
    lambda: RelabeledMatroid(GraphicMatroid(4, K4_EDGES), [5, 0, 3]),
    lambda: UniformMatroid(2, 5),
    lambda: dual(GraphicMatroid(4, K4_EDGES)),
    lambda: free_extension(GraphicMatroid(4, K4_EDGES)),
    lambda: GraphicMatroid(4, K4_EDGES).free_coextension(),
    lambda: UniformMatroid(2, 5).free_coextension(),
], ids=["backend", "relabeling", "uniform", "dual", "extension",
        "coextension", "uniform-coextension"])
def test_rank_rejects_masks_outside_the_ground_set(build, warm):
    m = build()
    if warm:
        # Fill whatever memo the matroid or its base keeps with every valid
        # mask first.
        m.rank_table()
    top = full_mask(m.size)
    for bad in (1 << m.size, top + 1, top | 1 << 30, -1, -(1 << m.size), ~top):
        with pytest.raises(ValueError, match="outside"):
            m.rank(bad)
    assert m.rank(top) == m.full_rank


def test_rank_memos_live_only_in_backends_that_compute():
    u = UniformMatroid(4, 14)
    u.flat_strata()
    assert u._rank_cache is None
    g = GraphicMatroid(4, K4_EDGES)
    c = g.free_coextension()
    c.flat_strata()
    assert c.base is g
    assert c._rank_cache is None
    # The graph computes and memoizes through the GF(2) linear backend.
    assert "_rank_impl" not in GraphicMatroid.__dict__
    assert g._rank_cache
    # Every rank of the coextension comes through the graphic memo.
    c.rank_table()
    assert set(g._rank_cache) == set(iter_subsets(g.size))
    for w in (dual(g), free_extension(g)):
        w.flat_strata()
        assert w.base is g
        assert w._rank_cache is None
    # A rank table's rank is one list index; a memo would copy the table.
    t = RankTableMatroid(g.size, g.rank_table())
    t.flat_strata()
    assert t._rank_cache is None
    t.rank_table()
    assert t._rank_cache is None
    # A basis family loads as its rank table and keeps no memo beside it.
    b = BasesMatroid(4, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100])
    b.flat_strata()
    assert b._rank_cache is None


# -- closure and flats -----------------------------------------------------


def test_closure_properties_k4():
    m = GraphicMatroid(4, K4_EDGES)
    for mask in iter_subsets(6):
        cl = m.closure(mask)
        assert mask & cl == mask
        assert m.closure(cl) == cl
        assert m.rank(cl) == m.rank(mask)
    # The triangle on vertices {0,1,2} is edges 0,1,3 and is closed.
    assert m.closure(0b000011) == 0b001011


def test_flat_strata_k4():
    m = GraphicMatroid(4, K4_EDGES)
    strata, covered_by = m.flat_strata()
    assert [len(s) for s in strata] == [1, 6, 7, 1]
    assert strata[0] == [0]
    assert strata[3] == [m.ground_mask]
    # Rank-2 flats: four triangles and three perfect matchings.
    sizes = sorted(f.bit_count() for f in strata[2])
    assert sizes == [2, 2, 2, 3, 3, 3, 3]
    # Each cover relation loses exactly one rank.
    rank_of = {f: k for k, s in enumerate(strata) for f in s}
    for g, parents in covered_by.items():
        for f in parents:
            assert rank_of[g] == rank_of[f] + 1
            assert f & g == f


def test_flat_strata_peak_stays_near_what_it_keeps():
    # K6's free coextension has 3,135 flats.  With the graphic memo warm,
    # building its lattice should allocate little beyond the strata and
    # cover lists it returns.
    k6 = GraphicMatroid(6, list(combinations(range(6), 2)))
    k6.rank_table()
    c = k6.free_coextension()
    tracemalloc.start()
    try:
        strata, _ = c.flat_strata()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, strata)) == 3135
    assert peak <= 1.5 * held, (peak, held)


@st.composite
def small_matroids(draw):
    kind = draw(st.sampled_from(("uniform", "graphic", "gf2", "table")))
    if kind == "uniform":
        size = draw(st.integers(1, 7))
        return UniformMatroid(draw(st.integers(0, size)), size)
    if kind == "gf2":
        width = draw(st.integers(1, 7))
        row = st.lists(st.integers(0, 1), min_size=width, max_size=width)
        return LinearMatroid(draw(st.lists(row, min_size=1, max_size=4)), 2)
    edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=1, max_size=8))
    graph = GraphicMatroid(5, edges)
    if kind == "graphic":
        return graph
    # Cographic, so the table backend sees loops and coloops too.
    return RankTableMatroid(graph.size, dual(graph).rank_table())


@settings(max_examples=80, deadline=None)
@given(small_matroids())
def test_flat_strata_matches_oracle(m):
    strata, covered_by = m.flat_strata()
    assert strata == strata_oracle(m.size, m.rank)
    assert sorted(covered_by) == sorted(g for level in strata for g in level)
    for k, level in enumerate(strata):
        for g in level:
            below = [f for f in strata[k - 1] if f & ~g == 0] if k else []
            assert covered_by[g] == below


def test_flats_of_rank():
    m = UniformMatroid(2, 4)
    strata, _ = m.flat_strata()
    assert strata[1] == [1, 2, 4, 8]
    assert all(m.rank(f) == 1 for f in strata[1])
    # Ranks 0..2 only: the top stratum is the ground set.
    assert len(strata) == 3 and strata[2] == [m.ground_mask]


# -- simplification --------------------------------------------------------


def test_simplify_fixed_point():
    m = GraphicMatroid(4, K4_EDGES)
    simple, mapping = m.simplify()
    assert simple is m
    assert mapping == list(range(6))


def test_simplify_drops_loops_and_parallels():
    # Loop at 0, elements 1 and 2 parallel, 3 free.
    m = RankTableMatroid(4, [
        (1 if mask & 0b0110 else 0) + (1 if mask & 0b1000 else 0)
        for mask in range(16)
    ])
    simple, mapping = m.simplify()
    assert simple.size == 2
    assert mapping == [None, 0, 0, 1]
    assert is_simple(simple)
    assert simple.full_rank == m.full_rank


def test_simplified_input_keeps_no_second_rank_memo():
    # Twelve simple edges on six vertices, three parallel copies and a loop.
    edges = list(combinations(range(6), 2))[:12] + [(0, 1), (2, 3), (1, 4), (3, 3)]
    g = GraphicMatroid(6, edges)
    result = run_check(g)
    assert result.ok and result.report["subject_size"] == 12
    # The relabelled subject memoizes its own ranks; the input's memo keeps
    # only what simplification asked, not a second copy of the subject's.
    assert len(g._rank_cache) <= g.size ** 2


@settings(max_examples=150, deadline=None)
@given(RANDOM_MATROIDS)
def test_simplify_matches_closure_reference_on_random_matroids(matroid):
    # Pair ranks against closures: the same classes, representatives in
    # first-seen order, and a subject of the same rank.
    if not matroid.full_rank:
        return
    subject, mapping = matroid.simplify()
    reps, expected = simplification_oracle(matroid.size, matroid.rank)
    assert mapping == expected
    assert (subject is matroid) == (mapping == list(range(matroid.size)))
    if subject is matroid:
        assert reps == list(range(matroid.size))
    else:
        assert subject.kept == reps
    assert subject.full_rank == matroid.full_rank


def test_simplify_rank_zero_raises():
    all_loops = RankTableMatroid(2, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        all_loops.simplify()


# -- truncation, duality, extensions ---------------------------------------


def test_top_truncation_is_identity_rank():
    # Truncating at the top level leaves the matroid, so its fan, as it is.
    m = UniformMatroid(3, 5)
    assert bergman_weight(m, 2) == bergman_weight(m)


def test_dual():
    # The oracle the closed-form free coextension is checked against.
    m = UniformMatroid(2, 5)
    d = dual(m)
    assert d.rank_table() == UniformMatroid(3, 5).rank_table()
    assert dual(d).rank_table() == m.rank_table()
    g = GraphicMatroid(4, K4_EDGES)
    assert dual(dual(g)).rank_table() == g.rank_table()
    assert dual(g).full_rank == 6 - 3


def test_free_extension():
    # The oracle the closed-form free coextension is checked against.
    m = UniformMatroid(2, 3)
    e = free_extension(m)
    assert e.size == 4
    assert e.full_rank == 2
    assert e.rank_table() == UniformMatroid(2, 4).rank_table()
    # Extending a full-rank matroid adds a coloop-free generic element,
    # but rank cannot grow.
    f = free_extension(FreeMatroid(2))
    assert f.rank_table() == UniformMatroid(2, 3).rank_table()


def test_free_coextension():
    m = UniformMatroid(2, 4)
    c = m.free_coextension()
    assert c.size == 5
    assert c.full_rank == 3
    assert c.loops() == 0
    # Coextension of a free matroid is free.
    assert FreeMatroid(3).free_coextension().rank_table() == FreeMatroid(4).rank_table()


@st.composite
def matroids_with_loops_and_parallels(draw):
    """Graphic, GF(2), GF(3), bases and uniform matroids on at most 8
    elements.  Graphs and matrices may get a loop (a self-loop or a zero
    column) and an element parallel to element 0 (a repeated edge or
    column), on top of those the random draw makes."""
    kind = draw(st.sampled_from(("uniform", "graphic", "gf2", "gf3", "bases")))
    if kind == "uniform":
        size = draw(st.integers(1, 8))
        return UniformMatroid(draw(st.integers(0, size)), size)
    add_loop, add_parallel = draw(st.booleans()), draw(st.booleans())
    if kind in ("graphic", "bases"):
        edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=1, max_size=6))
        edges += [(2, 2)] * add_loop + edges[:1] * add_parallel
        m = GraphicMatroid(5, edges)
        if kind == "graphic":
            return m
        bases = [mask for mask in iter_subsets(m.size)
                 if mask.bit_count() == m.full_rank == m.rank(mask)]
        return BasesMatroid(m.size, bases)
    p = 2 if kind == "gf2" else 3
    height = draw(st.integers(1, 4))
    column = st.lists(st.integers(0, p - 1), min_size=height, max_size=height)
    columns = draw(st.lists(column, min_size=1, max_size=6))
    columns += [[0] * height] * add_loop + columns[:1] * add_parallel
    return LinearMatroid([list(row) for row in zip(*columns)], p)


@settings(max_examples=150, deadline=None)
@given(matroids_with_loops_and_parallels())
def test_free_coextension_is_dual_of_free_extension_of_dual(m):
    c = m.free_coextension()
    assert c.size == m.size + 1
    assert c.full_rank == m.full_rank + 1
    assert c.rank_table() == dual(free_extension(dual(m))).rank_table()


def test_free_coextension_never_has_loops():
    for m in (UniformMatroid(1, 4), GraphicMatroid(4, K4_EDGES),
              LinearMatroid(FANO_MATRIX, 2)):
        assert m.free_coextension().loops() == 0


# -- whole-matroid queries --------------------------------------------------


def test_independent_set_counts():
    k4 = GraphicMatroid(4, K4_EDGES)
    assert k4.independent_set_counts() == (1, 6, 15, 16)
    assert k4.independent_set_counts() == independent_counts_oracle(
        6, graphic_rank(4, K4_EDGES))
    assert UniformMatroid(2, 4).independent_set_counts() == (1, 4, 6)
    assert FreeMatroid(3).independent_set_counts() == (1, 3, 3, 1)


def test_size_bounds():
    with pytest.raises(ValueError):
        FreeMatroid(0)
    with pytest.raises(ValueError):
        FreeMatroid(32)


# -- rank-table validation ---------------------------------------------------


def test_validate_accepts_real_tables():
    for m in (UniformMatroid(2, 5), GraphicMatroid(4, K4_EDGES),
              LinearMatroid(FANO_MATRIX, 2)):
        assert validate_rank_table(m.size, m.rank_table()) is None


def test_validate_rejects_wrong_length():
    witness = validate_rank_table(3, [0, 1, 1])
    assert witness is not None and "entries" in witness


def test_validate_rejects_bad_normalization():
    witness = validate_rank_table(2, [1, 1, 1, 2])
    assert witness is not None and "empty set" in witness


def test_validate_rejects_unit_increase():
    # Adding element 2 to {0,1} jumps the rank back down.
    table = [0, 1, 1, 2, 1, 2, 2, 1]
    witness = validate_rank_table(3, table)
    assert witness is not None and "unit increase" in witness


def test_validate_rejects_submodularity():
    # r({0})=r({1})=1, r({0,1})=2 but r({0,2})=r({1,2})=1 with r({2})=1:
    # then S={0,2}, T={1,2} gives 2+1 > 1+1.
    table = [0, 1, 1, 2, 1, 1, 1, 2]
    witness = validate_rank_table(3, table)
    assert witness is not None and "submodularity" in witness


def test_validate_large_table_sampled_path():
    m = UniformMatroid(3, 10)
    assert validate_rank_table(10, m.rank_table()) is None


@st.composite
def rank_tables(draw):
    """(size, table): unit-increase walks, ranks of a random family of
    k-subsets, or such a table with one entry moved by one."""
    size = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("walk", "family", "perturbed")))
    if kind == "walk":
        # r(S) = r(S - min S) + a drawn step: unit increase holds along
        # one path to each subset, and maybe not along the others.
        steps = draw(st.lists(st.integers(0, 1), min_size=1 << size, max_size=1 << size))
        ranks = [0] * (1 << size)
        for mask in range(1, 1 << size):
            ranks[mask] = ranks[mask & (mask - 1)] + steps[mask]
        return size, ranks
    k = draw(st.integers(0, size))
    subsets = [sum(1 << x for x in c) for c in combinations(range(size), k)]
    family = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6))
    ranks = bases_rank_oracle(size, family)
    if kind == "perturbed":
        ranks[draw(st.integers(1, (1 << size) - 1))] += draw(st.sampled_from((-1, 1)))
    return size, ranks


@settings(max_examples=300, deadline=None)
@given(rank_tables())
def test_validate_matches_all_pairs_oracle(table):
    size, ranks = table
    witness = validate_rank_table(size, ranks)
    expected = rank_axioms_oracle(size, ranks)
    assert (witness is None) == (expected is None)
    if expected is not None and "submodularity" in expected:
        assert "submodularity" in witness
    if witness is not None and "unit increase" in witness:
        assert "unit increase" in expected


def _basis_exchange(family):
    return all(
        any(b1 ^ x | 1 << y in family for y in iter_elements(b2 & ~b1))
        for b1 in family for b2 in family for x in (1 << e for e in iter_elements(b1 & ~b2))
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda size: st.tuples(
    st.just(size),
    st.integers(0, size).flatmap(lambda k: st.lists(
        st.sampled_from([sum(1 << x for x in c) for c in combinations(range(size), k)]),
        min_size=1, max_size=8)))))
def test_family_rank_passes_exactly_under_basis_exchange(case):
    # Any equicardinal family, repeats allowed: the table the constructor
    # builds is max |B & S| whether or not the family is a matroid's bases.
    size, family = case
    ranks = BasesMatroid(size, family).ranks
    assert ranks == bases_rank_oracle(size, family)
    assert (validate_rank_table(size, ranks) is None) == _basis_exchange(family)

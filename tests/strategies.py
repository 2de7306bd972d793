"""Hypothesis strategies for random matroids, shared by the test modules:
graphic matroids, column matroids over GF(p) and their linear documents,
sparse paving matroids as rank_table documents (the rule that builds them
is in test_nonrealizable's docstring), and RANDOM_MATROIDS, a mix of all
three."""

from hypothesis import strategies as st

from matfan.matroid import GraphicMatroid
from matfan.schema import load_matroid


def graphs(vertices, max_edges):
    """Graphic matroids on `vertices` vertices with 1..max_edges edges,
    loops and parallel edges included."""
    ends = st.integers(0, vertices - 1)
    return st.builds(GraphicMatroid, st.just(vertices), st.lists(
        st.tuples(ends, ends), min_size=1, max_size=max_edges))


def masks(*sets):
    return [sum(1 << e for e in s) for s in sets]


def sparse_paving_document(size, rank, family):
    """rank_table document of the sparse paving matroid whose
    circuit-hyperplanes are the masks in family."""
    family = set(family)
    ranks = [rank - 1 if mask in family else min(mask.bit_count(), rank)
             for mask in range(1 << size)]
    return {"type": "rank_table", "n": size, "ranks": ranks}


@st.composite
def sparse_paving_documents(draw, ranks=(3, 4), sizes=(5, 9)):
    """Sparse paving rank_table documents of rank and size within the
    given inclusive ranges, from up to 12 candidate circuit-hyperplanes."""
    rank = draw(st.integers(*ranks))
    size = draw(st.integers(*sizes))
    candidates = draw(st.lists(
        st.sets(st.integers(0, size - 1), min_size=rank, max_size=rank), max_size=12))
    family = []
    for mask in masks(*candidates):
        if all((mask & other).bit_count() <= rank - 2 for other in family):
            family.append(mask)
    return sparse_paving_document(size, rank, family)


def linear_documents(p, width):
    """GF(p) linear documents of 1 to 5 rows and `width` columns."""
    row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    return st.builds(lambda matrix: {"type": "linear", "field": f"GF({p})", "matrix": matrix},
                     st.lists(row, min_size=1, max_size=5))


def linear_matroids(p, width):
    return linear_documents(p, width).map(load_matroid)


RANDOM_MATROIDS = st.one_of(graphs(6, 12), linear_matroids(2, 9), linear_matroids(3, 7),
                           sparse_paving_documents().map(load_matroid))

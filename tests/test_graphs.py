"""Read's conjecture on every small graph.

The coefficients of a graph's chromatic polynomial are log-concave
(Read's conjecture; Huh 2012, arXiv:1008.4749, which Huh-Katz extend).
Up to isomorphism there are 1, 3, 10, 33 and 155 simple graphs with an
edge on 2 to 6 vertices, enumerated here by brute force as orbits of
edge sets under the vertex permutations.  Each cycle matroid, K6 with
its 2,700 complete flags of flats included, must pass check with all
four routes and nothing skipped.  Independently of every route, a
backtracking count of proper q-colourings for q = 0..|V| must equal
q^c * chi_M(q), with c the number of components (Whitney 1932): the
chromatic polynomial itself, read at enough points to fix it.
"""

import math
from itertools import combinations, permutations

import pytest

from matfan.charpoly import char_poly
from matfan.matroid import GraphicMatroid
from matfan.validation import run_check

GRAPH_COUNTS = {2: 1, 3: 3, 4: 10, 5: 33, 6: 155}
ROUTES = {"mobius", "flags", "divisor", "displacement"}


def graphs_with_an_edge(vertices):
    """One edge list per isomorphism class of simple graphs with at least
    one edge on the given vertices: the least edge mask of each orbit."""
    pairs = list(combinations(range(vertices), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    images = [[index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
              for p in permutations(range(vertices))]
    seen = set()
    classes = []
    for mask in range(1, 1 << len(pairs)):
        if mask in seen:
            continue
        edges = [i for i in range(len(pairs)) if mask >> i & 1]
        seen.update(sum(1 << image[i] for i in edges) for image in images)
        classes.append([pairs[i] for i in edges])
    return classes


def colourings(vertices, edges, q):
    """Proper colourings of the graph with q colours, by backtracking over
    the vertices in order.  Each vertex takes a colour already used that
    no earlier neighbour has, or the next new one, so a leaf with k
    colours is a colouring up to renaming them, and q colours name those
    k in q(q-1)...(q-k+1) ways."""
    earlier = [[u for u, w in edges if w == v] for v in range(vertices)]
    colour = [0] * vertices

    def extend(v, used):
        if v == vertices:
            return math.perm(q, used)
        total = 0
        for c in range(used + 1):
            if all(colour[u] != c for u in earlier[v]):
                colour[v] = c
                total += extend(v + 1, max(used, c + 1))
        return total

    return extend(0, 0)


def evaluate(poly, q):
    value = 0
    for c in poly:
        value = value * q + c
    return value


GRAPHS = {vertices: graphs_with_an_edge(vertices) for vertices in GRAPH_COUNTS}


def test_graph_counts():
    assert {v: len(classes) for v, classes in GRAPHS.items()} == GRAPH_COUNTS
    assert sum(GRAPH_COUNTS.values()) == 202
    assert list(combinations(range(6), 2)) in GRAPHS[6]  # K6
    # The counting oracle on closed forms: K_n gives q(q-1)...(q-n+1),
    # and a path on n vertices q(q-1)^(n-1).
    assert [colourings(4, list(combinations(range(4), 2)), q) for q in range(5)] == [
        0, 0, 0, 0, 24]
    assert [colourings(4, [(0, 1), (1, 2), (2, 3)], q) for q in range(4)] == [0, 0, 2, 24]


@pytest.mark.parametrize("vertices", sorted(GRAPH_COUNTS))
def test_every_small_graph_passes_check_and_colours_by_whitney(vertices):
    for edges in GRAPHS[vertices]:
        matroid = GraphicMatroid(vertices, edges)
        report = run_check(matroid).report
        assert report["pass"] is True, (edges, report.get("error"), report.get("failures"))
        assert "skipped" not in report, edges
        assert set(report["mu"]) == ROUTES, edges
        poly = char_poly(matroid)
        components = vertices - matroid.full_rank
        assert [colourings(vertices, edges, q) for q in range(vertices + 1)] == [
            q ** components * evaluate(poly, q) for q in range(vertices + 1)], edges

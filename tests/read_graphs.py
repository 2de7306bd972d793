"""Read's conjecture on every graph with N vertices, as a script:

    PYTHONPATH=src python3 tests/read_graphs.py N

The graphs on N vertices are built from those on N - 1 by adding a
vertex joined to each subset of the others, which makes every graph up
to isomorphism: deleting a vertex undoes it.  An isomorph is rejected
by a canonical form computed within its bucket of equal degree
sequence: the least edge list over the labelings that list the vertices
by degree, so only vertices of equal degree are permuted.

Each graph with an edge must pass check with all four routes and
nothing skipped.  Independently of every route, a backtracking count of
proper q-colourings for q = 0..N must equal q^c * chi_M(q), with c the
number of components (Whitney 1932): the chromatic polynomial itself,
read at enough points to fix it.  The count of graphs must match OEIS
A000088 less the edgeless graph.  The script prints the count and its
time and exits 1 on the first graph that fails.  tests/test_graphs.py
runs the same enumeration and checks on 2 to 6 vertices under pytest.
"""

import math
import sys
import time
from itertools import chain, combinations, permutations, product

from matfan.charpoly import char_poly
from matfan.matroid import GraphicMatroid
from matfan.validation import run_check

from oracles import every_route_failure, value_at

# OEIS A000088 less the edgeless graph.
WITH_AN_EDGE = {1: 0, 2: 1, 3: 3, 4: 10, 5: 33, 6: 155, 7: 1043, 8: 12345}


def canonical(vertices, edges):
    """The degree sequence, and the least sorted edge list over the
    labelings that list the vertices by ascending degree."""
    degree = [0] * vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    classes = [[v for v in range(vertices) if degree[v] == d] for d in sorted(set(degree))]

    def relabelled(orders):
        label = {v: i for i, v in enumerate(chain.from_iterable(orders))}
        return sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)

    form = min(map(relabelled, product(*map(permutations, classes))))
    return tuple(sorted(degree)), tuple(form)


def graphs(vertices):
    """One edge list per isomorphism class of graphs on the vertices."""
    if vertices == 1:
        return [[]]
    new = vertices - 1
    buckets: dict[tuple, set] = {}
    for edges in graphs(new):
        for k in range(new + 1):
            for joined in combinations(range(new), k):
                degrees, form = canonical(vertices, edges + [(u, new) for u in joined])
                buckets.setdefault(degrees, set()).add(form)
    return [list(form) for forms in buckets.values() for form in sorted(forms)]


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


def check(vertices, edges):
    """Why the graph fails, or None when it passes."""
    matroid = GraphicMatroid(vertices, edges)
    failure = every_route_failure(run_check(matroid).report)
    if failure:
        return failure
    poly = char_poly(matroid)
    components = vertices - matroid.full_rank
    if [colourings(vertices, edges, q) for q in range(vertices + 1)] != [
            q ** components * value_at(poly, q) for q in range(vertices + 1)]:
        return "the colourings are not q^c * chi(q)"
    return None


def main(vertices):
    start = time.perf_counter()
    with_an_edge = [edges for edges in graphs(vertices) if edges]
    for edges in with_an_edge:
        failure = check(vertices, edges)
        if failure:
            print(f"{edges}: {failure}")
            return 1
    seconds = time.perf_counter() - start
    print(f"{len(with_an_edge)} graphs with an edge on {vertices} vertices pass check "
          f"by all four routes and colour as q^c * chi(q), in {seconds:.1f} s")
    if len(with_an_edge) != WITH_AN_EDGE.get(vertices):
        print(f"expected {WITH_AN_EDGE.get(vertices)} graphs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))

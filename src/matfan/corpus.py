"""Built-in matroid corpus for the cross-validation harness.

Fixed list, fixed order: free matroids up to 7 elements, all proper
uniform matroids up to 7 elements, the cycle matroids of the two
smallest complete graphs with interesting rank, the two classical
7-point rank-3 configurations (one binary, one rational), and three
explicit rank tables chosen to exercise simplification, a relaxation,
and a single nontrivial line.

Each entry is an input document, loaded by schema.load_matroid like any
user document, so the built-in rank tables are checked against the rank
axioms on every build.
"""

from __future__ import annotations

from .matroid import Matroid
from .schema import load_matroid

K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
K5_EDGES = [[u, v] for u in range(5) for v in range(u + 1, 5)]

# Column e is the binary expansion of e + 1: the seven nonzero vectors
# of a 3-dimensional binary space.  Read mod 2 this is the smallest
# projective plane; read over the rationals the same integer matrix has
# one fewer collinear triple.
POINT_MATRIX = [[(e + 1) >> i & 1 for e in range(7)] for i in range(3)]

K4_DOC = {"type": "graphic", "vertices": 4, "edges": K4_EDGES}


def _whirl_table() -> list[int]:
    # K4 with one triangle declared independent (a relaxation); the
    # result is no longer graphic.
    base = load_matroid(K4_DOC)
    relaxed = 0b111000  # edges (1,2), (1,3), (2,3)
    return [3 if mask == relaxed else base.rank(mask) for mask in range(1 << 6)]


def _one_line_table() -> list[int]:
    # Six points in rank 3, generic except that {0,1,2} lie on a line.
    line = 0b000111
    return [
        min(mask.bit_count(), 2 if mask | line == line else 3)
        for mask in range(1 << 6)
    ]


def _parallel_sum_table() -> list[int]:
    # Direct sum of a two-point parallel class and a three-point line:
    # exercises the simplification path of every consumer.
    left, right = 0b00011, 0b11100
    return [
        min((mask & left).bit_count(), 1) + min((mask & right).bit_count(), 2)
        for mask in range(1 << 5)
    ]


_DOCUMENTS: dict[str, dict] = {
    **{f"free-{size}": {"type": "free", "size": size} for size in range(1, 8)},
    **{f"u-{k}-{m}": {"type": "uniform", "rank": k, "size": m}
       for m in range(2, 8) for k in range(1, m)},
    "k4": K4_DOC,
    "k5": {"type": "graphic", "vertices": 5, "edges": K5_EDGES},
    "fano": {"type": "linear", "field": "GF(2)", "matrix": POINT_MATRIX},
    "non-fano": {"type": "linear", "field": "Q", "matrix": POINT_MATRIX},
    "rt-parallel": {"type": "rank_table", "n": 5, "ranks": _parallel_sum_table()},
    "rt-whirl": {"type": "rank_table", "n": 6, "ranks": _whirl_table()},
    "rt-one-line": {"type": "rank_table", "n": 6, "ranks": _one_line_table()},
}

CORPUS_NAMES: tuple[str, ...] = tuple(_DOCUMENTS)


def build(name: str) -> Matroid:
    try:
        document = _DOCUMENTS[name]
    except KeyError:
        raise ValueError(f"unknown corpus entry {name!r}") from None
    return load_matroid(dict(document, name=name))

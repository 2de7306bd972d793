"""Built-in matroid corpus for the cross-validation harness.

Fixed list, fixed order: free matroids up to 7 elements, all proper
uniform matroids up to 7 elements, the cycle matroids of the two
smallest complete graphs with interesting rank, the two classical
7-point rank-3 configurations (one binary, one rational), and three
explicit rank tables chosen to exercise simplification, a relaxation,
and a single nontrivial line.
"""

from __future__ import annotations

from typing import Callable

from .matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    UniformMatroid,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5_EDGES = [(u, v) for u in range(5) for v in range(u + 1, 5)]

# Column e is the binary expansion of e + 1: the seven nonzero vectors
# of a 3-dimensional binary space.  Read mod 2 this is the smallest
# projective plane; read over the rationals the same integer matrix has
# one fewer collinear triple.
POINT_MATRIX = [[(e + 1) >> i & 1 for e in range(7)] for i in range(3)]


def _whirl_table() -> list[int]:
    # K4 with one triangle declared independent (a relaxation); the
    # result is no longer graphic.
    base = GraphicMatroid(4, K4_EDGES)
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


def _builders() -> dict[str, Callable[[], Matroid]]:
    out: dict[str, Callable[[], Matroid]] = {}
    for size in range(1, 8):
        out[f"free-{size}"] = lambda size=size: FreeMatroid(size, f"free-{size}")
    for m in range(2, 8):
        for k in range(1, m):
            out[f"u-{k}-{m}"] = lambda k=k, m=m: UniformMatroid(k, m, f"u-{k}-{m}")
    out["k4"] = lambda: GraphicMatroid(4, K4_EDGES, "k4")
    out["k5"] = lambda: GraphicMatroid(5, K5_EDGES, "k5")
    out["fano"] = lambda: LinearMatroid(POINT_MATRIX, 2, "fano")
    out["non-fano"] = lambda: LinearMatroid(POINT_MATRIX, None, "non-fano")
    out["rt-parallel"] = lambda: RankTableMatroid(5, _parallel_sum_table(), "rt-parallel")
    out["rt-whirl"] = lambda: RankTableMatroid(6, _whirl_table(), "rt-whirl")
    out["rt-one-line"] = lambda: RankTableMatroid(6, _one_line_table(), "rt-one-line")
    return out


_BUILDERS = _builders()

CORPUS_NAMES: tuple[str, ...] = tuple(_BUILDERS)


def build(name: str) -> Matroid:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown corpus entry {name!r}") from None

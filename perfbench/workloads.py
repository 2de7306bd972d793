"""Seeded input documents for the three benchmark workloads.

Every workload is a list of operations; an operation is one ``check`` of
one matroid.  ``operations(workload, seed)`` returns ``(name, document)``
pairs, where ``document`` is a matroid input document as ``matfan``
accepts it, or ``None`` for a built-in corpus entry.  The same seed gives
byte-identical documents; the generator never looks at what ``matfan``
does with them, so inputs that need displacement retries stay in.

The workloads are stratified: every seed draws one instance per stratum
(type, size, rank), so the total work of a pass varies little between
seeds while the instances differ.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("corpus", "near-limit", "lattice")

# The 35 built-in entries, in the order `matfan corpus` runs them.  The
# list is restated here so that generating a workload never imports
# matfan; `run.py` checks that it still matches `matfan.corpus`.
CORPUS_NAMES = (
    tuple(f"free-{s}" for s in range(1, 8))
    + tuple(f"u-{k}-{m}" for m in range(2, 8) for k in range(1, m))
    + ("k4", "k5", "fano", "non-fano", "rt-parallel", "rt-whirl", "rt-one-line")
)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512 by `random`, independent of
    # PYTHONHASHSEED, so documents repeat across processes.
    return random.Random(f"{workload}:{seed}")


def _projective_points(p: int, rank: int) -> list[tuple[int, ...]]:
    """One representative per 1-dimensional subspace of GF(p)^rank."""
    points = []
    for vec in itertools.product(range(p), repeat=rank):
        nonzero = [x for x in vec if x]
        if nonzero and nonzero[0] == 1:
            points.append(vec)
    return points


def _rank(columns: list[tuple[int, ...]], p: int | None) -> int:
    """Rank of integer column vectors over GF(p), or over Q when p is None."""
    rows = [[Fraction(x) if p is None else x % p for x in c] for c in columns]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                if p is None:
                    f = rows[i][col] / pivot[col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
                else:
                    f = rows[i][col] * pow(pivot[col], p - 2, p)
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


def _transpose(columns: list[tuple[int, ...]]) -> list[list[int]]:
    return [list(row) for row in zip(*columns)]


def _gfp_doc(rng: random.Random, p: int, rank: int, simple: int,
             parallel: int = 0, loops: int = 0) -> dict:
    """`simple` distinct points spanning GF(p)^rank, then `parallel` scalar
    copies of chosen points and `loops` zero columns, shuffled."""
    points = _projective_points(p, rank)
    while True:
        chosen = rng.sample(points, simple)
        if _rank(chosen, p) == rank:
            break
    columns = list(chosen)
    for _ in range(parallel):
        base = rng.choice(chosen)
        scale = rng.randrange(1, p)
        columns.append(tuple(x * scale % p for x in base))
    columns.extend([(0,) * rank] * loops)
    rng.shuffle(columns)
    return {"type": "linear", "field": f"GF({p})", "matrix": _transpose(columns)}


def _rational_doc(rng: random.Random, rank: int, size: int) -> dict:
    """`size` pairwise non-parallel integer vectors spanning Q^rank."""
    while True:
        seen: set[tuple[int, ...]] = set()
        columns = []
        while len(columns) < size:
            vec = tuple(rng.randint(-3, 3) for _ in range(rank))
            if not any(vec):
                continue
            # Normalise up to a rational scalar to reject parallel columns.
            lead = next(x for x in vec if x)
            key = tuple(Fraction(x, lead) for x in vec)
            if key in seen:
                continue
            seen.add(key)
            columns.append(vec)
        if _rank(columns, None) == rank:
            return {"type": "linear", "field": "Q", "matrix": _transpose(columns)}


def _graphic_doc(rng: random.Random, vertices: int, edges: int,
                 parallel: int = 0, loops: int = 0) -> dict:
    """A connected simple graph with `edges` edges, then `parallel` repeated
    edges and `loops` self-loops, shuffled."""
    pairs = list(itertools.combinations(range(vertices), 2))
    while True:
        chosen = rng.sample(pairs, edges)
        if _connected(vertices, chosen):
            break
    out = [list(e) for e in chosen]
    out += [list(rng.choice(chosen)) for _ in range(parallel)]
    out += [[v, v] for v in rng.sample(range(vertices), loops)]
    rng.shuffle(out)
    return {"type": "graphic", "vertices": vertices, "edges": out}


def _connected(vertices: int, edges: list[tuple[int, int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == vertices


def _uniform_doc(rank: int, size: int) -> dict:
    return {"type": "uniform", "rank": rank, "size": size}


def _near_limit(rng: random.Random) -> list[tuple[str, dict]]:
    # Simple 8-element inputs: the two uniform ones and two instances of
    # each rank-4 stratum and one of each rank-3 stratum, then u(3,9), the
    # largest ground set the geometry limit admits.  There is no rank-3
    # graphic or GF(2) stratum: a simple one has at most 6 or 7 elements.
    ops = [("u3-8", _uniform_doc(3, 8)), ("u4-8", _uniform_doc(4, 8))]
    for i in (1, 2):
        ops += [
            (f"graphic-r4-{i}", _graphic_doc(rng, 5, 8)),
            (f"gf2-r4-{i}", _gfp_doc(rng, 2, 4, 8)),
            (f"gf3-r4-{i}", _gfp_doc(rng, 3, 4, 8)),
            (f"q-r4-{i}", _rational_doc(rng, 4, 8)),
        ]
    ops += [("gf3-r3", _gfp_doc(rng, 3, 3, 8)), ("q-r3", _rational_doc(rng, 3, 8))]
    rng.shuffle(ops)
    return ops + [("u3-9", _uniform_doc(3, 9))]


def _lattice(rng: random.Random) -> list[tuple[str, dict]]:
    # 12-16 elements, above the geometry limit, with many operations of
    # similar cost so that the median and tail sit among close neighbours.
    # High-rank graphic inputs (k7, wheels, rank-9 graphs) and free-8 are
    # left out: see README.md.
    ops = [
        ("graphic-6v-10e", _graphic_doc(rng, 6, 10)),
        ("graphic-6v-12e+par+loop", _graphic_doc(rng, 6, 12, parallel=3, loops=1)),
        ("graphic-6v-13e", _graphic_doc(rng, 6, 13)),
        ("graphic-6v-15e", _graphic_doc(rng, 6, 15)),
        ("gf2-r4-12", _gfp_doc(rng, 2, 4, 12)),
        ("gf2-r4-13+par+loop", _gfp_doc(rng, 2, 4, 13, parallel=2, loops=1)),
        ("gf2-r4-14", _gfp_doc(rng, 2, 4, 14)),
        ("gf2-r4-15", _gfp_doc(rng, 2, 4, 15)),
        ("gf2-r5-12", _gfp_doc(rng, 2, 5, 12)),
        ("gf3-r3-13", _gfp_doc(rng, 3, 3, 13)),
        ("gf3-r4-12", _gfp_doc(rng, 3, 4, 12)),
        ("gf3-r4-13+par+loop", _gfp_doc(rng, 3, 4, 13, parallel=2, loops=1)),
        ("gf3-r4-14", _gfp_doc(rng, 3, 4, 14)),
        ("u3-12", _uniform_doc(3, 12)),
        ("u3-14", _uniform_doc(3, 14)),
        ("u3-16", _uniform_doc(3, 16)),
        ("u4-12", _uniform_doc(4, 12)),
        ("u4-14", _uniform_doc(4, 14)),
        # Valid inputs that exit 3 at this commit (ROADMAP item 4).
        ("u2-22", _uniform_doc(2, 22)),
        ("u3-31", _uniform_doc(3, 31)),
    ]
    rng.shuffle(ops)
    return ops


def operations(workload: str, seed: int) -> list[tuple[str, dict | None]]:
    """The operations of one pass of `workload` under `seed`, in run order."""
    if workload == "corpus":
        return [(name, None) for name in CORPUS_NAMES]
    rng = _rng(workload, seed)
    if workload == "near-limit":
        ops = _near_limit(rng)
    elif workload == "lattice":
        ops = _lattice(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [(name, dict(doc, name=name)) for name, doc in ops]


def document_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialisation of a pass, for determinism checks."""
    return json.dumps(operations(workload, seed), sort_keys=True).encode()

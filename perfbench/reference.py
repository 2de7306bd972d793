"""Independent reference coefficients for every benchmark operation.

Nothing here imports matfan.  Each reference is the vector ``mu`` that
``check`` reports for the simplification of the input: the absolute
coefficients of the characteristic polynomial divided by (q - 1).

* uniform and free inputs: the closed form of Whitney's subset expansion;
* graphic inputs: the chromatic polynomial, from counting proper
  colourings and interpolating, divided by q per connected component;
* linear inputs over GF(p) or Q: Whitney's expansion over the simplified
  column set, with ranks from an elimination written here;
* the corpus: the frozen vectors of the acceptance test (criterion 2) for
  ``k4``, ``k5``, ``fano`` and ``non-fano``, closed forms for the free and
  uniform entries, and Whitney's expansion over the restated rank rules of
  the three rank-table entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

# Frozen in tests/test_acceptance.py (criterion 2), verified there against
# the brute-force oracle.
FROZEN = {
    "k4": (1, 5, 6),
    "k5": (1, 9, 26, 24),
    "fano": (1, 6, 8),
    "non-fano": (1, 6, 9),
}


def _mu_from_char_poly(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Degree-descending chi(q) -> |coefficients| of chi(q) / (q - 1)."""
    quotient = []
    carry = 0
    for c in coeffs[:-1]:
        carry = carry + c
        quotient.append(carry)
    if carry + coeffs[-1] != 0:
        raise ValueError("characteristic polynomial does not vanish at 1")
    return tuple(abs(c) for c in quotient)


def uniform_mu(rank: int, size: int) -> tuple[int, ...]:
    """chi(q) = sum_S (-1)^|S| q^(rank - min(|S|, rank))."""
    coeffs = [0] * (rank + 1)
    for i in range(size + 1):
        coeffs[min(i, rank)] += (-1) ** i * math.comb(size, i)
    return _mu_from_char_poly(coeffs)


def whitney_mu(size: int, rank_of: Callable[[int], int]) -> tuple[int, ...]:
    """Whitney's expansion of chi over all 2^size subsets (loopless input)."""
    full = rank_of((1 << size) - 1)
    coeffs = [0] * (full + 1)
    for mask in range(1 << size):
        coeffs[rank_of(mask)] += -1 if mask.bit_count() & 1 else 1
    return _mu_from_char_poly(coeffs)


# -- linear inputs -----------------------------------------------------------


def _field_ops(field: Optional[int]):
    if field is None:
        return Fraction, lambda a, b: a / b, lambda a: a
    return int, lambda a, b: a * pow(b, field - 2, field) % field, lambda a: a % field


def _normalise(vec, field):
    """Scale so the first nonzero entry is 1; None for the zero vector."""
    _, div, red = _field_ops(field)
    lead = next((x for x in vec if red(x)), None)
    if lead is None:
        return None
    return tuple(red(div(x, lead)) for x in vec)


def _linear_rank_table(columns, field) -> list[int]:
    """Rank of every subset of columns, built up one element at a time.

    Each subset keeps a reduced basis of its span; a full-rank subset
    short-circuits, so only the few small-rank subsets do elimination.
    """
    num, div, red = _field_ops(field)
    dim = len(columns[0]) if columns else 0
    ranks = [0] * (1 << len(columns))
    bases: list[Optional[list[tuple[int, tuple]]]] = [None] * (1 << len(columns))
    bases[0] = []
    full = None
    for mask in range(1, 1 << len(columns)):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if ranks[rest] == full:
            ranks[mask] = full
            continue
        vec = [num(x) for x in columns[top]]
        for pivot, row in bases[rest]:
            f = vec[pivot]
            if red(f):
                vec = [red(a - f * b) for a, b in zip(vec, row)]
        pivot = next((i for i, x in enumerate(vec) if red(x)), None)
        if pivot is None:
            ranks[mask] = ranks[rest]
            bases[mask] = bases[rest]
            continue
        inv_row = tuple(red(div(x, vec[pivot])) for x in vec)
        basis = []
        for p, row in bases[rest]:
            f = row[pivot]
            basis.append((p, tuple(red(a - f * b) for a, b in zip(row, inv_row))
                          if red(f) else row))
        basis.append((pivot, inv_row))
        ranks[mask] = ranks[rest] + 1
        bases[mask] = basis
        if ranks[mask] == dim:
            full = dim
    return ranks


def linear_mu(matrix: Sequence[Sequence], field: Optional[int]) -> tuple[int, ...]:
    columns = list(zip(*matrix))
    if field is None:
        columns = [tuple(Fraction(x) for x in c) for c in columns]
    points = list(dict.fromkeys(
        p for p in (_normalise(c, field) for c in columns) if p is not None))
    ranks = _linear_rank_table(points, field)
    return whitney_mu(len(points), ranks.__getitem__)


# -- graphic inputs ----------------------------------------------------------


def _colourings(vertices: int, adjacency: list[set[int]], q: int) -> int:
    colour = [0] * vertices

    def place(v: int) -> int:
        if v == vertices:
            return 1
        total = 0
        for c in range(q):
            if all(colour[u] != c for u in adjacency[v] if u < v):
                colour[v] = c
                total += place(v + 1)
        return total

    return place(0)


def _interpolate(values: list[int]) -> list[int]:
    """Degree-descending integer coefficients of the polynomial through
    (x, values[x]) for x = 0..len-1 (Newton forward differences)."""
    n = len(values)
    diffs = [Fraction(v) for v in values]
    newton = []
    for k in range(n):
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    poly = [Fraction(0)] * n  # ascending
    basis = [Fraction(1)]  # x(x-1)...(x-k+1)/k!, ascending
    for k in range(n):
        for i, c in enumerate(basis):
            poly[i] += newton[k] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            nxt[i + 1] += c / (k + 1)
            nxt[i] -= c * k / (k + 1)
        basis = nxt
    if any(c.denominator != 1 for c in poly):
        raise ValueError("interpolated polynomial is not integral")
    return [int(c) for c in reversed(poly)]


def graphic_mu(vertices: int, edges: Sequence[Sequence[int]]) -> tuple[int, ...]:
    adjacency: list[set[int]] = [set() for _ in range(vertices)]
    for u, v in edges:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    chromatic = _interpolate([_colourings(vertices, adjacency, q)
                              for q in range(vertices + 1)])
    components = _components(vertices, adjacency)
    # chi_M(q) = P_G(q) / q^components; the low coefficients are zero.
    if any(chromatic[len(chromatic) - components:]):
        raise ValueError("chromatic polynomial lacks the factor q^c")
    return _mu_from_char_poly(chromatic[:len(chromatic) - components])


def _components(vertices: int, adjacency: list[set[int]]) -> int:
    seen: set[int] = set()
    count = 0
    for start in range(vertices):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


# -- corpus ------------------------------------------------------------------

_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _k4_rank(mask: int) -> int:
    parent = list(range(4))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    rank = 0
    for e, (u, v) in enumerate(_K4):
        if mask >> e & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
    return rank


# Restated rank rules of the corpus rank tables (see matfan.corpus):
# a 2-point parallel class plus a 3-point line; six points with one
# 3-point line; K4 with the triangle on edges 3, 4, 5 relaxed.
_RANK_TABLES = {
    "rt-parallel": (5, lambda m: min((m & 0b00011).bit_count(), 1)
                    + min((m & 0b11100).bit_count(), 2)),
    "rt-one-line": (6, lambda m: min(m.bit_count(), 2 if m | 0b111 == 0b111 else 3)),
    "rt-whirl": (6, lambda m: 3 if m == 0b111000 else _k4_rank(m)),
}


def corpus_mu(name: str) -> tuple[int, ...]:
    if name in FROZEN:
        return FROZEN[name]
    if name.startswith("free-"):
        size = int(name[5:])
        return uniform_mu(size, size)
    if name.startswith("u-"):
        k, m = (int(x) for x in name[2:].split("-"))
        return uniform_mu(k, m)
    size, rank_of = _RANK_TABLES[name]
    # Simplify first: drop parallel copies, keeping the lowest element.
    keep = []
    for x in range(size):
        if not any(rank_of(1 << x | 1 << y) == 1 for y in keep):
            keep.append(x)
    return whitney_mu(len(keep), lambda m: rank_of(
        sum(1 << keep[i] for i in range(len(keep)) if m >> i & 1)))


def document_mu(doc: dict) -> tuple[int, ...]:
    """Reference vector for one generated input document."""
    kind = doc["type"]
    if kind == "uniform":
        return uniform_mu(doc["rank"], doc["size"])
    if kind == "graphic":
        return graphic_mu(doc["vertices"], doc["edges"])
    if kind == "linear":
        field = doc["field"]
        return linear_mu(doc["matrix"], None if field == "Q" else int(field[3:-1]))
    raise ValueError(f"no reference for document type {kind!r}")


def expected_mu(name: str, doc: Optional[dict]) -> tuple[int, ...]:
    return corpus_mu(name) if doc is None else document_mu(doc)


# -- output check ------------------------------------------------------------

OK, ERROR, WRONG = "ok", "error", "wrong"


def check_output(expected: tuple[int, ...], exit_code: int,
                 report: Optional[dict]) -> tuple[str, str]:
    """Classify one operation as (OK | ERROR | WRONG, reason).

    ERROR is an exit 3 (an internal invariant broke or a size was
    refused); WRONG is any other miss: no report, ``pass`` not true, an
    exit code that disagrees with the report, or a coefficient vector
    that differs from the reference.  Both count as failed operations;
    only WRONG makes a run incorrect.
    """
    if exit_code == 3:
        return ERROR, "exit 3: " + str((report or {}).get("error", "internal error"))
    if report is None:
        return WRONG, f"exit {exit_code} without a report"
    if report.get("pass") is not True:
        return WRONG, f"pass is {report.get('pass')!r}: {report.get('failures')}"
    if exit_code != 0:
        return WRONG, f"exit {exit_code} with pass true"
    for method, vector in report["mu"].items():
        if vector is not None and tuple(vector) != expected:
            return WRONG, f"{method} gave {vector}, reference {list(expected)}"
    return OK, ""

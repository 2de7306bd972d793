"""Exact linear algebra over the integers, the rationals, and GF(p).

No floats.  One fraction-free elimination, _echelon, serves rank, and the
generic solvers of the test oracles run it too.  Production uses rank over
Q and odd p, and is_prime; rank(rows, 2) is kept as the tests' GF(2)
reference.
"""

from __future__ import annotations

from typing import Sequence


def _echelon(mat: list[list[int]], p: int | None = None) -> tuple[list[int], int]:
    """Row-echelon form of an integer matrix, in place, over Q or GF(p).

    Returns the pivot columns and the sign of the row swaps.  Columns
    without a pivot are skipped; the pass stops once every row has one.
    Below each pivot, row_i becomes pivot * row_i - row_i[col] * pivot_row,
    reduced mod p (entries must come reduced), or over Q divided exactly
    by the previous pivot (Bareiss 1968), so every entry stays an integer
    minor of the input.  A row that is zero in the pivot column is left
    alone, unless over Q the pivot differs from the previous one.
    """
    n = len(mat)
    width = len(mat[0]) if n else 0
    pivots: list[int] = []
    r = 0
    sign = 1
    prev = 1
    for col in range(width):
        piv = next((i for i in range(r, n) if mat[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        prow = mat[r]
        pk = prow[col]
        for i in range(r + 1, n):
            ri = mat[i]
            f = ri[col]
            if p is None:
                if f or pk != prev:
                    for j in range(col + 1, width):
                        ri[j] = (pk * ri[j] - f * prow[j]) // prev
            elif f:
                for j in range(col + 1, width):
                    ri[j] = (pk * ri[j] - f * prow[j]) % p
        prev = pk
        pivots.append(col)
        r += 1
        if r == n:
            break
    return pivots, sign


def rank(rows: Sequence[Sequence[int]], p: int | None = None) -> int:
    """Rank of an integer matrix over Q, or over GF(p) when p is given."""
    mat = [list(r) for r in rows] if p is None else [[x % p for x in r] for r in rows]
    return len(_echelon(mat, p)[0])


# Never called: perfbench/layertrace.py wraps these two names.  The
# generic solvers are test oracles (tests/oracles.py).
solve_square_int = solve_in_span = None


# Miller-Rabin with the prime bases up to 41 is proven deterministic
# below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_TEST_LIMIT."""
    if p >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: "
                         f"moduli must be below {PRIME_TEST_LIMIT}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True

"""Exact linear algebra over the integers, the rationals, and GF(p).

Everything is fraction-free or Fraction-based; no floats.  Production
uses the ranks (Gaussian elimination over Fraction or GF(p)) and
is_prime.  Two generic solvers are kept as references that the
flag-cone code is tested against: solve_square_int (Bareiss square
solves, with a rational consistency test for singular systems) for the
displacement pairing's spanning-tree solve, and solve_in_span for the
flag-cone span test in fan.  The benchmark's layer tracer
(perfbench/layertrace.py) wraps both by name, so they stay here rather
than among the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# Statuses returned by solve_square_int.
UNIQUE = "unique"
SINGULAR_CONSISTENT = "singular-consistent"
SINGULAR_INCONSISTENT = "singular-inconsistent"


def solve_square_int(aug: list[list[int]]):
    """Solve A y = b for square integer A, given as augmented rows [A | b].

    Returns (status, det, num, den): on UNIQUE the solution is the exact
    rational vector num[i] / den with integer num and a single common
    nonzero integer den (so callers can classify signs without building
    Fractions); on either singular status det is 0 and num is None.
    Rows are consumed destructively; pass a copy if needed.
    """
    n = len(aug)
    if n == 0:
        return UNIQUE, 1, [], 1
    original = [row[:] for row in aug]
    sign = 1
    prev = 1
    singular = False
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            singular = True
            break
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        pk = aug[k][k]
        for i in range(k + 1, n):
            row_i = aug[i]
            mik = row_i[k]
            if mik == 0 and pk == prev:
                continue
            row_k = aug[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    if singular:
        if _rational_consistent(original):
            return SINGULAR_CONSISTENT, 0, None, 0
        return SINGULAR_INCONSISTENT, 0, None, 0
    den = aug[n - 1][n - 1]
    det = sign * den
    # Back-substitute in scaled integers: num[i] = den * y[i] is det(A_i)
    # up to the row-swap sign (Cramer), so every division below is exact.
    # Eliminated rows are still valid equations of the original system.
    num = [0] * n
    num[n - 1] = aug[n - 1][n]
    for i in range(n - 2, -1, -1):
        row = aug[i]
        acc = row[n] * den
        for j in range(i + 1, n):
            if row[j]:
                acc -= row[j] * num[j]
        num[i] = acc // row[i]
    return UNIQUE, det, num, den


def _rational_consistent(aug: list[list[int]]) -> bool:
    """rank(A) == rank([A|b]) for an augmented integer system."""
    rows = [[Fraction(x) for x in r] for r in aug]
    n = len(rows)
    width = len(rows[0])
    pivot_row = 0
    for col in range(width - 1):
        piv = next((i for i in range(pivot_row, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        prow = rows[pivot_row]
        inv = prow[col]
        for i in range(pivot_row + 1, n):
            f = rows[i][col]
            if f:
                ri = rows[i]
                scale = f / inv
                for j in range(col, width):
                    ri[j] -= scale * prow[j]
        pivot_row += 1
    return all(row[width - 1] == 0 for row in rows[pivot_row:])


def solve_in_span(columns: Sequence[Sequence[int]], target: Sequence[int]):
    """Express target as a rational combination of the given column vectors.

    Returns the coefficient list, or None if target is outside the span.
    The columns must be linearly independent (flag-cone generators always
    are); dependence raises ValueError.
    """
    k = len(columns)
    if k == 0:
        return [] if not any(target) else None
    n = len(target)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(k):
        piv = next((i for i in range(pivot_row, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        prow = rows[pivot_row]
        for i in range(n):
            if i != pivot_row and rows[i][col]:
                ri = rows[i]
                scale = ri[col] / prow[col]
                for j in range(col, k + 1):
                    ri[j] -= scale * prow[j]
        pivots.append(col)
        pivot_row += 1
    if len(pivots) < k:
        raise ValueError("span generators are linearly dependent")
    if any(rows[i][k] for i in range(pivot_row, n)):
        return None
    coeffs = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coeffs[col] = rows[r][k] / rows[r][col]
    return coeffs


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of a matrix with exact rational entries."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return 0
    n, width = len(mat), len(mat[0])
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, n) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, n):
            if mat[i][col]:
                ri = mat[i]
                scale = ri[col] / prow[col]
                for j in range(col, width):
                    ri[j] -= scale * prow[j]
        rank += 1
        if rank == n:
            break
    return rank


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    mat = [[x % p for x in r] for r in rows]
    if not mat:
        return 0
    n, width = len(mat), len(mat[0])
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, n) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[col], p - 2, p) if p > 2 else prow[col]
        for i in range(rank + 1, n):
            if mat[i][col]:
                ri = mat[i]
                scale = (ri[col] * inv) % p
                for j in range(col, width):
                    ri[j] = (ri[j] - scale * prow[j]) % p
        rank += 1
        if rank == n:
            break
    return rank


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

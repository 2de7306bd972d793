"""Exact linear algebra over the integers, the rationals, and GF(p).

No floats.  One fraction-free elimination, _echelon, serves rank and both
generic solvers.  Production uses rank over Q and odd p, and is_prime;
rank(rows, 2) is kept as the tests' GF(2) reference.  The solvers are kept
as references that the flag-cone code is tested against: solve_square_int
(Bareiss square solves) for the displacement pairing's spanning-tree
solve, and solve_in_span for the flag-cone span test of the test oracles'
flag_span_coefficients (fan's balancing test reads one block per gap and
solves nothing).  The benchmark's layer tracer (perfbench/layertrace.py)
wraps both by name, so they stay here rather than among the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# Statuses returned by solve_square_int.
UNIQUE = "unique"
SINGULAR_CONSISTENT = "singular-consistent"
SINGULAR_INCONSISTENT = "singular-inconsistent"


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


def solve_square_int(aug: list[list[int]]):
    """Solve A y = b for square integer A, given as augmented rows [A | b].

    Returns (status, det, num, den): on UNIQUE the solution is the exact
    rational vector num[i] / den with integer num and a single common
    nonzero integer den (so callers can classify signs without building
    Fractions); on either singular status det is 0 and num is None.
    A is singular when some column of it has no pivot, and the system is
    then inconsistent when the column of b has one.
    Rows are consumed destructively; pass a copy if needed.
    """
    n = len(aug)
    pivots, sign = _echelon(aug)
    if pivots != list(range(n)):
        if n in pivots:
            return SINGULAR_INCONSISTENT, 0, None, 0
        return SINGULAR_CONSISTENT, 0, None, 0
    den = aug[n - 1][n - 1] if n else 1
    # Back-substitute in scaled integers: num[i] = den * y[i] is det(A_i)
    # up to the row-swap sign (Cramer), so every division below is exact.
    # Eliminated rows are still valid equations of the original system.
    num = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        num[i] = (row[n] * den - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
    return UNIQUE, sign * den, num, den


def solve_in_span(columns: Sequence[Sequence[int]], target: Sequence[int]):
    """Express target as a rational combination of the given column vectors.

    Returns the coefficient list, or None if target is outside the span.
    The columns must be linearly independent (flag-cone generators always
    are); dependence raises ValueError.  Inside the span the coefficients
    solve the normal equations C^T C x = C^T t, whose matrix is
    nonsingular for independent columns.
    """
    k = len(columns)
    if rank(columns) < k:
        raise ValueError("span generators are linearly dependent")
    if rank([*columns, target]) > k:
        return None
    aug = [[sum(a * b for a, b in zip(ci, cj)) for cj in columns]
           + [sum(a * b for a, b in zip(ci, target))] for ci in columns]
    _, _, num, den = solve_square_int(aug)
    return [Fraction(c, den) for c in num]


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

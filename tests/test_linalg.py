"""Exact linear algebra: determinants, solves, Smith form, ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from matfan import linalg

from oracles import det_int, lattice_index, smith_invariant_factors


def fraction_det(rows):
    """Plain Gaussian elimination over Fraction, as an independent route."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                scale = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= scale * m[k][j]
    return det


small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(small_matrix)
def test_det_matches_fraction_elimination(rows):
    assert det_int(rows) == fraction_det(rows)


def test_det_known_values():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    # Vandermonde on 2, 3, 5.
    v = [[1, 2, 4], [1, 3, 9], [1, 5, 25]]
    assert det_int(v) == (3 - 2) * (5 - 2) * (5 - 3)


@given(small_matrix, st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_solve_square_agrees_with_fraction_solution(rows, b):
    n = len(rows)
    b = (b * n)[:n]
    aug = [row[:] + [b[i]] for i, row in enumerate(rows)]
    status, det, num, den = linalg.solve_square_int(aug)
    true_det = fraction_det(rows)
    if status == linalg.UNIQUE:
        assert det == true_det != 0
        assert den != 0 and num is not None and len(num) == n
        y = [Fraction(c, den) for c in num]
        for i, row in enumerate(rows):
            assert sum(Fraction(row[j]) * y[j] for j in range(n)) == b[i]
    else:
        assert true_det == 0
        assert (det, num, den) == (0, None, 0)


def test_solve_square_empty_system():
    assert linalg.solve_square_int([]) == (linalg.UNIQUE, 1, [], 1)


def test_solve_square_singular_split():
    # x + y = 2 twice: consistent but underdetermined.
    status, *_ = linalg.solve_square_int([[1, 1, 2], [1, 1, 2]])
    assert status == linalg.SINGULAR_CONSISTENT
    # Same left side, incompatible right sides.
    status, *_ = linalg.solve_square_int([[1, 1, 2], [1, 1, 3]])
    assert status == linalg.SINGULAR_INCONSISTENT
    # Singular only over the rationals, not by an obvious zero row.
    status, *_ = linalg.solve_square_int([[2, 4, 1], [3, 6, 5]])
    assert status == linalg.SINGULAR_INCONSISTENT


def test_solve_in_span_basics():
    cols = [(1, 0, 1), (0, 1, 1)]
    assert linalg.solve_in_span(cols, (2, 3, 5)) == [2, 3]
    assert linalg.solve_in_span(cols, (1, 0, 0)) is None
    assert linalg.solve_in_span([], (0, 0)) == []
    assert linalg.solve_in_span([], (0, 1)) is None
    with pytest.raises(ValueError):
        linalg.solve_in_span([(1, 2), (2, 4)], (1, 2))


def test_solve_in_span_rational_coefficients():
    coeffs = linalg.solve_in_span([(2, 0), (0, 3)], (1, 1))
    assert coeffs == [Fraction(1, 2), Fraction(1, 3)]


@given(small_matrix)
def test_rank_mod_p_bounded_by_rational_rank(rows):
    rq = linalg.rank_rational(rows)
    for p in (2, 3, 5):
        assert linalg.rank_mod_p(rows, p) <= rq


def test_rank_examples():
    assert linalg.rank_rational([[1, 2], [2, 4]]) == 1
    assert linalg.rank_rational([[1, 0], [0, 1]]) == 2
    # 2x2 binary all-ones drops rank mod 2 only after adding rows.
    assert linalg.rank_mod_p([[1, 1], [1, 1]], 2) == 1
    assert linalg.rank_mod_p([[1, 1], [1, -1]], 2) == 1
    assert linalg.rank_rational([[1, 1], [1, -1]]) == 2


def test_smith_invariant_factors():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[0, 0]]) == []


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_smith_divisibility_chain(rows):
    factors = smith_invariant_factors(rows)
    assert all(f > 0 for f in factors)
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    assert len(factors) == linalg.rank_rational(rows)


def test_lattice_index():
    assert lattice_index([[1, 0], [0, 1]]) == 1
    assert lattice_index([[1, 0], [0, 2]]) == 2
    assert lattice_index([[2, 0], [0, 3]]) == 6
    # Rows that span only a line have infinite index, reported as 0.
    assert lattice_index([[1, 0], [2, 0]]) == 0


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert linalg.is_prime(n) == (n in primes)
    assert linalg.is_prime(2**31 - 1)
    assert not linalg.is_prime(2**32 + 1)


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(linalg.is_prime(n) == by_trial_division(n) for n in range(10**5))


def test_is_prime_large_moduli():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 37; the remaining bases must catch them.
    assert not linalg.is_prime(3215031751)
    assert not linalg.is_prime(318665857834031151167461)
    assert linalg.is_prime(99999999999999999989)
    assert linalg.is_prime(2**61 - 1)
    assert not linalg.is_prime((2**61 - 1) * (2**13 - 1))
    assert not linalg.is_prime(linalg.PRIME_TEST_LIMIT - 1)
    with pytest.raises(ValueError, match="cannot decide"):
        linalg.is_prime(linalg.PRIME_TEST_LIMIT)


def test_solve_square_random_cross_check():
    # Denser matrices than hypothesis generates cheaply, fixed seed.
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(n)]
        b = [rng.randrange(-20, 21) for _ in range(n)]
        aug = [row[:] + [b[i]] for i, row in enumerate(rows)]
        status, det, num, den = linalg.solve_square_int(aug)
        assert det == fraction_det(rows)
        if status == linalg.UNIQUE:
            y = [Fraction(c, den) for c in num]
            for i, row in enumerate(rows):
                assert sum(Fraction(row[j]) * y[j] for j in range(n)) == b[i]

"""Exact linear algebra: determinants, inertia, solves, unimodularity, ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matfan import linalg

from oracles import (
    SINGULAR_CONSISTENT,
    SINGULAR_INCONSISTENT,
    UNIQUE,
    det_int,
    fraction_rank,
    integer_inertia,
    mod_p_rank,
    solve_in_span,
    solve_square_int,
    unimodular,
)


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
    with pytest.raises(ValueError, match="not square"):
        det_int([[1, 2]])


def descartes_inertia(rows):
    """(positive, negative, zero) eigenvalue counts with no elimination:
    the characteristic polynomial by Faddeev-LeVerrier, then Descartes'
    rule of signs, which is exact when every root is real, as the
    eigenvalues of a symmetric matrix are."""
    n = len(rows)
    coeffs, m = [1], [[0] * n for _ in range(n)]  # det(xI - A), degree-descending
    for k in range(1, n + 1):
        # M_k = A M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k, exactly.
        m = [[sum(a * b for a, b in zip(row, col)) + (coeffs[-1] if i == j else 0)
              for j, col in enumerate(zip(*m))] for i, row in enumerate(rows)]
        coeffs.append(-sum(sum(a * b for a, b in zip(row, col))
                           for row, col in zip(rows, zip(*m))) // k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c)
    alternated = [c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(alternated), zero


def test_inertia_known_values():
    assert integer_inertia([]) == (0, 0, 0)
    assert integer_inertia([[2, 1], [1, 2]]) == (2, 0, 0)
    assert integer_inertia([[1, 1], [1, 1]]) == (1, 0, 1)
    # Zero diagonals: the hyperbolic plane, alone and beside a zero row.
    assert integer_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert integer_inertia([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) == (1, 1, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        integer_inertia([[0, 1], [0, 0]])


symmetric_matrix = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                                min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda rows: [[rows[min(i, j)][max(i, j)] for j in range(len(rows))]
                    for i in range(len(rows))])


@settings(max_examples=200, deadline=None)
@given(symmetric_matrix)
def test_integer_inertia_matches_descartes(form):
    # Mostly zeros, so zero diagonals and singular forms come up often.
    assert integer_inertia(form) == descartes_inertia(form)


def test_integer_inertia_known_values():
    # A negative pivot flips the sign that the next one is read against.
    assert integer_inertia([[-1, 2], [2, -5]]) == (0, 2, 0)
    assert integer_inertia([[-1, 2], [2, 1]]) == (1, 1, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=5), st.data())
def test_inertia_is_kept_by_congruence(diagonal, data):
    # P^T D P has the signs of D for every invertible integer P (Sylvester).
    n = len(diagonal)
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    p = data.draw(st.lists(row, min_size=n, max_size=n).filter(det_int))
    form = [[sum(p[k][i] * diagonal[k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    signs = [(d > 0) - (d < 0) for d in diagonal]
    expected = (signs.count(1), signs.count(-1), signs.count(0))
    assert integer_inertia(form) == descartes_inertia(form) == expected


@given(small_matrix, st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_solve_square_agrees_with_fraction_solution(rows, b):
    n = len(rows)
    b = (b * n)[:n]
    aug = [row[:] + [b[i]] for i, row in enumerate(rows)]
    status, det, num, den = solve_square_int(aug)
    true_det = fraction_det(rows)
    if status == UNIQUE:
        assert det == true_det != 0
        assert den != 0 and num is not None and len(num) == n
        y = [Fraction(c, den) for c in num]
        for i, row in enumerate(rows):
            assert sum(Fraction(row[j]) * y[j] for j in range(n)) == b[i]
    else:
        assert true_det == 0
        assert (det, num, den) == (0, None, 0)


def test_solve_square_empty_system():
    assert solve_square_int([]) == (UNIQUE, 1, [], 1)


def test_solve_square_singular_split():
    # x + y = 2 twice: consistent but underdetermined.
    status, *_ = solve_square_int([[1, 1, 2], [1, 1, 2]])
    assert status == SINGULAR_CONSISTENT
    # Same left side, incompatible right sides.
    status, *_ = solve_square_int([[1, 1, 2], [1, 1, 3]])
    assert status == SINGULAR_INCONSISTENT
    # Singular only over the rationals, not by an obvious zero row.
    status, *_ = solve_square_int([[2, 4, 1], [3, 6, 5]])
    assert status == SINGULAR_INCONSISTENT


@st.composite
def square_systems(draw):
    """[A | b] with A singular on purpose when asked: one row replaced by
    an integer combination of the others.  b is A times an integer
    vector, perturbed in one entry when asked."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows[r] = [sum(c * row[j] for i, (c, row) in enumerate(zip(coeffs, rows)) if i != r)
                   for j in range(n)]
    y = draw(st.lists(entry, min_size=n, max_size=n))
    b = [sum(a * x for a, x in zip(row, y)) for row in rows]
    if draw(st.booleans()):
        b[draw(st.integers(0, n - 1))] += draw(st.integers(1, 9))
    return rows, b


@given(square_systems())
def test_solve_square_singular_split_matches_ranks(system):
    rows, b = system
    aug = [row + [bi] for row, bi in zip(rows, b)]
    status, *_ = solve_square_int([row[:] for row in aug])
    singular = fraction_det(rows) == 0
    assert (status == UNIQUE) == (not singular)
    assert (status == SINGULAR_CONSISTENT) == (
        singular and fraction_rank(rows) == fraction_rank(aug))


def test_solve_in_span_basics():
    cols = [(1, 0, 1), (0, 1, 1)]
    assert solve_in_span(cols, (2, 3, 5)) == [2, 3]
    assert solve_in_span(cols, (1, 0, 0)) is None
    assert solve_in_span([], (0, 0)) == []
    assert solve_in_span([], (0, 1)) is None
    with pytest.raises(ValueError):
        solve_in_span([(1, 2), (2, 4)], (1, 2))


def test_solve_in_span_rational_coefficients():
    coeffs = solve_in_span([(2, 0), (0, 3)], (1, 1))
    assert coeffs == [Fraction(1, 2), Fraction(1, 3)]


@st.composite
def span_problems(draw):
    """Up to 4 integer columns of height 1-4, and a target that is an
    integer combination of them or a free draw."""
    height = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    columns = draw(st.lists(st.lists(entry, min_size=height, max_size=height), max_size=4))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(columns), max_size=len(columns)))
        target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(height)]
    else:
        target = draw(st.lists(entry, min_size=height, max_size=height))
    return columns, target


@settings(deadline=None)
@given(span_problems())
def test_solve_in_span_matches_rational_ranks(problem):
    columns, target = problem
    k = len(columns)
    if fraction_rank(columns) < k:
        with pytest.raises(ValueError):
            solve_in_span(columns, target)
        return
    coeffs = solve_in_span(columns, target)
    assert (coeffs is None) == (fraction_rank([*columns, target]) > k)
    if coeffs is not None:
        assert len(coeffs) == k
        assert [sum(c * col[i] for c, col in zip(coeffs, columns))
                for i in range(len(target))] == target


@given(small_matrix)
def test_rank_mod_p_bounded_by_rational_rank(rows):
    rq = linalg.rank(rows)
    for p in (2, 3, 5):
        assert linalg.rank(rows, p) <= rq


def test_rank_examples():
    assert linalg.rank([]) == linalg.rank([], 3) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    # 2x2 binary all-ones drops rank mod 2 only after adding rows.
    assert linalg.rank([[1, 1], [1, 1]], 2) == 1
    assert linalg.rank([[1, 1], [1, -1]], 2) == 1
    assert linalg.rank([[1, 1], [1, -1]]) == 2
    # Entries are reduced mod p before elimination: this row is zero mod 2.
    assert linalg.rank([[2, 4]], 2) == 0
    assert linalg.rank([[2, 4]]) == 1
    # The last row is zero in the first pivot column, yet over Q it must be
    # scaled, or the next division is no longer exact and gives rank 2.
    assert linalg.rank([[2, 3, 1], [-1, -3, 2], [0, -2, 3]]) == 3


rectangular_matrix = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-15, 15), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


@given(rectangular_matrix)
def test_rank_over_q_matches_fraction_elimination(rows):
    assert linalg.rank(rows) == fraction_rank(rows)


@given(rectangular_matrix)
def test_rank_mod_p_matches_modular_elimination(rows):
    # Entries run from -15 to 15, so negative ones and ones >= p occur
    # for every p.
    for p in (2, 3, 5, 7):
        assert linalg.rank(rows, p) == mod_p_rank(rows, p)


@st.composite
def low_rank_products(draw):
    """An m x r times r x w integer product, up to 7 x 9.  The right
    factor's entries are -1, 0 or 1, so its columns often vanish or
    repeat, and columns without a pivot come early in the elimination."""
    m, r, w = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    left = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                         min_size=m, max_size=m))
    right = draw(st.lists(st.lists(st.integers(-1, 1), min_size=w, max_size=w),
                          min_size=r, max_size=r))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@settings(deadline=None)
@given(low_rank_products())
def test_rank_of_low_rank_products(rows):
    assert linalg.rank(rows) == fraction_rank(rows)
    for p in (2, 3, 5, 7):
        assert linalg.rank(rows, p) == mod_p_rank(rows, p)


def test_unimodular_known_values():
    assert unimodular([]) and unimodular([[1, 0], [0, 1]])
    assert unimodular([[1, 2, 3], [0, 1, 5]])  # minors 1, 5, 7
    assert not unimodular([[1, 0], [0, 2]])
    assert not unimodular([[1, 1], [1, -1]])  # det -2
    assert not unimodular([[2, 0, 0]])  # minors 2, 0, 0
    assert not unimodular([[1, 0, 0], [2, 0, 0]])  # rank 1: every minor is 0
    assert not unimodular([[1], [0]])  # more rows than columns


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
        status, det, num, den = solve_square_int(aug)
        assert det == fraction_det(rows)
        if status == UNIQUE:
            y = [Fraction(c, den) for c in num]
            for i, row in enumerate(rows):
                assert sum(Fraction(row[j]) * y[j] for j in range(n)) == b[i]

"""Moebius values, characteristic polynomials and descending flag counts.

The characteristic polynomial of a loopless matroid of full rank R is

    sum over flats F of  mu(bottom, F) * q^(R - rank(F)),

which always vanishes at q = 1.  Dividing by (q - 1) gives the reduced
polynomial; its coefficients, with signs stripped, are the invariants the
rest of the library recomputes geometrically.  A polynomial is the plain
tuple of its int coefficients, highest degree first.  The same
coefficients also count initial descending flag chains of flats.

The two routes share only the rank oracle.  The Moebius values read
``Matroid.flat_strata()`` and come from the defining recursion (one sum
per flat over the flats it contains, in a single pass by rank); the
tests check them against an independent Weisner-style recursion kept in
``tests/oracles.py``.  The flags are counted as the no-broken-circuit
sets they are in bijection with.
"""

from __future__ import annotations

from itertools import accumulate

from .masks import iter_elements
from .matroid import Matroid


class NonDivisibleError(Exception):
    """The alleged characteristic polynomial has a nonzero value at 1."""


def mobius(strata: list[list[int]]) -> dict[int, int]:
    """mu(bottom, F) for every flat of ``flat_strata()``'s strata, by the
    defining recursion: minus the sum over the flats before F (by rank)
    that no element outside F holds, read from one bitset per element."""
    flats = [f for level in strata for f in level]
    holding = [sum(1 << i for i, f in enumerate(flats) if f >> e & 1)
               for e in range(flats[-1].bit_length())]
    values = [1]
    for i, f in enumerate(flats[1:], 1):
        outside = 0
        for e in iter_elements(flats[-1] & ~f):
            outside |= holding[e]
        values.append(-sum(values[j] for j in iter_elements((1 << i) - 1 & ~outside)))
    return dict(zip(flats, values))


def char_poly(matroid: Matroid) -> tuple[int, ...]:
    """Characteristic polynomial as its degree-descending coefficients;
    the empty tuple if there are loops."""
    if matroid.loops():
        return ()
    strata, _ = matroid.flat_strata()
    mu = mobius(strata)
    return tuple(sum(mu[f] for f in level) for level in strata)


def reduced_char_poly(poly: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide a characteristic polynomial, as ``char_poly`` returns it, by (q - 1).

    Returns (reduced polynomial, coefficient vector), both degree-descending:
    entry k of the vector is (-1)^k times the coefficient of q^(r - k),
    where r is the reduced degree.  Synthetic division at 1 makes the
    quotient's coefficients the prefix sums of poly's and the remainder,
    p(1), their total.  The empty tuple of a matroid with loops is
    refused with ValueError.
    """
    if not poly:
        raise ValueError("a matroid with loops has no reduced polynomial; simplify first")
    *quotient, remainder = accumulate(poly)
    if remainder != 0:
        raise NonDivisibleError(f"characteristic polynomial has value {remainder} at 1")
    mu = tuple(c if k % 2 == 0 else -c for k, c in enumerate(quotient))
    return tuple(quotient), mu


def count_descending_flags(matroid: Matroid) -> tuple[int, ...]:
    """Entry k (0 <= k < full rank) counts the length-k chains of proper
    flats, one of each rank 1..k, whose minimum elements strictly decrease
    and never include 0; entry 0 is the empty chain.

    Reads only the rank oracle.  The least elements x1 > ... > xk of such
    a chain form an independent set whose prefixes close to its flats
    (Björner 1980), so a depth-first search counts the chains as those
    sets: it grows S, whose closure has least element m (the empty set's
    is taken to be size), by each x in 1..m-1 whose closure with S holds
    no y < x.  Every x < m lies outside cl(S), so S + x stays independent.
    """
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; flags need a loopless matroid")
    rank = matroid.rank
    vector = [0] * matroid.full_rank
    stack = [(0, 0, matroid.size)]
    while stack:
        s, k, m = stack.pop()
        vector[k] += 1
        for x in range(1, m):
            t = s | 1 << x
            if all(rank(t | 1 << y) > k + 1 for y in range(x)):
                stack.append((t, k + 1, x))
    return tuple(vector)


def is_log_concave(seq) -> bool:
    """a_k^2 >= a_(k-1) * a_(k+1) for every interior index."""
    return all(seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))

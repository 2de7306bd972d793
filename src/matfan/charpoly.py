"""Moebius values, characteristic polynomials and descending flag counts.

The characteristic polynomial of a loopless matroid of full rank R is

    sum over flats F of  mu(bottom, F) * q^(R - rank(F)),

which always vanishes at q = 1.  Dividing by (q - 1) gives the reduced
polynomial; its coefficients, with signs stripped, are the invariants the
rest of the library recomputes geometrically.  The same coefficients also
count initial descending flag chains of flats, computed here by dynamic
programming over the covering relation.

Both routes read ``Matroid.flat_strata()``.  The Moebius values come from
the defining recursion (one sum per flat over the flats it contains, in a
single pass by rank); the tests check them against an independent
Weisner-style recursion kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from .masks import iter_elements, min_element
from .matroid import Matroid


class NonDivisibleError(Exception):
    """The alleged characteristic polynomial has a nonzero value at 1."""


class IntPolynomial:
    """Dense univariate polynomial with exact int coefficients.

    Coefficients are stored degree-descending with no leading zeros; the
    zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs_desc=()):
        coeffs = list(coeffs_desc)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("coefficients must be ints")
        self.coeffs = tuple(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def divmod_linear(self, root: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (q - root); returns (quotient, remainder)."""
        if self.is_zero():
            return IntPolynomial(), 0
        quotient = []
        acc = 0
        for c in self.coeffs[:-1]:
            acc = acc * root + c
            quotient.append(acc)
        remainder = acc * root + self.coeffs[-1]
        return IntPolynomial(quotient), remainder

    def to_decimal_strings(self) -> list[str]:
        if self.is_zero():
            return ["0"]
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs})"


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


def char_poly(matroid: Matroid) -> IntPolynomial:
    """Characteristic polynomial; the zero polynomial if there are loops."""
    if matroid.loops():
        return IntPolynomial()
    strata, _ = matroid.flat_strata()
    mu = mobius(strata)
    return IntPolynomial([sum(mu[f] for f in level) for level in strata])


def reduced_char_poly(poly: IntPolynomial) -> tuple[IntPolynomial, tuple[int, ...]]:
    """Divide a characteristic polynomial, as ``char_poly`` returns it, by (q - 1).

    Returns (reduced polynomial, coefficient vector): entry k of the
    vector is (-1)^k times the coefficient of q^(r - k), where r is the
    reduced degree.  The zero polynomial of a matroid with loops is
    refused with ValueError.
    """
    if poly.is_zero():
        raise ValueError("a matroid with loops has no reduced polynomial; simplify first")
    quotient, remainder = poly.divmod_linear(1)
    if remainder != 0:
        raise NonDivisibleError(f"characteristic polynomial has value {remainder} at 1")
    mu = tuple(c if k % 2 == 0 else -c for k, c in enumerate(quotient.coeffs))
    return quotient, mu


def mu_vector_mobius(matroid: Matroid) -> tuple[int, ...]:
    return reduced_char_poly(char_poly(matroid))[1]


def count_descending_flags(matroid: Matroid) -> tuple[int, ...]:
    """Entry k (0 <= k < full rank) counts the length-k chains of proper
    flats, one of each rank 1..k, whose minimum elements strictly decrease
    and never include 0; entry 0 is the empty chain.

    One pass up the ranks: the chains ending at a rank-k flat G extend
    those ending at the flats G covers.
    """
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; flags need a loopless matroid")
    strata, covered_by = matroid.flat_strata()
    vector = [1]
    counts = {f: 1 for f in strata[1] if not f & 1}
    for level in strata[2:]:
        vector.append(sum(counts.values()))
        nxt: dict[int, int] = {}
        for g in level:
            if g & 1:
                continue
            mg = min_element(g)
            acc = 0
            for f in covered_by[g]:
                got = counts.get(f)
                if got and min_element(f) > mg:
                    acc += got
            if acc:
                nxt[g] = acc
        counts = nxt
    return tuple(vector)


def is_log_concave(seq) -> bool:
    """a_k^2 >= a_(k-1) * a_(k+1) for every interior index."""
    return all(seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))

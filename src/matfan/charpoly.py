"""Lattice of flats, Moebius values, and characteristic polynomials.

The characteristic polynomial of a loopless matroid of full rank R is

    sum over flats F of  mu(bottom, F) * q^(R - rank(F)),

which always vanishes at q = 1.  Dividing by (q - 1) gives the reduced
polynomial; its coefficients, with signs stripped, are the invariants the
rest of the library recomputes geometrically.  The same coefficients also
count initial descending flag chains of flats, computed here by dynamic
programming over the covering relation.

Two deliberately different recursions produce Moebius values: the
defining recursion (one sum per flat over the smaller flats, in a single
pass by rank) and a Weisner-style recursion that only touches covered
flats missing a fixed atom.  They must agree; only the defining one is
used, and the tests compare them.
"""

from __future__ import annotations

from .masks import min_element
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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> int:
        idx = self.degree - power
        if idx < 0 or power < 0:
            return 0
        return self.coeffs[idx]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        pad = len(a) - len(b)
        return IntPolynomial([a[i] + (b[i - pad] if i >= pad else 0) for i in range(len(a))])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

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

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = self.degree - i
            if power == 0:
                term = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{head}q" + (f"^{power}" if power > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


class FlatLattice:
    """The lattice of flats of a matroid, stratified by rank."""

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        self.strata, self.covered_by = matroid.flat_strata()
        self.rank_of = {m: r for r, level in enumerate(self.strata) for m in level}

    @property
    def bottom(self) -> int:
        return self.strata[0][0]

    @property
    def top(self) -> int:
        return self.strata[-1][0]

    @property
    def height(self) -> int:
        return len(self.strata) - 1

    def mobius(self) -> dict[int, int]:
        """mu(bottom, F) by the defining recursion: each value is minus the
        sum over the flats already visited (by rank) that F contains."""
        mu: dict[int, int] = {self.bottom: 1}
        for level in self.strata[1:]:
            for f in level:
                mu[f] = -sum(value for g, value in mu.items() if g & ~f == 0)
        return mu

    def mobius_weisner(self) -> dict[int, int]:
        """mu(bottom, F) by recursing over covered flats missing min(F).

        Independent of mobius(); only valid when the bottom flat is empty
        (no loops), which is all this library ever needs.
        """
        if self.bottom != 0:
            raise ValueError("Weisner recursion requires a loopless matroid")
        memo: dict[int, int] = {0: 1}

        def value(f: int) -> int:
            got = memo.get(f)
            if got is not None:
                return got
            a = 1 << min_element(f)
            acc = 0
            for g in self.covered_by[f]:
                if not g & a:
                    acc += value(g)
            memo[f] = -acc
            return -acc

        return {f: value(f) for level in self.strata for f in level}


def char_poly(matroid: Matroid) -> IntPolynomial:
    """Characteristic polynomial; the zero polynomial if there are loops."""
    if matroid.loops():
        return IntPolynomial()
    lattice = FlatLattice(matroid)
    mu = lattice.mobius()
    coeffs = [0] * (lattice.height + 1)
    for f, value in mu.items():
        coeffs[lattice.rank_of[f]] += value
    return IntPolynomial(coeffs)


def reduced_char_poly(matroid: Matroid) -> tuple[IntPolynomial, tuple[int, ...]]:
    """Divide the characteristic polynomial by (q - 1).

    Returns (reduced polynomial, coefficient vector): entry k of the
    vector is (-1)^k times the coefficient of q^(r - k), where r is the
    reduced degree.  Requires a loopless matroid.
    """
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; simplify before reducing")
    quotient, remainder = char_poly(matroid).divmod_linear(1)
    if remainder != 0:
        raise NonDivisibleError(
            f"characteristic polynomial of {matroid.name} has value {remainder} at 1"
        )
    mu = tuple(c if k % 2 == 0 else -c for k, c in enumerate(quotient.coeffs))
    return quotient, mu


def mu_vector_mobius(matroid: Matroid) -> tuple[int, ...]:
    return reduced_char_poly(matroid)[1]


def count_descending_flags(matroid: Matroid, k: int) -> int:
    """Number of length-k chains of proper flats, one of each rank 1..k,
    whose minimum elements strictly decrease and never include 0.

    The chain count for k = 0 is 1 (the empty chain).
    """
    r = matroid.full_rank - 1
    if not 0 <= k <= r:
        raise ValueError(f"flag length {k} outside 0..{r}")
    if matroid.loops():
        raise ValueError(f"{matroid.name} has loops; flags need a loopless matroid")
    if k == 0:
        return 1
    strata, covered_by = matroid.flat_strata()
    counts = {f: 1 for f in strata[1] if not f & 1}
    for level in range(2, k + 1):
        nxt: dict[int, int] = {}
        for g in strata[level]:
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
    return sum(counts.values())


def mu_vector_flags(matroid: Matroid) -> tuple[int, ...]:
    return tuple(count_descending_flags(matroid, k) for k in range(matroid.full_rank))


def is_log_concave(seq) -> bool:
    """a_k^2 >= a_(k-1) * a_(k+1) for every interior index."""
    return all(seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))

"""Brute-force oracles, independent of the library's computation paths.

Everything here recomputes invariants from first principles: ranks by
exhaustive search, by elimination over Fraction or with modular
inverses, and by maximizing over a basis family, flats by scanning all
subsets, Moebius values by counting chains with alternating signs
(Philip Hall) and by Weisner's recursion over the library's covering
relation, characteristic polynomials by the subset expansion over the
rank function, flag counts by filtering all chains of flats, and the
permutohedral weight's flags by ordering elements.  Tests freeze the
numbers these oracles produce and also re-run the oracles against
library output.

The generic integer linear algebra lives here too: Bareiss determinants,
the inertia of a symmetric form, the Smith form and lattice indices, and
the two generic solvers.  solve_square_int is a Bareiss square solve and
solve_in_span a span test by the normal equations.  Both run
linalg._echelon, the package's one elimination loop, which the flag-cone
code they check never runs.  The one displacement-pair classifier is
built on solve_square_int.  It tells empty pairs,
degenerate spans and boundary ties from transversal ones.  The
displacement pairing as a sweep over every pair of cones classifies
each pair with it, so it shares no solver with the located pairing it
checks; the located pairing over every transversal of each cone's
blocks checks its one candidate per cone at larger n.  Seeded rational
perturbations of the displacement vector, with a retry loop over them,
check that the degrees do not depend on the vector.  The global facet sweep lives here as well: one facet map over
every gap at once, the flag-cone span test, and the divisor cup read off
each facet's whole ray-sum.  Production uses the structure of flag
cones instead (one block per gap, spanning trees, located pairs), and
these check it.
Divisors as ray tables (PLDivisor, alpha_divisor, the Cremona pullback)
live here too: the reference for the library's divisor rules, with the
nef helpers that evaluate them.
The dual and the free extension (DualMatroid and FreeExtensionMatroid,
built by dual and free_extension) are the chain that the library's
closed-form free coextension is checked against; truncation, a rank
table capped at k + 1, is the reference for the truncated fans that
bergman_weight reads off the matroid's own flats; and incidence_vector,
the image of a subset in Z^n, is the reference for the facet ray sums.
simplification_oracle reads each parallel class off a closure, the
reference for Matroid.simplify, which reads pair ranks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import lcm

from matfan import linalg
from matfan.fan import Frozen, MinkowskiWeight, permutohedral_weight
from matfan.intersect import (
    DegenerateDisplacementError,
    NotBalancedError,
    PairingTerm,
    _flag_blocks,
    cone_displacement_intersect,
    divisor_cup,
    pairing_terms,
)
from matfan.masks import full_mask, iter_elements
from matfan.matroid import Matroid, RankTableMatroid


# -- rank oracles ------------------------------------------------------

def forest_rank_oracle(vertices, edges):
    """Graph rank by maximizing over explicit forests (no union-find)."""

    def is_forest(edge_idx):
        adj = {}
        for e in edge_idx:
            u, v = edges[e]
            adj.setdefault(u, []).append((v, e))
            adj.setdefault(v, []).append((u, e))
        seen = set()
        for start in adj:
            if start in seen:
                continue
            stack = [(start, -1)]
            seen.add(start)
            while stack:
                node, via = stack.pop()
                for nxt, e in adj[node]:
                    if e == via:
                        continue
                    if nxt in seen:
                        return False
                    seen.add(nxt)
                    stack.append((nxt, e))
        return True

    def rank(mask):
        elems = [e for e in range(len(edges)) if mask >> e & 1]
        for size in range(len(elems), -1, -1):
            for sub in combinations(elems, size):
                if is_forest(sub):
                    return size
        return 0

    return rank


def matrix_rank_oracle(columns, prime=None):
    """Column rank by scanning square submatrices for a nonzero minor."""

    def minor_det(cols, rows):
        n = len(cols)
        if n == 0:
            return 1
        total = 0
        for perm in permutations(range(n)):
            sign = _perm_sign(perm)
            prod = 1
            for i, j in enumerate(perm):
                prod *= columns[cols[i]][rows[j]]
            total += sign * prod
        return total % prime if prime is not None else total

    height = len(columns[0])

    def rank(mask):
        elems = [e for e in range(len(columns)) if mask >> e & 1]
        for size in range(min(len(elems), height), 0, -1):
            for cols in combinations(elems, size):
                for rows in combinations(range(height), size):
                    if minor_det(cols, rows) != 0:
                        return size
        return 0

    return rank


def fraction_rank(rows):
    """Matrix rank by Gaussian elimination over Fraction."""
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
    return rank


def mod_p_rank(rows, p):
    """Matrix rank over GF(p) by Gaussian elimination with modular inverses."""
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
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, n):
            if mat[i][col]:
                ri = mat[i]
                scale = ri[col] * inv % p
                for j in range(col, width):
                    ri[j] = (ri[j] - scale * prow[j]) % p
        rank += 1
    return rank


def bases_rank_oracle(size, family):
    """Rank table of a basis family: r(S) = max over bases B of |B & S|."""
    return [max((b & mask).bit_count() for b in family) for mask in range(1 << size)]


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- duality, free extension and truncation -----------------------------

class DualMatroid(Matroid):
    """rank*(S) = |S| + r(E - S) - r(E), read through the base's rank."""

    _memoize_rank = False

    def __init__(self, base):
        super().__init__(base.size, f"dual({base.name})")
        self.base = base

    def _rank_impl(self, mask):
        co = full_mask(self.size) ^ mask
        return mask.bit_count() + self.base.rank(co) - self.base.full_rank


class FreeExtensionMatroid(Matroid):
    """Adds element `base.size` in general position; the rank stays the same."""

    _memoize_rank = False

    def __init__(self, base):
        super().__init__(base.size + 1, f"ext({base.name})")
        self.base = base

    def _rank_impl(self, mask):
        b = 1 << self.base.size
        if mask & b:
            return min(self.base.rank(mask ^ b) + 1, self.base.full_rank)
        return self.base.rank(mask)


def dual(matroid):
    return DualMatroid(matroid)


def free_extension(matroid):
    return FreeExtensionMatroid(matroid)


def truncation(matroid, k):
    """The k-truncation as an explicit rank table: min(r(S), k + 1)."""
    return RankTableMatroid(matroid.size, [min(r, k + 1) for r in matroid.rank_table()],
                            name=f"tr{k}({matroid.name})")


def simplification_oracle(size, rank_fn):
    """(representatives, mapping) of the simplification, from closures.

    The class of a non-loop x is closure({x}) minus the loops; its least
    element represents it, so the representatives come in first-seen order
    and mapping[x] is the index of x's representative, or None for a loop.
    """
    def closure(s):
        r = rank_fn(s)
        return s | sum(1 << x for x in range(size)
                       if not s >> x & 1 and rank_fn(s | 1 << x) == r)

    loops = closure(0)
    reps, mapping = [], []
    for x in range(size):
        if loops >> x & 1:
            mapping.append(None)
            continue
        cls = closure(1 << x) & ~loops
        if cls & -cls == 1 << x:
            reps.append(x)
        mapping.append(reps.index((cls & -cls).bit_length() - 1))
    return reps, mapping


# -- flats, Moebius, characteristic polynomial -------------------------

def all_flats_oracle(size, rank_fn):
    """All flats by scanning every subset for closedness."""
    full = (1 << size) - 1
    flats = []
    for s in range(1 << size):
        r = rank_fn(s)
        closed = True
        for x in range(size):
            b = 1 << x
            if not s & b and rank_fn(s | b) == r:
                closed = False
                break
        if closed:
            flats.append(s)
    assert full in flats
    return flats


def rank_axioms_oracle(size, ranks):
    """None if an explicit rank table satisfies the rank axioms, else the
    failing axiom's witness.  Unit increase is tested on every (S, x) and
    submodularity on every pair of subsets, in that order."""
    if len(ranks) != 1 << size:
        return f"table has {len(ranks)} entries, expected {1 << size}"
    if ranks[0] != 0:
        return f"rank of the empty set is {ranks[0]}, expected 0"
    for s in range(1 << size):
        if ranks[s] < 0:
            return f"rank of {s:#b} is negative"
        for x in range(size):
            if not s >> x & 1 and ranks[s | 1 << x] - ranks[s] not in (0, 1):
                return f"unit increase fails at S={s:#b}, x={x}"
    for s in range(1 << size):
        for t in range(1 << size):
            if ranks[s | t] + ranks[s & t] > ranks[s] + ranks[t]:
                return f"submodularity fails at S={s:#b}, T={t:#b}"
    return None


def strata_oracle(size, rank_fn):
    flats = all_flats_oracle(size, rank_fn)
    by_rank = {}
    for f in flats:
        by_rank.setdefault(rank_fn(f), []).append(f)
    return [sorted(by_rank[r]) for r in sorted(by_rank)]


def mobius_oracle(size, rank_fn):
    """mu(bottom, F) for every flat, by signed chain counting."""
    flats = all_flats_oracle(size, rank_fn)
    bottom = min(flats, key=lambda f: (rank_fn(f), f.bit_count()))
    below = {f: [g for g in flats if g != f and g & ~f == 0] for f in flats}

    chain_counts = {}

    def count_chains(f):
        # Signed count of chains bottom = x0 < x1 < ... < xk = f.
        if f in chain_counts:
            return chain_counts[f]
        if f == bottom:
            chain_counts[f] = 1
            return 1
        total = 0
        for g in below[f]:
            if g == bottom or bottom & ~g == 0:
                total -= count_chains(g)
        chain_counts[f] = total
        return total

    return {f: count_chains(f) for f in flats if bottom & ~f == 0}


def mobius_weisner(matroid):
    """mu(bottom, F) for every flat, by recursing over the flats F covers
    that miss min(F) (Weisner's theorem with the atom of min(F)).

    Independent of the defining recursion in ``charpoly.mobius``; only
    valid for a loopless matroid, whose bottom flat is empty.
    """
    strata, covered_by = matroid.flat_strata()
    if strata[0][0] != 0:
        raise ValueError("Weisner recursion requires a loopless matroid")
    memo = {0: 1}

    def value(f):
        got = memo.get(f)
        if got is not None:
            return got
        a = f & -f
        memo[f] = -sum(value(g) for g in covered_by[f] if not g & a)
        return memo[f]

    return {f: value(f) for level in strata for f in level}


def char_poly_oracle(size, rank_fn):
    """Degree-descending coefficients of sum over subsets of
    (-1)^|S| q^(R - r(S)); valid for loopless matroids.

    Entry j is the coefficient of q^(R-j), so the list is already in
    degree-descending order."""
    full_rank = rank_fn((1 << size) - 1)
    coeffs = [0] * (full_rank + 1)
    for s in range(1 << size):
        sign = -1 if s.bit_count() % 2 else 1
        coeffs[rank_fn(s)] += sign
    return coeffs


def mu_oracle(size, rank_fn):
    """Reduced coefficient vector (mu^0, ..., mu^r) via polynomial division."""
    cp = char_poly_oracle(size, rank_fn)  # cp[j] = coeff of q^(R-j)
    # Divide sum cp[j] q^(R-j) by (q - 1) synthetically.
    quot = []
    acc = 0
    for c in cp[:-1]:
        acc = acc + c
        quot.append(acc)
    rem = acc + cp[-1]
    assert rem == 0, "characteristic polynomial not divisible by q - 1"
    return tuple(q if i % 2 == 0 else -q for i, q in enumerate(quot))


def descending_flag_count_oracle(size, rank_fn, k):
    """Count initial, descending k-flags of proper flats by filtering chains."""
    if k == 0:
        return 1
    flats = all_flats_oracle(size, rank_fn)
    full = (1 << size) - 1
    proper = [f for f in flats if f != full and f != 0]
    by_rank = {}
    for f in proper:
        by_rank.setdefault(rank_fn(f), []).append(f)
    count = 0

    def extend(chain, rank):
        nonlocal count
        if rank == k:
            count += 1
            return
        for f in by_rank.get(rank + 1, []):
            if chain and not (chain[-1] & ~f == 0 and chain[-1] != f):
                continue
            if _min_elt(f) >= (_min_elt(chain[-1]) if chain else size + 1):
                continue
            if f & 1:
                continue
            extend(chain + [f], rank + 1)

    for f in by_rank.get(1, []):
        if f & 1:
            continue
        extend([f], 1)
    return count


def _min_elt(mask):
    return (mask & -mask).bit_length() - 1


def independent_counts_oracle(size, rank_fn):
    full_rank = rank_fn((1 << size) - 1)
    counts = [0] * (full_rank + 1)
    for s in range(1 << size):
        c = s.bit_count()
        if c <= full_rank and rank_fn(s) == c:
            counts[c] += 1
    return tuple(counts)


def min_formula(point):
    """Value of min(0, x_1, ..., x_n) at an exact rational point."""
    lowest = Fraction(0)
    for x in point:
        if x < lowest:
            lowest = Fraction(x)
    return lowest


# -- lattice diagnostics and the generic displacement solve -------------

def det_int(rows):
    """Determinant of a square integer matrix via Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    if any(len(r) != n for r in mat):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        pk = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            mik = row_i[k]
            row_k = mat[k]
            for j in range(k + 1, n):
                # Bareiss: this division is exact.
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * mat[n - 1][n - 1]


# Statuses returned by solve_square_int.
UNIQUE = "unique"
SINGULAR_CONSISTENT = "singular-consistent"
SINGULAR_INCONSISTENT = "singular-inconsistent"


def solve_square_int(aug):
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
    pivots, sign = linalg._echelon(aug)
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


def solve_in_span(columns, target):
    """Express target as a rational combination of the given column vectors.

    Returns the coefficient list, or None if target is outside the span.
    The columns must be linearly independent (flag-cone generators always
    are); dependence raises ValueError.  Inside the span the coefficients
    solve the normal equations C^T C x = C^T t, whose matrix is
    nonsingular for independent columns.
    """
    k = len(columns)
    if linalg.rank(columns) < k:
        raise ValueError("span generators are linearly dependent")
    if linalg.rank([*columns, target]) > k:
        return None
    aug = [[sum(a * b for a, b in zip(ci, cj)) for cj in columns]
           + [sum(a * b for a, b in zip(ci, target))] for ci in columns]
    _, _, num, den = solve_square_int(aug)
    return [Fraction(c, den) for c in num]


def inertia(rows):
    """(positive, negative, zero) eigenvalue counts of a symmetric rational
    matrix, by exact symmetric elimination over Fraction.

    Each step is a congruence, which keeps the counts (Sylvester): a
    nonzero diagonal pivot p is split off and its row and column cleared,
    leaving the Schur complement.  With every diagonal entry zero, a
    nonzero entry a_ij first makes a pivot 2 a_ij, by adding row and
    column j to row and column i.  A zero matrix is all kernel.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    positive = negative = 0
    while a:
        size = len(a)
        i = next((i for i in range(size) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(size) for j in range(size) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for k in range(size):
                a[i][k] += a[j][k]
            for k in range(size):
                a[k][i] += a[k][j]
        p = a[i][i]
        positive += p > 0
        negative += p < 0
        rest = [k for k in range(size) if k != i]
        a = [[a[r][c] - a[r][i] * a[i][c] / p for c in rest] for r in rest]
    return positive, negative, len(rows) - positive - negative


def smith_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, in divisibility order."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    factors = []
    top = 0
    while top < m and top < n:
        # Find a nonzero pivot of least absolute value.
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        # Clear the pivot row and column by remainder steps.
        dirty = True
        while dirty:
            dirty = False
            p = mat[top][top]
            for i in range(top + 1, m):
                if mat[i][top]:
                    q = mat[i][top] // p
                    for j in range(top, n):
                        mat[i][j] -= q * mat[top][j]
                    if mat[i][top]:
                        mat[top], mat[i] = mat[i], mat[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, n):
                if mat[top][j]:
                    q = mat[top][j] // p
                    for row in mat:
                        row[j] -= q * row[top]
                    if mat[top][j]:
                        for row in mat:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
        # Enforce divisibility of the remaining block by the pivot.
        p = abs(mat[top][top])
        adjusted = False
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if mat[i][j] % p:
                    for jj in range(top, n):
                        mat[top][jj] += mat[i][jj]
                    adjusted = True
                    break
            if adjusted:
                break
        if adjusted:
            continue
        factors.append(p)
        top += 1
    return factors


def lattice_index(rows):
    """Index in Z^n of the lattice spanned by n integer row vectors.

    For the square full-rank case this is |det|; the Smith normal form
    covers anything else (0 means the rows do not span a finite-index
    sublattice).
    """
    n = len(rows[0]) if rows else 0
    if len(rows) == n:
        d = det_int(rows)
        if d:
            return abs(d)
    factors = smith_invariant_factors(rows)
    if len(factors) < n:
        return 0
    prod = 1
    for f in factors:
        prod *= f
    return prod


def permutohedral_oracle(n, k):
    """The flags of subsets of sizes 1..n-k of {0..n}, as the prefix unions
    of every ordered (n-k)-tuple of distinct elements; no lattice of flats."""
    return {tuple(accumulate(1 << x for x in p)) for p in permutations(range(n + 1), n - k)}


def incidence_vector(n, mask):
    """Image of a proper nonempty subset of {0..n} in Z^n coordinates:
    element 0 maps to (-1, ..., -1) and element j >= 1 to e_j."""
    if n < 0 or mask <= 0 or mask >= full_mask(n + 1):
        raise ValueError(f"mask {bin(mask)} is not a proper nonempty subset of a {n + 1}-set")
    if mask & 1:
        return tuple(0 if mask >> j & 1 else -1 for j in range(1, n + 1))
    return tuple(1 if mask >> j & 1 else 0 for j in range(1, n + 1))


def flag_generators(n, flag):
    """The incidence vectors spanning the flag's cone."""
    return [incidence_vector(n, mask) for mask in flag]


def unimodularity_factors(n, flag):
    """Smith invariant factors of the flag's generator matrix; all ones
    means the generators extend to a basis of the ambient lattice."""
    if not flag:
        return []
    return smith_invariant_factors(flag_generators(n, flag))


def displacement_reference(n, sigma, tau, v):
    """Classify sigma meeting (tau + v) by the generic Bareiss solve.

    Returns None for an empty intersection, "degenerate span" for a
    singular consistent system, "boundary tie" for a zero coefficient,
    and otherwise (point, index) with index |det| of the combined
    generators [gens_sigma | -gens_tau].
    """
    gens_s = flag_generators(n, sigma)
    gens_t = flag_generators(n, tau)
    combined = [[g[i] for g in gens_s] + [-g[i] for g in gens_t] for i in range(n)]
    scale = 1
    for x in v:
        scale = lcm(scale, Fraction(x).denominator)
    aug = [row + [int(v[i] * scale)] for i, row in enumerate(combined)]
    status, _, num, den = solve_square_int(aug)
    if status == SINGULAR_INCONSISTENT:
        return None
    if status == SINGULAR_CONSISTENT:
        return "degenerate span"
    if 0 in num:
        return "boundary tie"
    if any(c * den < 0 for c in num):
        return None
    coeffs = [Fraction(c, den) for c in num[:len(sigma)]]
    point = tuple(
        sum((c * g[i] for c, g in zip(coeffs, gens_s)), Fraction(0)) / scale
        for i in range(n)
    )
    return point, abs(det_int(combined))


def _ray_sign_masks(n, flag):
    """Bitmasks (over elements 1..n) of coordinates where some generator
    of the flag cone is positive, respectively negative.

    e_F is the 0/1 indicator of F when 0 is outside F, and 0/-1 on the
    complement of F when 0 is inside, so both masks come straight from
    the subset masks.
    """
    top = full_mask(n + 1)
    pos = 0
    neg = 0
    for mask in flag:
        if mask & 1:
            neg |= top ^ mask
        else:
            pos |= mask
    return pos, neg


def pairing_sweep_oracle(w1, w2, v):
    """The displacement pairing as a sweep over every (sigma, tau) pair of
    the two supports, with the sign prefilter, each pair classified by
    the Bareiss reference: a degenerate span or a boundary tie raises
    DegenerateDisplacementError.  intersect.pairing_terms locates its
    pairs instead and must agree with this, terms, order and degeneracy
    verdict alike."""
    if w1.n != w2.n:
        raise ValueError("weights live on different fans")
    n = w1.n
    if w1.codim + w2.codim != n:
        raise ValueError("codimensions must sum to the ambient dimension")
    if len(v) != n:
        raise ValueError(f"displacement vector needs {n} coordinates")
    # With a strictly positive displacement, a pair can only meet when
    # every coordinate has a positive direction available: some sigma ray
    # positive there, or some tau ray negative (its negation enters the
    # system).  Pairs failing that are empty outright, never degenerate,
    # so skipping them is exact.
    prefilter = all(c > 0 for c in v)
    needed = full_mask(n + 1) ^ 1
    left = [(sigma, _ray_sign_masks(n, sigma)[0]) for sigma in w1.weights]
    right = [(tau, _ray_sign_masks(n, tau)[1]) for tau in w2.weights]
    terms = []
    for sigma, pos in left:
        for tau, neg in right:
            if prefilter and pos | neg != needed:
                continue
            hit = displacement_reference(n, sigma, tau, v)
            if isinstance(hit, str):
                raise DegenerateDisplacementError(f"{hit} between {sigma} and {tau}")
            if hit is not None:
                terms.append(PairingTerm(sigma, tau, *hit))
    return terms


def transversal_pairing_oracle(w1, w2, v):
    """The located pairing over every transversal: for each tau of w2,
    each R that meets tau's blocks once (0 alone from 0's block, the
    later blocks whole) is tested for two equal u's, then kept when it
    hits.  That is prod |T_j| transversals per tau, against the one
    candidate and the within-block differences of
    intersect.pairing_terms, which must agree with it on every input it
    accepts: terms, order, verdict and message alike."""
    n = w1.n
    k = w1.codim
    lifted = (0, *v)
    found = []
    for tau in w2.weights:
        block_of = _flag_blocks(n, tau)
        # The sign test keeps a pair only when R minus 0 lies in tau's
        # negative rays: the blocks after the one holding 0.  So R is
        # drawn from those and 0 alone, and holds 0 whenever it is a
        # transversal.
        blocks: list[list[int]] = [[] for _ in range(k + 1)]
        for e in range(n + 1):
            if e == 0 or block_of[e] > block_of[0]:
                blocks[block_of[e]].append(e)
        for bottom in product(*blocks):
            # The tree's coefficients are v(r_(j+1)) - v(r_j) on tau, and on
            # sigma the steps between the u's in sigma's order and from the
            # last u down to R's 0.  The sign test keeps every order, so two
            # equal u's are a zero coefficient of a swept pair.
            ends = [lifted[r] for r in bottom]
            u = {x: lifted[x] - ends[block_of[x]] for x in range(n + 1) if x not in bottom}
            if len(set(u.values())) < len(u):
                raise DegenerateDisplacementError(f"boundary tie on {tau}")
            # A hit needs v increasing along R and every u positive.
            if min(u.values(), default=1) < 0 or any(a > b for a, b in zip(ends, ends[1:])):
                continue
            order = sorted(u, key=u.__getitem__, reverse=True)
            sigma = tuple(accumulate(1 << x for x in order))
            found.append(PairingTerm(sigma, tau, *cone_displacement_intersect(n, sigma, tau, v)))
    found.sort(key=lambda term: (term.sigma, term.tau))
    return found


PERTURB_DEN = 9973
MAX_RETRIES = 32


def perturbed_displacement(n, rng):
    """Strictly increasing positive vector i + t/9973 with random t."""
    return tuple(
        Fraction(i * PERTURB_DEN + rng.randrange(1, PERTURB_DEN), PERTURB_DEN)
        for i in range(1, n + 1)
    )


def certified_terms(w1, w2, rng, v):
    """Pairing terms under the first displacement vector that certifies,
    that is, under which pairing_terms returns instead of raising: v
    first, then perturbations drawn from rng.  Returns (terms, vector,
    first_vector_certified)."""
    candidate = v
    first = True
    for _ in range(MAX_RETRIES):
        try:
            return pairing_terms(w1, w2, candidate), candidate, first
        except DegenerateDisplacementError:
            candidate = perturbed_displacement(w1.n, rng)
            first = False
    raise DegenerateDisplacementError(f"no generic displacement found in {MAX_RETRIES} attempts")


# -- the global facet sweep ----------------------------------------------

def flag_facets(flag):
    """All (facet, removed subset) pairs; faces of a flag cone are subflags."""
    for i in range(len(flag)):
        yield flag[:i] + flag[i + 1:], flag[i]


def flag_span_coefficients(n, flag, target):
    """Integer coefficients of target in the span of the flag's incidence
    vectors, or None when target lies outside that span.

    Lifted to {0..n} with coordinate 0 set to 0, the span is exactly the
    vectors constant on each block F1, F2 minus F1, ..., complement of
    Fk; the coefficient of F_i is the value on block i minus the value on
    block i+1.  Flag cones are unimodular, so no division is needed.
    Checked against solve_in_span.
    """
    lifted = (0, *target)
    levels = []
    inside = 0
    for mask in (*flag, full_mask(n + 1)):
        block = mask & ~inside
        inside = mask
        low = block & -block
        level = lifted[low.bit_length() - 1]
        block ^= low
        while block:
            low = block & -block
            if lifted[low.bit_length() - 1] != level:
                return None
            block ^= low
        levels.append(level)
    return [a - b for a, b in zip(levels, levels[1:])]


def facet_ray_sums(weight):
    """Yield (tau, above, ray_sum) for every facet tau of a supported cone,
    in sorted order.

    above lists (inserted subset, weight value) for the supported cones
    containing tau; ray_sum is the weighted sum of the inserted subsets'
    incidence vectors.  One global facet map over every gap at once.
    """
    n = weight.n
    facet_map = {}
    for flag, value in weight.weights.items():
        for tau, removed in flag_facets(flag):
            facet_map.setdefault(tau, []).append((removed, value))
    for tau in sorted(facet_map):
        above = facet_map[tau]
        # Coordinate j of a subset's incidence vector is [j in S] - [0 in S],
        # so sum the values per element over {0..n} and subtract element 0's.
        lifted = [0] * (n + 1)
        for removed, value in above:
            for e in iter_elements(removed):
                lifted[e] += value
        yield tau, above, [x - lifted[0] for x in lifted[1:]]


def oracle_divisor_cup(d, weight):
    """The cup product by the global sweep: minus the weighted divisor
    values d(mask) of the inserted rays plus the divisor's tau-linear
    value on the whole ray-sum, written in tau's generators.  Raises
    NotBalancedError at the first facet, in sorted order, whose ray-sum
    leaves its span."""
    n = weight.n
    if weight.codim >= n:
        raise ValueError("weight already has top codimension")
    out = {}
    for tau, above, total in facet_ray_sums(weight):
        coeffs = flag_span_coefficients(n, tau, total)
        if coeffs is None:
            raise NotBalancedError(tau)
        inserted = sum(d(removed) * w for removed, w in above)
        value = sum(c * d(mask) for c, mask in zip(coeffs, tau)) - inserted
        if value:
            out[tau] = value
    return MinkowskiWeight(n, weight.codim + 1, out)


# -- divisors on the complete fan ----------------------------------------

class PLDivisor(Frozen):
    """Piecewise-linear divisor as a table: an integer value on every ray.

    Rays are proper nonempty subsets of the ground set; missing entries
    read as zero, so sparse dicts define total functions.  The library
    takes divisors as rules (intersect.alpha, intersect.beta); these
    tables are the reference the rules are checked against.
    """

    __slots__ = ("n", "ray_values")

    def __init__(self, n, ray_values):
        top = full_mask(n + 1)
        for mask in ray_values:
            if mask <= 0 or mask >= top:
                raise ValueError(f"ray {bin(mask)} is not a proper nonempty subset")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ray_values", ray_values)

    def value(self, mask):
        return self.ray_values.get(mask, 0)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("divisors live on different fans")
        merged = dict(self.ray_values)
        for mask, value in other.ray_values.items():
            merged[mask] = merged.get(mask, 0) + value
        return PLDivisor(self.n, {m: v for m, v in merged.items() if v})

    def __neg__(self):
        return PLDivisor(self.n, {m: -v for m, v in self.ray_values.items()})

    def __sub__(self, other):
        return self + (-other)

    def to_json(self):
        return {"rays": {str(mask): value for mask, value in sorted(self.ray_values.items())}}


def alpha_divisor(n):
    """The divisor of min(0, x_1, ..., x_n): -1 on rays through 0, else 0.

    A ray's incidence vector has a -1 coordinate exactly when the subset
    contains element 0, and the minimum formula is linear on every flag
    cone with these ray values.
    """
    return PLDivisor(n, {mask: -1 for mask in range(1, full_mask(n + 1)) if mask & 1})


def cremona_pullback_divisor(d):
    """Precompose with negation: the value on a ray is the old value on
    the complementary ray."""
    top = full_mask(d.n + 1)
    return PLDivisor(d.n, {top ^ mask: v for mask, v in d.ray_values.items() if v})


def evaluate_in_cone(d, flag, coefficients):
    """Value of the linear extension of the ray values d(mask) at
    sum coefficients[i] * ray_i."""
    if len(flag) != len(coefficients):
        raise ValueError("one coefficient per flag entry")
    return sum((Fraction(c) * d(mask) for c, mask in zip(coefficients, flag)), Fraction(0))


def nef_values(d):
    return divisor_cup(d.value, permutohedral_weight(d.n, 0))


def nef_check(d):
    """True when cupping against the fundamental weight is nonnegative
    on every one-smaller cone."""
    if d.n == 0:
        return True
    return all(v >= 0 for v in nef_values(d).weights.values())


# -- tiny fixed structures used across the test-suite ------------------

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5_EDGES = [(u, v) for u in range(5) for v in range(u + 1, 5)]

# Columns are the seven nonzero vectors of GF(2)^3, element e -> bits of e+1.
FANO_MATRIX = [[(e + 1) >> i & 1 for e in range(7)] for i in range(3)]


def uniform_rank(k):
    return lambda mask: min(mask.bit_count(), k)


def graphic_rank(vertices, edges):
    """Union-free reference: rank = |V(S)| - #components, computed by DFS."""

    def rank(mask):
        adj = {}
        for e in range(len(edges)):
            if mask >> e & 1:
                u, v = edges[e]
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        seen = set()
        comps = 0
        for start in adj:
            if start in seen:
                continue
            comps += 1
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return len(seen) - comps

    return rank

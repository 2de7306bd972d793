"""Cross-validation harness: runs every available computation of the
reduced-characteristic coefficients against each other and checks the
geometric invariants along the way.

The subject of every report is the simplification of the input matroid
(loops dropped, parallel classes collapsed, relabeling recorded).  The
coefficient sequence is unchanged by that, and the fan constructions
require looplessness anyway.

out_of_reach is the one size gate of run_check and mu_report.  The
geometric routes (divisor, displacement) build Bergman fans cone by
cone, so they need at most 9 elements (n <= 8 in fan coordinates); the
Welsh-Mason identity scans every subset, so it needs at most 21.  The
report lists each step it skips.  Without the divisor route, run_check
still builds the Bergman weight at any size and runs check_balancing
on it to fill balancing_violations; free-10 takes that path.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .charpoly import (
    char_poly,
    count_descending_flags,
    is_log_concave,
    reduced_char_poly,
)
from .fan import MinkowskiWeight, bergman_weight, check_balancing
from .intersect import (
    DegenerateDisplacementError,
    PairingTerm,
    alpha,
    beta,
    default_displacement,
    displacement_weights,
    divisor_cup,
    pairing_terms,
    perturbed_displacement,
    terms_degree,
)
from .masks import EXHAUSTIVE_SCAN_LIMIT
from .matroid import Matroid
from .schema import InputError

GEOMETRY_LIMIT = 8
MAX_RETRIES = 32
MU_METHODS = ("mobius", "flags", "displacement", "divisor")

TraceFn = Optional[Callable[[int, PairingTerm], None]]


class CheckResult(NamedTuple):
    report: dict
    ok: bool
    # set when a pipeline could not even finish (broken invariant),
    # as opposed to finishing and disagreeing
    internal_error: Optional[str] = None


def refuse_rank_zero(matroid: Matroid) -> None:
    """Refuse rank zero (only loops) as input: it has no simplification."""
    if matroid.full_rank == 0:
        raise InputError(f"{matroid.name} has rank 0: every element is a loop")


def _subject(matroid: Matroid) -> tuple[Matroid, Optional[dict]]:
    """The simplification a report is about and its relabeling note, or
    None for a simple input."""
    refuse_rank_zero(matroid)
    simple, mapping = matroid.simplify()
    if mapping == list(range(matroid.size)):
        return simple, None
    return simple, {
        "relabeling": mapping,
        "dropped_loops": [x for x, m in enumerate(mapping) if m is None],
    }


def charpoly_report(matroid: Matroid) -> dict:
    """Report document for the polynomial surface of one matroid."""
    simple, note = _subject(matroid)
    poly = char_poly(simple)
    reduced, mu = reduced_char_poly(poly)
    report = {
        "name": matroid.name,
        "char_poly": [str(c) for c in poly],
        "reduced": [str(c) for c in reduced],
        "mu": list(mu),
        "flag_counts": list(count_descending_flags(simple)),
    }
    if note:
        report["simplification"] = note
    return report


def certified_terms(
    w1: MinkowskiWeight,
    w2: MinkowskiWeight,
    rng: random.Random,
    v: tuple[Fraction, ...] | None = None,
) -> tuple[list[PairingTerm], tuple[Fraction, ...], bool]:
    """Pairing terms under the first displacement vector that certifies,
    that is, under which pairing_terms returns instead of raising.

    v (a tuple of Fractions, default (1, ..., n)) is tried first; degenerate
    vectors are then replaced by perturbations drawn from rng, so results
    are reproducible.  Returns (terms, vector, first_vector_certified).
    """
    candidate = v if v is not None else default_displacement(w1.n)
    first = True
    for _ in range(MAX_RETRIES):
        try:
            return pairing_terms(w1, w2, candidate), candidate, first
        except DegenerateDisplacementError:
            candidate = perturbed_displacement(w1.n, rng)
            first = False
    raise DegenerateDisplacementError(
        f"no generic displacement found in {MAX_RETRIES} attempts"
    )


def cup_chain(base: MinkowskiWeight) -> tuple[list[MinkowskiWeight], list[int]]:
    """The alpha-cup chain of a weight of dimension r, and its divisor degrees.

    Returns ([base, alpha.base, ..., alpha^r.base], [mu_0, ..., mu_r])
    with mu_k the degree of beta^k.alpha^(r-k).base, beta the pullback
    of alpha along negation.  Each degree finishes from the chain entry
    at r-k with k beta-cups.  Every cup tests balancing on each facet it
    visits and raises NotBalancedError on the first failure.
    """
    r = base.n - base.codim
    chain = [base]
    for _ in range(r):
        chain.append(divisor_cup(alpha, chain[-1]))
    degrees = []
    for k in range(r + 1):
        w = chain[r - k]
        for _ in range(k):
            w = divisor_cup(beta, w)
        degrees.append(w.value(()))
    return chain, degrees


def mu_vector_divisors(matroid: Matroid) -> tuple[int, ...]:
    """Coefficients by iterated divisor cups on the fan of a loopless matroid."""
    return tuple(cup_chain(bergman_weight(matroid))[1])


def displacement_levels(
    matroid: Matroid, rng: random.Random, trace: TraceFn = None
) -> tuple[list[int], list[dict]]:
    """(degrees, detail): every coefficient by the displacement pairing and
    one report row per level; trace, if given, sees each term and level."""
    degrees = []
    detail = []
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        terms, vector, used_default = certified_terms(w1, w2, rng)
        degrees.append(terms_degree(w1, w2, terms))
        detail.append(
            {
                "k": k,
                "pairs": len(terms),
                "max_index": max((t.index for t in terms), default=0),
                "default_vector": used_default,
                "vector": [str(c) for c in vector],
            }
        )
        if trace is not None:
            for term in terms:
                trace(k, term)
    return degrees, detail


def mu_vector_displacement(matroid: Matroid, seed: int = 0) -> tuple[int, ...]:
    """Coefficients by the displacement pairing, retrying with seeded
    perturbations on degeneracy."""
    return tuple(displacement_levels(matroid, random.Random(seed))[0])


def out_of_reach(simple: Matroid) -> list[str]:
    """The report steps a simple matroid is too large for, in report order."""
    blocked = []
    if simple.size - 1 > GEOMETRY_LIMIT:
        blocked += ["divisor", "displacement"]
    if simple.size > EXHAUSTIVE_SCAN_LIMIT:
        blocked.append("welsh_mason")
    return blocked


def run_check(
    matroid: Matroid,
    seed: int = 0,
    timings: bool = False,
    trace: TraceFn = None,
) -> CheckResult:
    """Full cross-validation of one matroid; see the module docstring.

    The report is JSON-ready and, for a fixed input and seed, identical
    between runs unless ``timings`` is set.
    """
    simple, note = _subject(matroid)
    r = simple.full_rank - 1
    skipped = out_of_reach(simple)

    report: dict = {
        "name": matroid.name,
        "size": matroid.size,
        "subject_size": simple.size,
        "rank": simple.full_rank,
        "seed": seed,
    }
    if note:
        report["simplification"] = note

    clock = time.perf_counter_ns
    spent: dict[str, int] = {}
    failures: list[str] = []

    try:
        t0 = clock()
        poly = char_poly(simple)
        reduced, mu_mobius = reduced_char_poly(poly)
        spent["charpoly"] = clock() - t0

        t0 = clock()
        mu_flags = count_descending_flags(simple)
        spent["flags"] = clock() - t0

        report["char_poly"] = [str(c) for c in poly]
        report["reduced"] = [str(c) for c in reduced]
        mu = {"mobius": list(mu_mobius), "flags": list(mu_flags)}

        t0 = clock()
        base_weight = bergman_weight(simple)
        # The divisor route cups every weight next (or it has top codimension),
        # and the cup tests balancing on each facet, raising NotBalancedError.
        balancing_failures = [
            {"cone": list(v.tau), "excess": list(v.excess)}
            for v in check_balancing(base_weight)
        ] if "divisor" in skipped else []
        spent["balancing"] = clock() - t0

        truncation_identity = None
        if "divisor" not in skipped:
            # j alpha-cups into the chain equal the fan of the
            # (r-j)-truncation.
            t0 = clock()
            chain, mu["divisor"] = cup_chain(base_weight)
            truncation_identity = all(
                chain[j] == bergman_weight(simple.truncate(r - j))
                for j in range(1, r + 1)
            )
            spent["divisor"] = clock() - t0

        displacement_detail = []
        if "displacement" not in skipped:
            t0 = clock()
            mu["displacement"], displacement_detail = displacement_levels(
                simple, random.Random(seed), trace
            )
            spent["displacement"] = clock() - t0

        unreduced = tuple(abs(c) for c in poly)
        log_concave = {
            "reduced": is_log_concave(mu_mobius),
            "unreduced": is_log_concave(unreduced),
        }
        f_vector = mu_coext = welsh_mason = None
        if "welsh_mason" not in skipped:
            t0 = clock()
            f_vector = list(simple.independent_set_counts())
            mu_coext = list(reduced_char_poly(char_poly(simple.free_coextension()))[1])
            welsh_mason = f_vector == mu_coext
            spent["welsh_mason"] = clock() - t0
            log_concave["f_vector"] = is_log_concave(f_vector)

        report["mu"] = mu
        if skipped:
            report["skipped"] = skipped
        report["agreement"] = len({tuple(v) for v in mu.values()}) == 1
        report["log_concave"] = all(log_concave.values())
        report["log_concave_detail"] = log_concave
        report["balancing_violations"] = balancing_failures
        report["truncation_identity"] = truncation_identity
        report["f_vector"] = f_vector
        report["mu_coextension"] = mu_coext
        report["welsh_mason"] = welsh_mason
        if displacement_detail:
            report["displacement_detail"] = displacement_detail

        if not report["agreement"]:
            failures.append("method disagreement")
        if not all(log_concave.values()):
            failures.append("log-concavity failure")
        if balancing_failures:
            failures.append("balancing violation")
        if truncation_identity is False:
            failures.append("truncation identity failure")
        if welsh_mason is False:
            failures.append("independent-set count mismatch")
    except Exception as exc:  # noqa: BLE001 -- the harness must report, not crash
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["pass"] = False
        return CheckResult(report, ok=False, internal_error=report["error"])

    if timings:
        report["timings_ns"] = spent
    report["failures"] = failures
    report["pass"] = not failures
    return CheckResult(report, ok=not failures)


# Names resolve at call time, so wrappers installed on this module see them.
_ROUTES = {
    "mobius": lambda simple, seed: reduced_char_poly(char_poly(simple))[1],
    "flags": lambda simple, seed: count_descending_flags(simple),
    "displacement": lambda simple, seed: mu_vector_displacement(simple, seed=seed),
    "divisor": lambda simple, seed: mu_vector_divisors(simple),
}


def mu_report(matroid: Matroid, method: str, seed: int = 0) -> dict:
    """Coefficient vector(s) by the requested method(s)."""
    if method != "all" and method not in MU_METHODS:
        raise ValueError(f"unknown method {method!r}; expected 'all' or one of {MU_METHODS}")
    simple, note = _subject(matroid)
    blocked = out_of_reach(simple)
    if method in blocked:
        raise InputError(f"{method} needs a ground set of at most {GEOMETRY_LIMIT + 1} "
                         f"elements after simplification; {matroid.name} has {simple.size}")
    wanted = MU_METHODS if method == "all" else (method,)
    skipped = [name for name in wanted if name in blocked]
    mu = {name: None if name in skipped else list(_ROUTES[name](simple, seed))
          for name in wanted}

    report = {"name": matroid.name, "method": method, "mu": mu}
    if skipped:
        report["skipped"] = skipped
    if note:
        report["simplification"] = note
    return report

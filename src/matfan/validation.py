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
builds the Bergman weight and runs check_balancing on it to fill
balancing_violations, unless too_many_cones finds the weight has more
cones, complete flags of proper flats, than any input within the
geometry limit: FLAG_LIMIT, 9!.  So free-10, with 10! cones, skips
balancing too.  mu_report never balances, so its gate never reads the
flat lattice.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple, Optional

from .charpoly import (
    char_poly,
    count_descending_flags,
    is_log_concave,
    reduced_char_poly,
)
from .fan import MinkowskiWeight, bergman_weight, check_balancing
from .intersect import (
    PairingTerm,
    alpha,
    beta,
    default_displacement,
    displacement_weights,
    divisor_cup,
    pairing_terms,
    terms_degree,
)
from .masks import EXHAUSTIVE_SCAN_LIMIT
from .matroid import Matroid
from .schema import InputError

GEOMETRY_LIMIT = 8
# The most cones of a Bergman weight that an input within the limit has.
FLAG_LIMIT = math.factorial(GEOMETRY_LIMIT + 1)
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
    matroid: Matroid, trace: TraceFn = None
) -> tuple[list[int], list[dict]]:
    """(degrees, detail): every coefficient by the displacement pairing
    under default_displacement, and one report row per level; trace, if
    given, sees each term and level.  A tie raises
    DegenerateDisplacementError, which the default rules out."""
    vector = default_displacement(matroid.size - 1)
    degrees = []
    detail = []
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        terms = pairing_terms(w1, w2, vector)
        degrees.append(terms_degree(w1, w2, terms))
        detail.append(
            {
                "k": k,
                "pairs": len(terms),
                "max_index": max((t.index for t in terms), default=0),
                "vector": [str(c) for c in vector],
            }
        )
        if trace is not None:
            for term in terms:
                trace(k, term)
    return degrees, detail


def mu_vector_displacement(matroid: Matroid) -> tuple[int, ...]:
    """Coefficients by the displacement pairing; every certified vector
    gives them."""
    return tuple(displacement_levels(matroid)[0])


def count_complete_flags(matroid: Matroid) -> int:
    """The number of complete flags of proper flats, which are the cones
    of the Bergman weight: the chains from the bottom flat up to each flat
    G add up over the flats G covers."""
    strata, covered_by = matroid.flat_strata()
    chains = {strata[0][0]: 1}
    for level in strata[1:]:
        for g in level:
            chains[g] = sum(chains[f] for f in covered_by[g])
    return chains[strata[-1][0]]


def too_many_cones(matroid: Matroid) -> Optional[str]:
    """Why the Bergman weight of a loopless matroid is too large to
    build, or None when it has at most FLAG_LIMIT cones.

    Rank R gives at least R! complete flags: the closures of the
    prefixes of each ordering of one basis make a different one.  So a
    rank whose factorial passes the limit is refused before the flat
    lattice is read.
    """
    least = math.factorial(matroid.full_rank)
    if least > FLAG_LIMIT:
        count = f"at least {least}"
    else:
        cones = count_complete_flags(matroid)
        if cones <= FLAG_LIMIT:
            return None
        count = str(cones)
    return (f"{matroid.name} has {count} complete flags of flats; "
            f"a Bergman weight is built with at most {FLAG_LIMIT} cones")


def out_of_reach(simple: Matroid, balancing: bool = True) -> list[str]:
    """The report steps a simple matroid is too large for, in report order;
    above the geometry limit, only deciding on balancing reads the flats."""
    blocked = []
    if simple.size - 1 > GEOMETRY_LIMIT:
        blocked += ["divisor", "displacement"]
        if balancing and too_many_cones(simple):
            blocked.append("balancing")
    if simple.size > EXHAUSTIVE_SCAN_LIMIT:
        blocked.append("welsh_mason")
    return blocked


def run_check(
    matroid: Matroid,
    seed: int = 0,  # unread; perfbench/worker.py still passes it
    timings: bool = False,
    trace: TraceFn = None,
) -> CheckResult:
    """Full cross-validation of one matroid; see the module docstring.

    The report is JSON-ready and, for a fixed input, identical between
    runs unless ``timings`` is set.
    """
    simple, note = _subject(matroid)
    r = simple.full_rank - 1

    report: dict = {
        "name": matroid.name,
        "size": matroid.size,
        "subject_size": simple.size,
        "rank": simple.full_rank,
    }
    if note:
        report["simplification"] = note

    clock = time.perf_counter_ns
    spent: dict[str, int] = {}
    failures: list[str] = []

    try:
        skipped = out_of_reach(simple)

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

        balancing_failures = None
        if "balancing" not in skipped:
            t0 = clock()
            base_weight = bergman_weight(simple)
            # The divisor route cups every weight next (or it has top
            # codimension), and the cup tests balancing on each facet,
            # raising NotBalancedError.
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
                chain[j] == bergman_weight(simple, r - j)
                for j in range(1, r + 1)
            )
            spent["divisor"] = clock() - t0

        displacement_detail = []
        if "displacement" not in skipped:
            t0 = clock()
            mu["displacement"], displacement_detail = displacement_levels(simple, trace)
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
    "mobius": lambda simple: reduced_char_poly(char_poly(simple))[1],
    "flags": lambda simple: count_descending_flags(simple),
    "displacement": lambda simple: mu_vector_displacement(simple),
    "divisor": lambda simple: mu_vector_divisors(simple),
}


def mu_report(matroid: Matroid, method: str) -> dict:
    """Coefficient vector(s) by the requested method(s)."""
    if method != "all" and method not in MU_METHODS:
        raise ValueError(f"unknown method {method!r}; expected 'all' or one of {MU_METHODS}")
    simple, note = _subject(matroid)
    blocked = out_of_reach(simple, balancing=False)
    if method in blocked:
        raise InputError(f"{method} needs a ground set of at most {GEOMETRY_LIMIT + 1} "
                         f"elements after simplification; {matroid.name} has {simple.size}")
    wanted = MU_METHODS if method == "all" else (method,)
    skipped = [name for name in wanted if name in blocked]
    mu = {name: None if name in skipped else list(_ROUTES[name](simple))
          for name in wanted}

    report = {"name": matroid.name, "method": method, "mu": mu}
    if skipped:
        report["skipped"] = skipped
    if note:
        report["simplification"] = note
    return report

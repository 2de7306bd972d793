"""Cross-validation harness: runs every available computation of the
reduced-characteristic coefficients against each other and checks the
geometric invariants along the way.

The subject of every report is the simplification of the input matroid
(loops dropped, parallel classes collapsed, relabeling recorded).  The
coefficient sequence is unchanged by that, and the fan constructions
require looplessness anyway.

out_of_reach is the one size gate of run_check, mu_report and the fan
export, and maps each step it blocks to the sentence that says why.
The geometric routes (divisor, displacement) build Bergman fans cone by
cone, so they run exactly when there are at most FLAG_LIMIT = 9! cones,
complete flags of proper flats, as many as free-9 has.  The gate reads
the flat lattice only when N atoms and rank R, which give at least
N * (R - 1)! cones, do not already pass the limit, so free-10, with 10!
cones, is refused without reading a flat.  The Welsh-Mason step scans
every subset, so it needs at most 21 elements, and counts the free
coextension's flags from its rank oracle alone.  The report maps each
step it skips to its reason.  The divisor route, cup_chain,
tests balancing on every facet of every cup and raises NotBalancedError
on the first failure, so an unbalanced fan is an internal error (exit
3) and the report has no balancing field.  mu_report consults the gate
only for a geometric route, so the others read no flat.
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
from . import fan
from .fan import bergman_weight
from .intersect import (
    PairingTerm,
    alpha,
    beta,
    default_displacement,
    displacement_weights,
    divisor_cup,
    pairing_terms,
)
from .masks import EXHAUSTIVE_SCAN_LIMIT
from .matroid import Matroid
from .schema import InputError

# The most cones of a Bergman weight that is built: free-9's.
FLAG_LIMIT = math.factorial(9)
# Not called here: perfbench/layertrace.py wraps this name.
check_balancing = fan.check_balancing
# Names resolve at call time, so wrappers installed on this module see them.
_ROUTES = {
    "mobius": lambda simple: reduced_char_poly(char_poly(simple))[1],
    "flags": lambda simple: count_descending_flags(simple),
    "displacement": lambda simple: mu_vector_displacement(simple),
    "divisor": lambda simple: cup_chain(simple)[0],
}
MU_METHODS = tuple(_ROUTES)

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
    if simple is matroid:
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


def cup_chain(matroid: Matroid) -> tuple[list[int], bool]:
    """The divisor degrees of a loopless matroid's Bergman weight B of
    dimension r, and whether its alpha-cups are the truncated fans.

    Returns ([mu_0, ..., mu_r], identity) with mu_k the degree of
    beta^k.alpha^(r-k).B, beta the pullback of alpha along negation.
    One alpha level w = alpha^j.B is alive at a time: its r-j beta-cups
    give mu_(r-j), then one alpha-cup replaces it.  identity is whether
    every alpha^j.B for j >= 1 equals the fan of the (r-j)-truncation,
    tested until the first that differs.  Every cup tests balancing on
    each facet it visits and raises NotBalancedError on the first failure.
    """
    r = matroid.full_rank - 1
    degrees = [0] * (r + 1)
    identity = True
    w = bergman_weight(matroid)
    for j in range(r + 1):
        if j:
            w = divisor_cup(alpha, w)
            identity = identity and w == bergman_weight(matroid, r - j)
        branch = w
        for _ in range(r - j):
            branch = divisor_cup(beta, branch)
        degrees[r - j] = branch.value(())
    return degrees, identity


def mu_vector_displacement(matroid: Matroid, trace: TraceFn = None) -> tuple[int, ...]:
    """Coefficients by the displacement pairing under default_displacement:
    level k sums the second weight over its terms (see intersect).  trace,
    if given, sees each term and its level.  A tie raises
    DegenerateDisplacementError, which the default rules out."""
    vector = default_displacement(matroid.size - 1)
    degrees = []
    for k in range(matroid.full_rank):
        w1, w2 = displacement_weights(matroid, k)
        terms = pairing_terms(w1, w2, vector)
        degrees.append(sum(w2.value(t.tau) for t in terms))
        if trace is not None:
            for term in terms:
                trace(k, term)
    return tuple(degrees)


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


def out_of_reach(matroid: Matroid) -> dict[str, str]:
    """Each report step a loopless matroid is too large for, in report
    order, mapped to the sentence that says why.

    N atoms and rank R give at least N * (R - 1)! complete flags: each
    atom begins the complete flags of its contraction, which has rank
    R - 1 and so at least (R - 1)!.  So a bound past the limit is
    refused before the flat lattice is read.
    """
    least = matroid.simplify()[0].size * math.factorial(matroid.full_rank - 1)
    cones = least if least > FLAG_LIMIT else count_complete_flags(matroid)
    blocked = {}
    if cones > FLAG_LIMIT:
        count = f"at least {least}" if least > FLAG_LIMIT else cones
        blocked["divisor"] = blocked["displacement"] = (
            f"{matroid.name} has {count} complete flags of flats; "
            f"a Bergman weight is built with at most {FLAG_LIMIT} cones")
    if matroid.size > EXHAUSTIVE_SCAN_LIMIT:
        blocked["welsh_mason"] = (
            f"{matroid.name} has {matroid.size} elements; the Welsh-Mason step "
            f"scans every subset, which caps it at {EXHAUSTIVE_SCAN_LIMIT} elements")
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
    spent: dict[str, int] = {}

    def timed(phase, step, *args):
        t0 = time.perf_counter_ns()
        result = step(*args)
        spent[phase] = time.perf_counter_ns() - t0
        return result

    simple, note = timed("subject", _subject, matroid)
    report: dict = {
        "name": matroid.name,
        "size": matroid.size,
        "subject_size": simple.size,
        "rank": simple.full_rank,
    }
    if note:
        report["simplification"] = note

    try:
        timed("lattice", simple.flat_strata)  # cached for out_of_reach and char_poly
        skipped = out_of_reach(simple)
        poly = timed("charpoly", char_poly, simple)
        reduced, mu_mobius = reduced_char_poly(poly)
        mu_flags = timed("flags", count_descending_flags, simple)

        report["char_poly"] = [str(c) for c in poly]
        report["reduced"] = [str(c) for c in reduced]
        mu = {"mobius": list(mu_mobius), "flags": list(mu_flags)}

        truncation_identity = None
        if "divisor" not in skipped:
            mu["divisor"], truncation_identity = timed("divisor", cup_chain, simple)

        if "displacement" not in skipped:
            mu["displacement"] = list(timed(
                "displacement", mu_vector_displacement, simple, trace))

        unreduced = tuple(abs(c) for c in poly)
        log_concave = {
            "reduced": is_log_concave(mu_mobius),
            "unreduced": is_log_concave(unreduced),
        }
        f_vector = mu_coext = welsh_mason = None
        if "welsh_mason" not in skipped:
            f_vector, mu_coext = timed("welsh_mason", lambda: (
                list(simple.independent_set_counts()),
                list(count_descending_flags(simple.free_coextension()))))
            welsh_mason = f_vector == mu_coext
            log_concave["f_vector"] = is_log_concave(f_vector)

        report["mu"] = mu
        if skipped:
            report["skipped"] = skipped
        report["agreement"] = len({tuple(v) for v in mu.values()}) == 1
        report["log_concave"] = all(log_concave.values())
        report["log_concave_detail"] = log_concave
        report["truncation_identity"] = truncation_identity
        report["f_vector"] = f_vector
        report["mu_coextension"] = mu_coext
        report["welsh_mason"] = welsh_mason

        failures = [message for message, failed in (
            ("method disagreement", not report["agreement"]),
            ("log-concavity failure", not report["log_concave"]),
            ("truncation identity failure", truncation_identity is False),
            ("independent-set count mismatch", welsh_mason is False),
        ) if failed]
    except Exception as exc:  # noqa: BLE001 -- the harness must report, not crash
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["pass"] = False
        return CheckResult(report, ok=False, internal_error=report["error"])

    if timings:
        report["timings_ns"] = spent
    report["failures"] = failures
    report["pass"] = not failures
    return CheckResult(report, ok=not failures)


def mu_report(matroid: Matroid, method: str) -> dict:
    """Coefficient vector(s) by the requested method(s)."""
    if method != "all" and method not in MU_METHODS:
        raise ValueError(f"unknown method {method!r}; expected 'all' or one of {MU_METHODS}")
    simple, note = _subject(matroid)
    wanted = MU_METHODS if method == "all" else (method,)
    # Only a geometric route consults the gate, so the others read no flat.
    blocked = out_of_reach(simple) if {"divisor", "displacement"} & set(wanted) else {}
    if method in blocked:
        raise InputError(f"{method} needs the Bergman weight: {blocked[method]}")
    skipped = {name: blocked[name] for name in wanted if name in blocked}
    mu = {name: None if name in skipped else list(_ROUTES[name](simple))
          for name in wanted}

    report = {"name": matroid.name, "method": method, "mu": mu}
    if skipped:
        report["skipped"] = skipped
    if note:
        report["simplification"] = note
    return report

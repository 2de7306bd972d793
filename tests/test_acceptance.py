"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every expected constant here was verified against the
brute-force oracles in oracles.py before being frozen.
"""

import math
import random
import time

import pytest

from matfan import corpus
from matfan.fan import MinkowskiWeight, bergman_weight, check_balancing
from matfan.intersect import (alpha, beta, default_displacement, displacement_weights,
                              divisor_cup, pairing_terms)
from matfan.validation import run_check

from oracles import (ROUTES, displacement_degree, displacement_reference, mu_oracle,
                     perturbed_displacement)

CHECK_BUDGET_SECONDS = 120.0
PERTURBATION_BUDGET_SECONDS = 300.0
PERTURBATION_ROUNDS = 5


@pytest.fixture(scope="module")
def corpus_results():
    start = time.perf_counter()
    reports = {}
    for name in corpus.CORPUS_NAMES:
        result = run_check(corpus.build(name))
        assert result.internal_error is None, (name, result.internal_error)
        reports[name] = result.report
    elapsed = time.perf_counter() - start
    return reports, elapsed


def announce(number: int, title: str, ok: bool) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {title}")
    return ok


def test_criterion_1_four_methods_agree(corpus_results):
    reports, elapsed = corpus_results
    ok = True
    for name, rep in reports.items():
        if not rep["agreement"] or "skipped" in rep:
            ok = False
        if set(rep["mu"]) != ROUTES:
            ok = False
        vectors = {tuple(v) for v in rep["mu"].values() if v is not None}
        if len(vectors) != 1:
            ok = False
    within_budget = elapsed < CHECK_BUDGET_SECONDS
    ok = ok and within_budget
    announce(1, f"all methods agree on {len(reports)} corpus entries "
                f"({elapsed:.1f}s, budget {CHECK_BUDGET_SECONDS:.0f}s)", ok)
    assert ok


def test_criterion_2_fixed_coefficient_vectors(corpus_results):
    reports, _ = corpus_results
    expected = {
        "k4": [1, 5, 6],
        "k5": [1, 9, 26, 24],
        "fano": [1, 6, 8],
        "non-fano": [1, 6, 9],
    }
    for size in range(1, 8):
        expected[f"free-{size}"] = [math.comb(size - 1, k) for k in range(size)]
    ok = True
    for name, vector in expected.items():
        if reports[name]["mu"]["mobius"] != vector:
            ok = False
    # Independent confirmation of the rational 7-point value, since it is
    # the one constant people tend to guess wrong: the brute-force Mobius
    # oracle agrees with all four methods that the vector is (1, 6, 9).
    seven = corpus.build("non-fano")
    oracle_vector = mu_oracle(seven.size, seven.rank)
    if oracle_vector != (1, 6, 9):
        ok = False
    print("note: the rational 7-point configuration has 6 three-point lines "
          "and 3 generic pairs, forcing mu = (1, 6, 9); a vector of "
          "(1, 6, 7) is arithmetically impossible for any rank-3 simple "
          "matroid on 7 points (line counts would go negative).")
    announce(2, "fixed coefficient vectors, oracle-confirmed", ok)
    assert ok


def test_criterion_3_log_concavity(corpus_results):
    reports, _ = corpus_results
    ok = all(rep["log_concave"] for rep in reports.values())
    detail_keys = {"reduced", "unreduced", "f_vector"}
    for rep in reports.values():
        if set(rep["log_concave_detail"]) != detail_keys:
            ok = False
        if not all(rep["log_concave_detail"].values()):
            ok = False
    announce(3, "reduced, unreduced, and independence vectors are "
                "log-concave on every entry", ok)
    assert ok


def test_criterion_4_truncation_identity(corpus_results):
    reports, _ = corpus_results
    ok = all(rep["truncation_identity"] is True for rep in reports.values())
    announce(4, f"alpha-cup equals the truncated fan, cone by cone, on "
                f"{len(reports)} entries", ok)
    assert ok


def geometric_weights(simple):
    """Every weight the geometric routes build for a simple matroid: its
    Bergman weight, each alpha level and beta branch of the cup chain,
    and the second weight of each displacement pairing."""
    r = simple.full_rank - 1
    w = bergman_weight(simple)
    yield w
    for j in range(r + 1):
        if j:
            w = divisor_cup(alpha, w)
            yield w
        branch = w
        for _ in range(r - j):
            branch = divisor_cup(beta, branch)
            yield branch
    for k in range(simple.full_rank):
        yield displacement_weights(simple, k)[1]


def test_criterion_5_balancing():
    tested = 0
    unbalanced = []
    for name in corpus.CORPUS_NAMES:
        for i, weight in enumerate(geometric_weights(corpus.build(name).simplify()[0])):
            tested += 1
            if check_balancing(weight):
                unbalanced.append((name, i))
    ok = not unbalanced
    announce(5, f"all {tested} Bergman, cup and displacement weights of the "
                f"corpus are balanced", ok)
    assert ok, unbalanced


def test_criterion_5_control_catches_a_doubled_cone():
    # Doubling one cone adds its subset's incidence vector to the gap it
    # fills in each of its facets, which that block's constant cannot
    # absorb: exactly that cone's facets fail.
    caught = 0
    for name in corpus.CORPUS_NAMES:
        weight = bergman_weight(corpus.build(name).simplify()[0])
        if weight.codim == weight.n:
            continue  # rank 1 simplifies to one point: no facets
        sigma = next(iter(weight.weights))
        doubled = MinkowskiWeight(weight.n, weight.codim,
                                  {**weight.weights, sigma: 2 * weight.weights[sigma]})
        assert check_balancing(doubled) == sorted(
            sigma[:i] + sigma[i + 1:] for i in range(len(sigma))), name
        caught += 1
    assert caught == len(corpus.CORPUS_NAMES) - 7  # free-1 and u(1,n), n = 2..7


def test_criterion_6_structure_constants(corpus_results):
    reports, _ = corpus_results
    ok = True
    for name, rep in reports.items():
        flags = rep["mu"]["flags"]
        simple, _ = corpus.build(name).simplify()
        n = simple.size - 1
        v = default_displacement(n)
        for k, count in enumerate(flags):
            # The production solve gives only the point; the pairs under
            # the default are re-solved by the generic Bareiss oracle: it
            # must find a unique solution with every coefficient positive,
            # the same point, and |det| of the combined generators
            # [gens_sigma | -gens_tau] equal to 1.
            w1, w2 = displacement_weights(simple, k)
            terms = pairing_terms(w1, w2, v)
            if len(terms) != count:
                ok = False
            for t in terms:
                if displacement_reference(n, t.sigma, t.tau, v) != (t.point, 1):
                    ok = False
    announce(6, "every contributing pair under the default vector is "
                "transversal with lattice index 1 by the Bareiss oracle, and "
                "pair counts match the flag counts", ok)
    assert ok


def test_criterion_7_displacement_independence(corpus_results):
    reports, _ = corpus_results
    start = time.perf_counter()
    ok = True
    for position, name in enumerate(sorted(reports)):
        rep = reports[name]
        expected = rep["mu"]["displacement"]
        simple, _ = corpus.build(name).simplify()
        n = simple.size - 1
        rng = random.Random(1000 + position)
        for k, target in enumerate(expected):
            w1, w2 = displacement_weights(simple, k)
            for _ in range(PERTURBATION_ROUNDS):
                # Certified: the sweep returns instead of raising.
                terms = pairing_terms(w1, w2, perturbed_displacement(n, rng))
                if displacement_degree(w1, w2, terms) != target:
                    ok = False
    elapsed = time.perf_counter() - start
    within_budget = elapsed < PERTURBATION_BUDGET_SECONDS
    ok = ok and within_budget
    announce(7, f"{PERTURBATION_ROUNDS} certified perturbations per level "
                f"leave every degree unchanged ({elapsed:.1f}s, budget "
                f"{PERTURBATION_BUDGET_SECONDS:.0f}s)", ok)
    assert ok

"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every expected constant here was verified against the
brute-force oracles in oracles.py before being frozen.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from matfan import corpus
from matfan.intersect import (
    DisplacementVector,
    displacement_weights,
    pairing_terms,
    perturbed_displacement,
)
from matfan.validation import GEOMETRY_LIMIT, certified_terms, run_check, terms_degree

from oracles import displacement_reference, mu_oracle

CHECK_BUDGET_SECONDS = 120.0
PERTURBATION_BUDGET_SECONDS = 300.0
PERTURBATION_ROUNDS = 5


@pytest.fixture(scope="module")
def corpus_results():
    start = time.perf_counter()
    reports = {}
    for name in corpus.CORPUS_NAMES:
        result = run_check(corpus.build(name), seed=0)
        assert result.internal_error is None, (name, result.internal_error)
        reports[name] = result.report
    elapsed = time.perf_counter() - start
    return reports, elapsed


def announce(number: int, title: str, ok: bool) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {title}")
    return ok


def geometry_entries(reports):
    return {name: rep for name, rep in reports.items()
            if rep["subject_size"] - 1 <= GEOMETRY_LIMIT}


def test_criterion_1_four_methods_agree(corpus_results):
    reports, elapsed = corpus_results
    ok = True
    for name, rep in reports.items():
        if not rep["agreement"]:
            ok = False
        expected = ({"mobius", "flags", "divisor", "displacement"}
                    if name in geometry_entries(reports) else {"mobius", "flags"})
        if set(rep["mu"]) != expected:
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
    eligible = geometry_entries(reports)
    ok = all(rep["truncation_identity"] is True for rep in eligible.values())
    ok = ok and all(rep["truncation_identity"] is None
                    for name, rep in reports.items() if name not in eligible)
    announce(4, f"alpha-cup equals the truncated fan, cone by cone, on "
                f"{len(eligible)} eligible entries", ok)
    assert ok


def test_criterion_5_balancing(corpus_results):
    reports, _ = corpus_results
    ok = all(rep["balancing_violations"] == [] for rep in reports.values())
    announce(5, "every fan and every intermediate cup weight is balanced", ok)
    assert ok


def test_criterion_6_structure_constants(corpus_results):
    reports, _ = corpus_results
    ok = True
    perturbed = []
    for name, rep in geometry_entries(reports).items():
        detail = rep["displacement_detail"]
        flags = rep["mu"]["flags"]
        if len(detail) != len(flags):
            ok = False
            continue
        simple, _ = corpus.build(name).simplify()
        n = simple.size - 1
        for row in detail:
            # Every level has at least one contributing pair, so the
            # maximal index being 1 means every index is 1.
            if row["max_index"] != 1:
                ok = False
            if row["pairs"] != flags[row["k"]]:
                ok = False
            if not row["default_vector"]:
                perturbed.append((name, row["k"]))
            # The production solve gives index 1 by construction, so the
            # pairs under the certified vector are re-solved by the
            # generic Bareiss oracle: it must find a unique solution with
            # every coefficient positive, the same point, and |det| of
            # the combined generators [gens_sigma | -gens_tau] equal to 1.
            w1, w2 = displacement_weights(simple, row["k"])
            v = DisplacementVector(tuple(Fraction(c) for c in row["vector"]))
            terms = pairing_terms(w1, w2, v)
            if len(terms) != row["pairs"]:
                ok = False
            for t in terms:
                if displacement_reference(n, t.sigma, t.tau, v.coords) != (t.point, 1):
                    ok = False
    if perturbed:
        # The default (1, ..., n) is not generic for these levels: some
        # pair's solution has an exact zero coordinate, which the
        # intersection contract treats as degenerate.  The harness then
        # certifies the first seeded perturbation, and the structure
        # constants are asserted for that vector; criterion 7 re-checks
        # the degrees under five more.
        print(f"note: default vector was degenerate and replaced by a "
              f"certified perturbation at {perturbed}")
    announce(6, "every contributing pair under the certified vector is "
                "transversal with lattice index 1 by the Bareiss oracle, and "
                "pair counts match the flag counts", ok)
    assert ok


def test_criterion_7_displacement_independence(corpus_results):
    reports, _ = corpus_results
    start = time.perf_counter()
    ok = True
    for position, name in enumerate(sorted(geometry_entries(reports))):
        rep = reports[name]
        expected = rep["mu"]["displacement"]
        simple, _ = corpus.build(name).simplify()
        n = simple.size - 1
        rng = random.Random(1000 + position)
        for k, target in enumerate(expected):
            w1, w2 = displacement_weights(simple, k)
            for round_ in range(PERTURBATION_ROUNDS):
                v = perturbed_displacement(n, rng)
                terms, used, _ = certified_terms(w1, w2, random.Random(round_), v)
                if terms_degree(w1, w2, terms) != target or not used.certified:
                    ok = False
    elapsed = time.perf_counter() - start
    within_budget = elapsed < PERTURBATION_BUDGET_SECONDS
    ok = ok and within_budget
    announce(7, f"{PERTURBATION_ROUNDS} certified perturbations per level "
                f"leave every degree unchanged ({elapsed:.1f}s, budget "
                f"{PERTURBATION_BUDGET_SECONDS:.0f}s)", ok)
    assert ok

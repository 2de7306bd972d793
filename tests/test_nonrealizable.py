"""Non-realizable matroids through the four routes.

Huh-Katz read the reduced coefficients off the Bergman fan of a
realizable matroid; none of the routes needs realizability, and
Adiprasito-Huh-Katz (arXiv:1511.02888) prove log-concavity for every
matroid.  So agreement, balancing and log-concavity on Vamos,
non-Pappus and random sparse paving matroids, up to 14 elements in
rank 4, are real checks.

Any family of r-sets that pairwise share at most r - 2 elements is the
set of circuit-hyperplanes of a sparse paving matroid (Knuth 1974): its
rank is min(|S|, r), except r - 1 on the family.  Every input here is a
rank_table document, so validate_rank_table checks that rule too.
"""

import json

import pytest
from hypothesis import given, settings

from matfan import cli
from matfan.schema import load_matroid
from matfan.validation import run_check

from oracles import ROUTES, mu_oracle
from strategies import masks, sparse_paving_document, sparse_paving_documents


PAIRS = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]
# The unions of two of the four pairs, except {4, 5, 6, 7}.
VAMOS = sparse_paving_document(8, 4, masks(*(
    PAIRS[i] | PAIRS[j] for i in range(4) for j in range(i + 1, 4) if (i, j) != (2, 3)
)))
# Points a0 a1 a2 = 0 1 2 and b0 b1 b2 = 3 4 5 on two lines; 6, 7 and 8
# are the meets a0b1.a1b0, a0b2.a2b0 and a1b2.a2b1.  The Pappus line
# {6, 7, 8} is left out.
NON_PAPPUS = sparse_paving_document(9, 3, masks(
    {0, 1, 2}, {3, 4, 5}, {0, 4, 6}, {1, 3, 6}, {0, 5, 7}, {2, 3, 7}, {1, 5, 8}, {2, 4, 8},
))


def is_log_concave(v):
    return all(v[i] ** 2 >= v[i - 1] * v[i + 1] for i in range(1, len(v) - 1))


def assert_routes_agree(report, expected):
    assert set(report["mu"]) == ROUTES
    assert all(tuple(v) == expected for v in report["mu"].values()), report["mu"]
    assert "error" not in report
    assert report["truncation_identity"] is True
    assert report["log_concave"] is True and is_log_concave(expected)
    assert report["pass"] is True


@pytest.mark.parametrize("doc, expected", [
    (VAMOS, (1, 7, 21, 30)),
    (NON_PAPPUS, (1, 8, 20)),
], ids=["vamos", "non-pappus"])
def test_non_realizable_matroids_pass_check(tmp_path, capsys, doc, expected):
    ranks = doc["ranks"]
    assert mu_oracle(doc["n"], ranks.__getitem__) == expected
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 0
    assert_routes_agree(json.loads(capsys.readouterr().out), expected)


@settings(max_examples=100, deadline=None)
@given(sparse_paving_documents())
def test_sparse_paving_matroids_pass_check(doc):
    result = run_check(load_matroid(doc))
    assert result.ok
    assert_routes_agree(result.report, tuple(result.report["mu"]["mobius"]))


@settings(max_examples=25, deadline=None)
@given(sparse_paving_documents(ranks=(4, 4), sizes=(10, 14)))
def test_sparse_paving_matroids_past_9_elements_pass_check(doc):
    # Rank 4 on N elements gives at most N(N-1)(N-2) complete flags of
    # flats, 2,184 on 14, so the flag gate sends each through all four
    # routes.  One takes about 0.2 s on 14 elements, most of it in the
    # rank-table load, the cups and the displacement pairing.
    result = run_check(load_matroid(doc))
    assert result.ok
    assert "skipped" not in result.report
    assert_routes_agree(result.report, tuple(result.report["mu"]["mobius"]))

"""Read's conjecture on every small graph.

The coefficients of a graph's chromatic polynomial are log-concave
(Read's conjecture; Huh 2012, arXiv:1008.4749, which Huh-Katz extend).
Up to isomorphism there are 1, 3, 10, 33 and 155 simple graphs with an
edge on 2 to 6 vertices, enumerated by read_graphs.graphs, which adds a
vertex to each graph on one vertex fewer in every way.  Each cycle
matroid, K6 with its 2,700 complete flags of flats included, must pass
read_graphs.check: check with all four routes and nothing skipped, and
a backtracking count of proper q-colourings equal to q^c * chi_M(q).
The script tests/read_graphs.py runs the same on 7 vertices; its main
is run here on 5 vertices, with a failing graph and with a wrong count,
and the every-route rule it shares with tests/geometries.py on reports
that fail it.
"""

from itertools import combinations

import pytest

from matfan.matroid import GraphicMatroid
from matfan.validation import run_check

import read_graphs
from oracles import every_route_failure
from read_graphs import colourings

GRAPH_COUNTS = {2: 1, 3: 3, 4: 10, 5: 33, 6: 155}

GRAPHS = {vertices: [edges for edges in read_graphs.graphs(vertices) if edges]
          for vertices in GRAPH_COUNTS}


def test_graph_counts():
    assert {v: len(classes) for v, classes in GRAPHS.items()} == GRAPH_COUNTS
    assert sum(GRAPH_COUNTS.values()) == 202
    assert list(combinations(range(6), 2)) in GRAPHS[6]  # K6
    # The counting oracle on closed forms: K_n gives q(q-1)...(q-n+1),
    # and a path on n vertices q(q-1)^(n-1).
    assert [colourings(4, list(combinations(range(4), 2)), q) for q in range(5)] == [
        0, 0, 0, 0, 24]
    assert [colourings(4, [(0, 1), (1, 2), (2, 3)], q) for q in range(4)] == [0, 0, 2, 24]


@pytest.mark.parametrize("vertices", sorted(GRAPH_COUNTS))
def test_every_small_graph_passes_check_and_colours_by_whitney(vertices):
    for edges in GRAPHS[vertices]:
        assert read_graphs.check(vertices, edges) is None, edges


def test_the_every_route_rule_refuses_a_failure_a_skip_and_a_missing_route():
    report = run_check(GraphicMatroid(4, list(combinations(range(4), 2)))).report
    assert every_route_failure(report) is None
    assert every_route_failure(dict(report, **{"pass": False, "failures": ["agreement"]})) == (
        "check fails: ['agreement']")
    skipped = {"welsh_mason": "made to skip"}
    assert every_route_failure(dict(report, skipped=skipped)) == (
        f"not every route ran: {skipped}")
    missing = dict(report, mu={k: v for k, v in report["mu"].items() if k != "divisor"})
    assert every_route_failure(missing) == "not every route ran: None"


def test_the_script_passes_5_vertices():
    assert read_graphs.main(5) == 0


def test_the_script_fails_on_a_wrong_count(monkeypatch, capsys):
    monkeypatch.setattr("read_graphs.check", lambda vertices, edges: None)
    monkeypatch.setitem(read_graphs.WITH_AN_EDGE, 5, read_graphs.WITH_AN_EDGE[5] + 1)
    assert read_graphs.main(5) == 1
    assert "expected 34 graphs" in capsys.readouterr().out


def test_the_script_fails_on_a_failing_graph(monkeypatch, capsys):
    failing = GRAPHS[5][10]
    monkeypatch.setattr("read_graphs.check",
                        lambda vertices, edges: "made to fail" if edges == failing else None)
    assert read_graphs.main(5) == 1
    assert capsys.readouterr().out == f"{failing}: made to fail\n"

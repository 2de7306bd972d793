"""The benchmark's layer tracer (perfbench/layertrace.py) wraps matfan's
functions by name; a renamed or removed binding must fail here, not only
in a traced benchmark run."""

from pathlib import Path

from matfan import corpus, validation
from matfan.fan import MinkowskiWeight

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for name in ("k4", "k5"):
            assert validation.run_check(corpus.build(name)).ok
        # run_check no longer balances on its own (its cups do), but the
        # tracer still wraps validation.check_balancing.
        k5 = corpus.build("k5")
        assert validation.check_balancing(validation.bergman_weight(k5)) == []
    finally:
        tracer.uninstall()
    assert layertrace.installed() == []
    for name in ("fan.permutohedral_weight", "intersect.pairing_terms",
                 "intersect.cone_displacement_intersect", "fan.check_balancing",
                 "intersect.divisor_cup",
                 "charpoly.char_poly", "charpoly.reduced_char_poly",
                 "charpoly.count_descending_flags"):
        assert tracer.calls[name] > 0, name
    # The tracer reads the fan records by attribute name (.weights, .codim,
    # .n), its cup hook reads divisor_cup's (d, weight) arguments, and it
    # counts a pairing_terms sweep as certified when the sweep returns
    # without raising.  So a renamed field or a changed parameter list
    # fails here.
    for name in ("fan.bergman_weight.cones", "fan.check_balancing.facets",
                 "intersect.divisor_cup.facets", "intersect.pairing_terms.certified"):
        assert tracer.counts[name] > 0, name


def test_tracer_counts_the_facets_check_balancing_returns(monkeypatch):
    # The tracer adds len() of check_balancing's result to its violations
    # counter, so the returned list of facets is what the benchmark counts.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        lone = MinkowskiWeight(2, 0, {(0b010, 0b110): 1})
        assert len(validation.check_balancing(lone)) == 2
    finally:
        tracer.uninstall()
    assert tracer.counts["fan.check_balancing.violations"] == 2

"""Golden files: every pinned output of the CLI, made, compared and
regenerated from one table.

CASES maps each pinned report under tests/golden/ to the ``matfan``
command that writes it: ``corpus --json``, and commands on the five
documents under ``inputs/`` and the 35 under ``seed1/inputs/`` (the
benchmark's seed-1 ``near-limit`` and ``lattice`` documents, frozen so
that a change to perfbench/workloads.py does not move them, plus u(4,9)
and u(5,9)).  The CLI runs in process.  ``check`` runs with ``--trace``,
and a trace that is not empty is pinned beside its report as
``.ndjson``.  After a change that alters these outputs on purpose,
rewrite every pinned file, and delete stale ones, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matfan import cli, fan
from matfan.intersect import default_displacement

from oracles import displacement_reference

GOLDEN = Path(__file__).parent / "golden"
SEED1 = GOLDEN / "seed1"
SEED1_NAMES = sorted(path.stem for path in (SEED1 / "inputs").glob("*.json"))
COMMANDS = {"check": ["check"], "mu_all": ["mu", "--method", "all"],
            "charpoly": ["charpoly"], "fan": ["fan"]}
# The near-limit documents and u(4,9); u(5,9)'s fan would take 316 KB.
FANNED = {"u3-8", "u4-8", "u3-9", "u4-9", "gf3-r3", "q-r3",
          *(f"{kind}-r4-{i}" for kind in ("graphic", "gf2", "gf3", "q") for i in (1, 2))}


def document(directory: Path, name: str, *commands: str) -> dict[Path, list[str]]:
    doc = str(directory / "inputs" / f"{name}.json")
    return {directory / f"{name}_{command}.json": [*COMMANDS[command], doc]
            for command in commands}


CASES = {
    GOLDEN / "corpus.json": ["corpus", "--json"],
    # Level 2 of k4 is where (1, ..., n) ties; the default does not.
    **document(GOLDEN, "k4", "check", "mu_all", "charpoly"),
    # 10 elements and 180 cones: every route runs past 9 elements.
    **document(GOLDEN, "k5", "check", "mu_all"),
    # 13 of the 15 points of PG(3,2), fewest ones first: the Welsh-Mason
    # step scans its 2^13 subsets and counts its free coextension's flags.
    **document(GOLDEN, "gf2_r4_13", "check"),
    # Element 0 is a loop, so the report names the simplification.
    **document(GOLDEN, "loopy_table", "charpoly"),
    **document(GOLDEN, "u2_3", "fan"),
}
for name in SEED1_NAMES:
    CASES.update(document(SEED1, name, "check", "mu_all", *["fan"] * (name in FANNED)))


def make(report: Path, argv: list[str]) -> dict[Path, bytes]:
    """Run one command in process: its stdout is `report`, and a check's
    trace sits beside it, as empty bytes when there is none."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        trace = Path(scratch) / "trace.ndjson"
        if argv[0] == "check":
            argv = [*argv, "--trace", str(trace)]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        files = {report: out.getvalue().encode()}
        if argv[0] == "check":
            files[report.with_suffix(".ndjson")] = trace.read_bytes()
    assert code == 0, (argv, code)
    return files


def pinned() -> set[Path]:
    """Every file under tests/golden/ but the input documents."""
    return {file for file in GOLDEN.rglob("*")
            if file.is_file() and "inputs" not in file.relative_to(GOLDEN).parts}


def differing(report: Path, argv: list[str]) -> list[str]:
    """The outputs of one case whose bytes differ from the pinned files."""
    return [str(file.relative_to(GOLDEN)) for file, content in make(report, argv).items()
            if content != (file.read_bytes() if file.exists() else b"")]


def test_every_pinned_file_has_one_case():
    assert len(SEED1_NAMES) == 35 and FANNED <= set(SEED1_NAMES)
    traces = {report.with_suffix(".ndjson") for report, argv in CASES.items()
              if argv[0] == "check"}
    assert pinned() - traces == set(CASES)


@pytest.mark.parametrize("report", CASES, ids=lambda report: str(report.relative_to(GOLDEN)))
def test_reports_match_golden_files(report):
    assert differing(report, CASES[report]) == []


def test_pinned_traces_hold_one_row_per_displacement_term():
    # A check report's mu.displacement[k] is its number of pairing terms
    # at level k, each of weight 1 and lattice index 1.  The Bareiss
    # reference re-solves each row's pair under the default vector: the
    # same point, and |det| 1.
    traced = sorted(file for file in pinned() if file.suffix == ".ndjson")
    assert len(traced) == 38
    for trace in traced:
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        mu = json.loads(trace.with_suffix(".json").read_text())["mu"]["displacement"]
        assert [row["k"] for row in rows] == [k for k, count in enumerate(mu)
                                              for _ in range(count)], trace.name
        for row in rows:
            assert list(row) == ["k", "sigma", "tau", "point"], trace.name
            n = len(row["point"])
            point, index = displacement_reference(
                n, tuple(row["sigma"]), tuple(row["tau"]), default_displacement(n))
            assert ([str(c) for c in point], index) == (row["point"], 1), (trace.name, row)


def test_mu_and_check_reports_give_each_route_the_same_vector():
    # mu and check run the same entry point per route: a computed vector
    # is check's, and a route mu skips is skipped by check too.
    paired = sorted(file for file in pinned() if file.name.endswith("_mu_all.json"))
    assert len(paired) == 37
    for mu_all in paired:
        mu = json.loads(mu_all.read_text())["mu"]
        check = json.loads(mu_all.with_name(mu_all.name.replace("_mu_all", "_check")).read_text())
        computed = {route: vector for route, vector in mu.items() if vector is not None}
        assert {route: check["mu"][route] for route in computed} == computed, mu_all.name
        skipped = set(mu) - set(computed)
        assert skipped.isdisjoint(check["mu"]), mu_all.name
        assert skipped <= set(check.get("skipped", ())), mu_all.name


def test_no_report_depends_on_a_weights_iteration_order(monkeypatch):
    # Every dict-backed weight keeps its flags in reverse order.
    init = fan.MinkowskiWeight.__init__

    def reversed_init(self, n, codim, weights):
        init(self, n, codim, weights)
        if isinstance(self.weights, dict):
            object.__setattr__(self, "weights", dict(reversed(self.weights.items())))

    monkeypatch.setattr(fan.MinkowskiWeight, "__init__", reversed_init)
    assert list(fan.MinkowskiWeight(2, 1, {(1,): 1, (2,): 1}).weights) == [(2,), (1,)]
    assert [file for report, argv in CASES.items() for file in differing(report, argv)] == []


if __name__ == "__main__":
    for file in pinned():
        file.unlink()
    for report, argv in CASES.items():
        for file, content in make(report, argv).items():
            if content:
                file.write_bytes(content)

"""JSON schemas and the command-line surface."""

import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matfan import cli, corpus, schema, validation
from matfan.fan import MinkowskiWeight, bergman_weight
from matfan.intersect import PairingTerm
from matfan.matroid import (
    FreeCoextensionMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    UniformMatroid,
)
from matfan.schema import InputError, dump_json, load_matroid, load_matroid_file
from matfan.validation import CheckResult

from oracles import ROUTES, rank_table

K4_DOC = {
    "type": "graphic",
    "vertices": 4,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    "name": "k4",
}
K5_DOC = {
    "type": "graphic",
    "vertices": 5,
    "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)],
    "name": "k5",
}


# -- input documents -----------------------------------------------------------


def test_load_each_type():
    assert load_matroid({"type": "uniform", "rank": 2, "size": 4}).full_rank == 2
    assert load_matroid({"type": "free", "size": 3}).full_rank == 3
    k4 = load_matroid(K4_DOC)
    assert (k4.size, k4.full_rank, k4.name) == (6, 3, "k4")
    lin = load_matroid({"type": "linear", "field": "GF(2)",
                        "matrix": [[1, 0, 1], [0, 1, 1]]})
    assert lin.full_rank == 2
    bases = load_matroid({"type": "bases", "n": 3, "bases": [3, 5, 6]})
    assert rank_table(bases) == rank_table(UniformMatroid(2, 3))
    table = load_matroid({"type": "rank_table", "n": 2, "ranks": [0, 1, 1, 2]})
    assert table.full_rank == 2


def test_load_rational_matrix_with_fraction_strings():
    m = load_matroid({"type": "linear", "field": "Q",
                      "matrix": [["1/2", 1], [0, "2/3"]]})
    assert m.full_rank == 2
    m = load_matroid({"type": "linear", "field": "Q",
                      "matrix": [["1/2", "-2/3"], ["1", "-4/3"]]})
    assert m.full_rank == 1


@pytest.mark.parametrize("entry", ["1e999999999", "0.5", " 3"])
def test_rational_entries_outside_a_over_b_exit_2_quickly(tmp_path, capsys, entry):
    path = write_doc(tmp_path, "q.json", {"type": "linear", "field": "Q",
                                          "matrix": [[entry, 1], [0, 1]]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "bad rational entry" in err


def test_load_rejects_malformed_documents():
    with pytest.raises(InputError):
        load_matroid([])
    with pytest.raises(InputError):
        load_matroid({"type": "nonsense"})
    with pytest.raises(InputError):
        load_matroid({"type": "uniform", "rank": 2})  # missing size
    with pytest.raises(InputError):
        load_matroid({"type": "uniform", "rank": True, "size": 3})
    with pytest.raises(InputError):
        load_matroid({"type": "uniform", "rank": 5, "size": 3})
    with pytest.raises(InputError):
        load_matroid({"type": "graphic", "vertices": 2, "edges": [[0]]})
    with pytest.raises(InputError):
        load_matroid({"type": "linear", "field": "GF(4)", "matrix": [[1]]})
    with pytest.raises(InputError):
        load_matroid({"type": "linear", "field": "R", "matrix": [[1]]})
    # The whole label must match, in ASCII digits: no trailing newline,
    # no Arabic-Indic three.
    for label in ("GF(2)\n", "GF(\u0663)"):
        with pytest.raises(InputError, match="unknown field"):
            load_matroid({"type": "linear", "field": label, "matrix": [[1]]})
    with pytest.raises(InputError):
        load_matroid({"type": "linear", "field": "GF(2)", "matrix": [["1/2"]]})
    for doc, message in [
        ({"type": "graphic", "vertices": 2, "edges": 5}, "'edges' must be list"),
        ({"type": "bases", "n": 2, "bases": [1, "2"]}, "'bases' must contain only integers"),
        ({"type": "linear", "field": "Q", "matrix": [[True, 1]]}, "must be numbers"),
        # Past the pattern, Fraction itself refuses the zero denominator.
        ({"type": "linear", "field": "Q", "matrix": [["1/0"]]}, r"'1/0': Fraction\(1, 0\)"),
        ({"type": "free", "size": 2, "name": 7}, "'name' must be a string"),
        ({"type": "free", "size": 2, "name": "ab\udfff"}, "'name' must be valid Unicode text"),
        ({"type": "linear", "field": "Q", "matrix": [1, 2]}, "list of rows"),
    ]:
        with pytest.raises(InputError, match=message):
            load_matroid(doc)


def test_load_rejects_bad_rank_table_with_witness():
    doc = {"type": "rank_table", "n": 3, "ranks": [0, 1, 1, 2, 1, 2, 2, 1]}
    with pytest.raises(InputError) as exc:
        load_matroid(doc)
    assert "unit increase" in str(exc.value)


def test_a_rank_table_is_checked_in_place_and_copied_once():
    doc = {"type": "rank_table", "n": 2, "ranks": [0, 1, 1, 2]}
    assert schema._int_list(doc, "ranks") is doc["ranks"]
    table = load_matroid(doc)
    doc["ranks"][3] = 1
    assert table.ranks == [0, 1, 1, 2]


def test_k6_checks_alike_as_a_graph_and_as_a_rank_table():
    # 15 elements and 2,700 complete flags of flats, so a rank table with
    # no memo goes through every route and the Welsh-Mason coextension.
    # The vertex-edge incidence matrix over GF(2) is the same matroid again.
    k6_doc = {"type": "graphic", "vertices": 6,
              "edges": [[u, v] for u in range(6) for v in range(u + 1, 6)]}
    graph = load_matroid(k6_doc)
    table = load_matroid({"type": "rank_table", "n": graph.size,
                          "ranks": rank_table(graph)})
    incidence = load_matroid({"type": "linear", "field": "GF(2)", "matrix": [
        [int(w in edge) for edge in k6_doc["edges"]] for w in range(6)]})
    reports = [validation.run_check(m).report for m in (graph, table, incidence)]
    for report in reports:
        assert report.pop("name")
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["welsh_mason"] is True
    assert reports[0]["pass"] is True


def test_load_matroid_file_errors(tmp_path):
    with pytest.raises(InputError):
        load_matroid_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_matroid_file(str(bad))


# -- output documents -----------------------------------------------------------


def test_dump_json_shape():
    text = dump_json({"a": 1})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1}


# -- commands -------------------------------------------------------------------


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHILD_ADDRESS_SPACE = 1_500_000_000
CHILD_SECONDS = 10


# The child imports the package under test, whether or not it is installed,
# and buffers stdout as an interpreter does by default.
CHILD_PYTHONPATH = os.pathsep.join(
    p for p in (str(Path(cli.__file__).resolve().parent.parent),
                os.environ.get("PYTHONPATH")) if p)
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_child(*argv, stdout=subprocess.PIPE, env=()):
    """Run `python -m matfan argv` in a child whose address space alone is
    capped at CHILD_ADDRESS_SPACE bytes, within CHILD_SECONDS of wall time,
    with env's variables added to its environment.  stdout=None closes
    the child's fd 1 before it starts, so that its sys.stdout is None.
    Every outcome is an exit code, never a traceback."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
        if stdout is None:
            os.close(1)

    proc = subprocess.run([sys.executable, "-m", "matfan", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_SECONDS,
                          preexec_fn=cap,
                          env=dict(CHILD_ENV, PYTHONPATH=CHILD_PYTHONPATH, **dict(env)))
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def test_charpoly_command(tmp_path, capsys):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    code, out, _ = run_cli(capsys, "charpoly", path)
    assert code == 0
    report = json.loads(out)
    assert report["char_poly"] == ["1", "-6", "11", "-6"]
    assert report["mu"] == [1, 5, 6]
    assert "simplification" not in report


def test_charpoly_reports_dropped_loops(tmp_path, capsys):
    path = write_doc(tmp_path, "loopy.json",
                     {"type": "rank_table", "n": 2, "ranks": [0, 0, 1, 1]})
    code, out, _ = run_cli(capsys, "charpoly", path)
    assert code == 0
    report = json.loads(out)
    assert report["simplification"]["dropped_loops"] == [0]
    assert report["simplification"]["relabeling"] == [None, 0]
    assert report["mu"] == [1]


def test_mu_command_all_methods(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})
    code, out, _ = run_cli(capsys, "mu", path, "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["mu"] == {"mobius": [1, 2], "flags": [1, 2],
                            "displacement": [1, 2], "divisor": [1, 2]}


def test_mu_command_single_method(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})
    code, out, _ = run_cli(capsys, "mu", path, "--method", "flags")
    assert code == 0
    assert json.loads(out)["mu"] == {"flags": [1, 2]}


def test_mu_report_refuses_an_unknown_method():
    # free-10 has 10! complete flags: a misspelled geometric method must
    # not slip past the flag gate.
    with pytest.raises(ValueError, match="unknown method"):
        validation.mu_report(FreeMatroid(10), "mobuis")


def test_mu_geometric_methods_respect_size_limit(tmp_path, capsys):
    # free-10 has 10! complete flags of flats, ten times free-9's.
    path = write_doc(tmp_path, "big.json", {"type": "free", "size": 10})
    code, _, err = run_cli(capsys, "mu", path, "--method", "displacement")
    assert code == 2
    assert "at least 3628800 complete flags" in err
    assert "at most 362880 cones" in err
    code, out, _ = run_cli(capsys, "mu", path, "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["mu"]["displacement"] is None
    reason = ("free(10) has at least 3628800 complete flags of flats; "
              "a Bergman weight is built with at most 362880 cones")
    assert report["skipped"] == {"displacement": reason, "divisor": reason}
    assert list(report["skipped"]) == ["displacement", "divisor"]
    assert report["mu"]["mobius"] == [math.comb(9, k) for k in range(10)]


@pytest.mark.parametrize("method", ["divisor", "displacement"])
def test_mu_refuses_a_geometric_method_by_size_alone(monkeypatch, tmp_path, method):
    # 10 atoms of rank 10 give at least 10 * 9! complete flags, known
    # without the lattice, so the refusal reads no flat.
    path = write_doc(tmp_path, "free10.json", {"type": "free", "size": 10})
    proc = run_child("mu", path, "--method", method)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"{method} needs the Bergman weight: free(10) has at least 3628800" in proc.stderr

    def refuse(self):
        raise AssertionError("the flat lattice was read")

    monkeypatch.setattr(Matroid, "flat_strata", refuse)
    with pytest.raises(InputError, match="at least 3628800 complete flags"):
        validation.mu_report(FreeMatroid(10), method)


def test_fan_command(tmp_path, capsys):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    code, out, _ = run_cli(capsys, "fan", path)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["codim"]) == (5, 3)
    assert len(doc["cones"]) == 18
    assert all(c["weight"] == 1 for c in doc["cones"])


def test_fan_command_writes_file(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})
    out_path = tmp_path / "fan.json"
    code, out, _ = run_cli(capsys, "fan", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["codim"] == 1


def test_fan_refuses_more_cones_than_the_flag_limit(tmp_path):
    # free-10 has 10! complete flags of flats, ten times the limit; the
    # export would not fit in the child's memory.
    path = write_doc(tmp_path, "free10.json", {"type": "free", "size": 10})
    out_path = tmp_path / "fan.json"
    out_path.write_text("old")
    proc = run_child("fan", path, "--out", str(out_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "3628800 complete flags" in proc.stderr
    assert out_path.read_text() == "old"
    # free-9 sits at the limit and still exports.
    assert validation.count_complete_flags(FreeMatroid(9)) == validation.FLAG_LIMIT


@pytest.mark.parametrize("doc, least", [
    ({"type": "free", "size": 20}, math.factorial(20)),
    # About 11.5 million flats, which the refusal never reads.
    ({"type": "uniform", "rank": 9, "size": 31}, 31 * math.factorial(8)),
], ids=["free-20", "u-9-31"])
def test_fan_refuses_a_high_rank_before_reading_the_flats(monkeypatch, tmp_path, capsys,
                                                         doc, least):
    # N atoms of rank R give at least N * (R - 1)! complete flags, known
    # without the lattice.
    def refuse(self):
        raise AssertionError("the flat lattice was read")

    monkeypatch.setattr(Matroid, "flat_strata", refuse)
    code, out, err = run_cli(capsys, "fan", write_doc(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert f"at least {least} complete flags" in err


def test_the_flag_bound_counts_atoms_not_elements():
    # free-9 plus a column parallel to the first: 10 elements but 9 atoms,
    # so the bound is 9 * 8! and the lattice's 9! flags are within the limit.
    rows = [[int(i == j) for j in range(9)] + [int(i == 0)] for i in range(9)]
    matroid = load_matroid({"type": "linear", "field": "GF(2)", "matrix": rows})
    assert (matroid.size, matroid.full_rank) == (10, 9)
    assert "divisor" not in validation.out_of_reach(matroid)


def test_fan_command_rejects_loops(tmp_path, capsys):
    path = write_doc(tmp_path, "loopy.json",
                     {"type": "rank_table", "n": 2, "ranks": [0, 0, 1, 1],
                      "name": "loopy"})
    code, _, err = run_cli(capsys, "fan", path)
    assert code == 2
    assert "loops" in err


def test_check_command_passes_and_traces(tmp_path, capsys):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    trace_path = tmp_path / "trace.ndjson"
    code, out, _ = run_cli(capsys, "check", path, "--trace", str(trace_path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["agreement"] is True
    assert report["mu"]["displacement"] == [1, 5, 6]
    assert report["truncation_identity"] is True
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(rows) == 12  # 1 + 5 + 6 contributing pairs
    assert all(set(row) == {"k", "sigma", "tau", "point"} for row in rows)
    assert sorted({row["k"] for row in rows}) == [0, 1, 2]


@pytest.mark.parametrize("doc", [
    {"type": "uniform", "rank": 0, "size": 3},
    {"type": "rank_table", "n": 3, "ranks": [0, 1, 1, 2, 1, 2, 2, 1]},
], ids=["rank-zero", "not-a-matroid"])
def test_refused_input_leaves_the_trace_file_as_it_was(tmp_path, capsys, doc):
    path = write_doc(tmp_path, "doc.json", doc)
    trace_path = tmp_path / "trace.ndjson"
    trace_path.write_text("an earlier trace\n")
    code, out, _ = run_cli(capsys, "check", path, "--trace", str(trace_path))
    assert (code, out) == (2, "")
    assert trace_path.read_text() == "an earlier trace\n"


def test_check_trace_to_stdout_is_the_trace_file_then_the_report(tmp_path, capsys):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    trace_path = tmp_path / "trace.ndjson"
    code, report, _ = run_cli(capsys, "check", path, "--trace", str(trace_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", path, "--trace", "-")
    assert code == 0
    assert out == trace_path.read_text() + report


def test_check_command_is_byte_stable(tmp_path, capsys):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    trace_path = tmp_path / "trace.ndjson"
    outputs = []
    traces = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check", path, "--trace", str(trace_path))
        assert code == 0
        outputs.append(out)
        traces.append(trace_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert traces[0] == traces[1]


def test_check_closes_the_trace_file_on_every_exit(tmp_path, monkeypatch):
    # run_check writes one row through the trace and then raises: the
    # error propagates, and the row is in the file because it was closed.
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    trace_path = tmp_path / "trace.ndjson"
    traces = []

    def write_one_row_then_raise(matroid, timings=False, trace=None):
        traces.append(trace)
        if trace is not None:
            trace(1, PairingTerm((0b01,), (0b10,), (Fraction(1, 2),)))
        raise RuntimeError("mid-pipeline")

    monkeypatch.setattr(cli, "run_check", write_one_row_then_raise)
    with pytest.raises(RuntimeError, match="mid-pipeline"):
        cli.main(["check", path, "--trace", str(trace_path)])
    assert trace_path.read_text() == (
        '{"k": 1, "sigma": [1], "tau": [2], "point": ["1/2"]}\n')
    with pytest.raises(RuntimeError, match="mid-pipeline"):
        cli.main(["check", path])
    assert traces[1] is None


@pytest.mark.parametrize("doc", [
    {"type": "uniform", "rank": 2, "size": 3},
    {"type": "free", "size": 3},
    {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
    {"type": "linear", "field": "GF(2)", "matrix": [[1, 0, 1], [0, 1, 1]]},
    {"type": "bases", "n": 3, "bases": [0b011, 0b101, 0b110]},
    {"type": "rank_table", "n": 2, "ranks": [0, 1, 1, 2]},
], ids=lambda doc: doc["type"])
def test_an_empty_name_is_kept(tmp_path, capsys, doc):
    doc = dict(doc, name="")
    assert load_matroid(doc).name == ""
    code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, "doc.json", doc))
    assert code == 0
    assert json.loads(out)["name"] == ""


def test_check_command_timings_flag(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})
    code, out, _ = run_cli(capsys, "check", path, "--timings")
    assert code == 0
    report = json.loads(out)
    assert set(report["timings_ns"]) >= {"charpoly", "flags", "divisor"}
    assert all(isinstance(v, int) for v in report["timings_ns"].values())


def test_check_command_runs_every_route_on_k5(tmp_path, capsys):
    # K5 has 10 elements but only 5!4!/2^4 = 180 complete flags of flats
    # (chains of set partitions of its vertices), so every route runs.
    path = write_doc(tmp_path, "k5.json", {
        "type": "graphic", "vertices": 5,
        "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)],
    })
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    report = json.loads(out)
    assert "skipped" not in report
    assert report["mu"] == {route: [1, 9, 26, 24] for route in ROUTES}
    assert report["truncation_identity"] is True
    assert "balancing_violations" not in report
    assert report["pass"] is True


def test_one_gate_decides_for_check_and_mu(monkeypatch):
    # k4 has 18 complete flags of flats; a flag limit of 17 refuses its
    # Bergman weight, and the refusal must reach both reports.
    monkeypatch.setattr(validation, "FLAG_LIMIT", 17)
    reason = "k4 has 18 complete flags of flats; a Bergman weight is built with at most 17 cones"
    k4 = load_matroid(K4_DOC)
    report = validation.run_check(k4).report
    assert report["skipped"] == {"divisor": reason, "displacement": reason}
    assert list(report["skipped"]) == ["divisor", "displacement"]
    assert list(report["mu"]) == ["mobius", "flags"]
    assert report["truncation_identity"] is None
    assert "balancing_violations" not in report
    assert report["welsh_mason"] is True
    mu = validation.mu_report(k4, "all")
    assert mu["skipped"] == {"displacement": reason, "divisor": reason}
    assert list(mu["skipped"]) == ["displacement", "divisor"]
    assert mu["mu"] == {"mobius": [1, 5, 6], "flags": [1, 5, 6],
                        "displacement": None, "divisor": None}
    with pytest.raises(InputError) as exc:
        validation.mu_report(k4, "divisor")
    assert str(exc.value) == f"divisor needs the Bergman weight: {reason}"


@pytest.mark.parametrize("rank, size, blocked", [
    (3, 9, []),
    (3, 10, []),
    (2, 21, []),
    (2, 22, ["welsh_mason"]),
    (7, 10, []),
    (8, 10, ["divisor", "displacement"]),
])
def test_gate_boundaries(rank, size, blocked):
    # The geometric steps need at most 9! = 362,880 complete flags of
    # proper flats, as many as free-9 has; u(r,n) has n!/(n-r+1)!.  So
    # u(7,10), with 10!/4! = 151,200, runs them and u(8,10), with 10!/3!,
    # does not.  Welsh-Mason needs at most 21 elements.
    assert list(validation.out_of_reach(UniformMatroid(rank, size))) == blocked


def test_a_refused_geometric_method_counts_the_flags_once(monkeypatch):
    # u(8,10)'s atom bound, 10 * 7!, is within the limit, so the gate
    # counts its 10!/3! flags, and the refusal reuses that one count.
    calls = []
    original = validation.count_complete_flags

    def count(matroid):
        calls.append(matroid.name)
        return original(matroid)

    monkeypatch.setattr(validation, "count_complete_flags", count)
    with pytest.raises(InputError, match="604800 complete flags"):
        validation.mu_report(UniformMatroid(8, 10), "divisor")
    assert calls == ["uniform(8,10)"]


# u(8,10), and u(8,10) with element 0 doubled as element 10.
U8_10_DOUBLED = [basis for basis in range(1 << 11)
                 if basis.bit_count() == 8 and (basis >> 10 & 1) + (basis & 1) < 2]


@pytest.mark.parametrize("doc, simple", [
    ({"type": "uniform", "rank": 8, "size": 10}, "uniform(8,10)"),
    ({"type": "bases", "n": 11, "bases": U8_10_DOUBLED, "name": "m"}, "si(m)"),
], ids=["u8-10", "u8-10-doubled"])
def test_fan_mu_and_check_give_one_reason(tmp_path, capsys, doc, simple):
    # fan gates its input, and mu and check the simplification, which is
    # named si(...) when the input has parallel elements.
    path = write_doc(tmp_path, "doc.json", doc)
    counts = ("has 604800 complete flags of flats; "
              "a Bergman weight is built with at most 362880 cones")
    name = doc.get("name", simple)
    assert run_cli(capsys, "fan", path) == (2, "", f"error: {name} {counts}\n")
    reason = f"{simple} {counts}"
    assert run_cli(capsys, "mu", path, "--method", "divisor") == (
        2, "", f"error: divisor needs the Bergman weight: {reason}\n")
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert json.loads(out)["skipped"] == {"divisor": reason, "displacement": reason}


@pytest.mark.parametrize("size", [10, 11])
def test_check_builds_no_fan_above_the_flag_limit(monkeypatch, size):
    def no_fan(matroid):
        raise AssertionError("the Bergman weight was built")

    monkeypatch.setattr(validation, "bergman_weight", no_fan)
    report = validation.run_check(FreeMatroid(size)).report
    assert report["pass"] is True, report.get("error")
    reason = (f"free({size}) has at least {math.factorial(size)} complete flags of flats; "
              "a Bergman weight is built with at most 362880 cones")
    assert report["skipped"] == {"divisor": reason, "displacement": reason}
    assert list(report["skipped"]) == ["divisor", "displacement"]
    assert "balancing_violations" not in report
    assert report["mu"]["mobius"] == [math.comb(size - 1, k) for k in range(size)]


def test_flag_count_matches_the_corpus_fans():
    for name in corpus.CORPUS_NAMES:
        simple = corpus.build(name).simplify()[0]
        assert validation.count_complete_flags(simple) == len(bergman_weight(simple).weights)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=9),
       st.lists(st.lists(st.integers(0, 2), min_size=7, max_size=7), min_size=1, max_size=4))
def test_flag_count_matches_random_fans(edges, rows):
    for matroid in (GraphicMatroid(5, edges), LinearMatroid(rows, 3)):
        if matroid.full_rank:
            simple = matroid.simplify()[0]
            assert validation.count_complete_flags(simple) == len(bergman_weight(simple).weights)


def test_bad_input_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json",
                     {"type": "rank_table", "n": 3,
                      "ranks": [0, 1, 1, 2, 1, 2, 2, 1]})
    for command in ("charpoly", "mu", "fan", "check"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert "unit increase" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe" + json.dumps({"type": "free", "size": 3}).encode("utf-16-le"),
    b"[" * 100_000 + b"]" * 100_000,
    b'{"type": "uniform", "rank": ' + b"1" * 5000 + b', "size": 3}',
], ids=["utf16-bom", "deep-nesting", "int-beyond-digit-limit"])
def test_undecodable_input_files_exit_code(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in ("charpoly", "mu", "fan", "check"):
        proc = run_child(command, str(path))
        assert (proc.returncode, proc.stdout) == (2, ""), (command, proc.stderr)
        assert proc.stderr.startswith("error:") and "not valid JSON" in proc.stderr


def test_unwritable_output_paths_exit_code(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "k4.json", K4_DOC)
    missing = tmp_path / "missing"

    def refuse(matroid):
        raise AssertionError("the fan was built before its output was opened")

    monkeypatch.setattr(cli, "bergman_weight", refuse)
    for argv in (("check", path, "--trace", str(missing / "t.ndjson")),
                 ("fan", path, "--out", str(missing / "f.json"))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write")
    assert not missing.exists()


def _closed_pipe() -> int:
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


# Each opens a file descriptor whose writes fail, with the error they raise.
FAILING_STDOUTS = {
    "full": (lambda: os.open("/dev/full", os.O_WRONLY), "[Errno 28] No space left on device"),
    "pipe": (_closed_pipe, "[Errno 32] Broken pipe"),
}
U23_DOC = {"type": "uniform", "rank": 2, "size": 3}
STDOUT_COMMANDS = {
    "charpoly": ("charpoly", "DOC"), "mu": ("mu", "DOC"), "fan": ("fan", "DOC"),
    "check": ("check", "DOC"), "corpus": ("corpus",), "corpus-json": ("corpus", "--json"),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, doc, stdout, child", [
    pytest.param(("fan", "DOC", "--out", "/dev/full"), U23_DOC, None, False, id="fan-u23"),
    pytest.param(("check", "DOC", "--trace", "/dev/full"), U23_DOC, None, False,
                 id="check-u23"),
    # 93 rows overflow the write buffer while run_check is still running.
    pytest.param(("check", "DOC", "--trace", "/dev/full"),
                 {"type": "uniform", "rank": 4, "size": 9}, None, False, id="check-u49"),
    *[pytest.param(argv, K4_DOC, sink, child,
                   id=f"{name}-stdout-{'child-' if child else ''}{sink}")
      for name, argv in STDOUT_COMMANDS.items() for sink in FAILING_STDOUTS
      for child in (False, True) if not child or name in ("charpoly", "check")],
])
def test_failed_writes_exit_code(tmp_path, capsys, monkeypatch, argv, doc, stdout, child):
    argv = [write_doc(tmp_path, "doc.json", doc) if a == "DOC" else a for a in argv]
    if stdout is None:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: ")
        return
    open_fd, message = FAILING_STDOUTS[stdout]
    fd = open_fd()
    if child:
        # Only a child shows the exit status after the interpreter's own
        # flush of stdout at exit.
        try:
            proc = run_child(*argv, stdout=fd)
        finally:
            os.close(fd)
        code, err = proc.returncode, proc.stderr
    else:
        # Two entries keep the corpus runs short.
        monkeypatch.setattr(cli.corpus, "CORPUS_NAMES", ("u-2-3", "k4"))
        with open(fd, "w", encoding="utf-8") as failing:
            monkeypatch.setattr(sys, "stdout", failing)
            code = cli.main(argv)
        err = capsys.readouterr().err
    assert (code, err) == (2, f"error: cannot write stdout: {message}\n")


CLOSED_STDOUT = "[Errno 9] Bad file descriptor"


@pytest.mark.parametrize("argv", [
    ("charpoly", "DOC"), ("check", "DOC", "--trace", "-"), ("fan", "DOC", "--out", "-"),
    ("--help",), ("check", "--help"),
], ids=["charpoly", "check-trace", "fan-out", "help", "check-help"])
def test_a_closed_stdout_exits_2(tmp_path, argv):
    argv = [write_doc(tmp_path, "k4.json", K4_DOC) if a == "DOC" else a for a in argv]
    proc = run_child(*argv, stdout=None)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {CLOSED_STDOUT}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("sink", FAILING_STDOUTS)
@pytest.mark.parametrize("argv", [("--help",), ("check", "--help")], ids=["help", "check-help"])
def test_help_that_cannot_be_written_exits_2(argv, sink):
    # argparse alone drops the error of a failed help write and exits 0.
    open_fd, message = FAILING_STDOUTS[sink]
    fd = open_fd()
    try:
        proc = run_child(*argv, stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {message}\n")


@pytest.mark.parametrize("command", ["charpoly", "mu", "check"])
def test_a_name_that_is_not_text_exits_2(tmp_path, command):
    # Valid JSON, but a lone surrogate has no UTF-8 encoding, so no report
    # could carry it.
    path = write_doc(tmp_path, "doc.json", dict(U23_DOC, name="\ud800"))
    proc = run_child(command, path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    ("charpoly", "DOC"), ("mu", "DOC"), ("check", "DOC"), ("check", "DOC", "--trace", "-"),
], ids=["charpoly", "mu", "check", "check-trace"])
def test_a_report_stdout_cannot_encode_exits_2(tmp_path, argv):
    # With --trace -, the rows that stdout could encode do not leave
    # without the report.
    path = write_doc(tmp_path, "doc.json", dict(U23_DOC, name="M\u00f6bius"))
    proc = run_child(*[path if a == "DOC" else a for a in argv], env={"PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot write stdout: 'ascii' codec can't encode "
                                  "character '\\xf6'"), proc.stderr
    assert proc.stderr.count("\n") == 1


def test_help_that_can_be_written_exits_0():
    proc = run_child("--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.build_parser().format_help(), "")
    proc = run_child("check", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: matfan check ")


def _twelve_element_non_matroid():
    # u(2,12) except r({0,1}) = r({1,2}) = 1 while r({0,2}) = 2: unit
    # increase holds, and only pairs of sets of rank <= 1 break
    # submodularity, so a random sample of pairs rarely finds one.
    ranks = [min(mask.bit_count(), 2) for mask in range(1 << 12)]
    ranks[0b011] = ranks[0b110] = 1
    return {"type": "rank_table", "n": 12, "ranks": ranks}


@pytest.mark.parametrize("doc, message", [
    (_twelve_element_non_matroid(), "rank table violates the rank axioms"),
    # {0,1} and {2,3}: basis exchange fails.
    ({"type": "bases", "n": 4, "bases": [3, 12]}, "bases fail basis exchange"),
])
def test_non_matroid_documents_exit_code(tmp_path, capsys, doc, message):
    with pytest.raises(InputError, match=message):
        load_matroid(doc)
    path = write_doc(tmp_path, "bad.json", doc)
    for command in ("charpoly", "mu", "fan", "check"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert "submodularity fails" in err


def test_oversized_bases_document_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "big.json", {"type": "bases", "n": 22, "bases": [3]})
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err == ("error: n=22 is outside 1..21: bases and rank tables are checked "
                   "over every subset, which caps them at 21 elements\n")


@pytest.mark.parametrize("n, kind, table", [
    pytest.param(n, kind, table, id=f"{prefix}{n}")
    for kind, table, prefix in (("rank_table", "ranks", ""), ("bases", "bases", "bases-"))
    for n in (10**12, 10**8, -1, 22)])
def test_rank_table_size_is_checked_before_the_table(tmp_path, capsys, n, kind, table):
    # The table check shifts by n: unchecked, these ended in a
    # MemoryError, a digit-limit error, a negative shift count and a
    # 4,194,304-entry count.  Both 2**n-table types share one message.
    path = write_doc(tmp_path, "big.json", {"type": kind, "n": n, table: [0]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "caps them at 21 elements" in err


@pytest.mark.parametrize("rank, size, mu", [
    (2, 22, [1, 21]),
    (3, 31, [1, 30, 435]),
])
def test_check_skips_welsh_mason_above_scan_limit(tmp_path, capsys, rank, size, mu):
    # Closed form: the reduced coefficients of u(r, n) are C(n-1, k).
    path = write_doc(tmp_path, "big.json", {"type": "uniform", "rank": rank, "size": size})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 30
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["mu"] == {route: mu for route in ROUTES}
    assert report["skipped"] == {"welsh_mason": (
        f"uniform({rank},{size}) has {size} elements; the Welsh-Mason step "
        "scans every subset, which caps it at 21 elements")}
    assert report["truncation_identity"] is True
    assert report["f_vector"] is None
    assert report["mu_coextension"] is None
    assert report["welsh_mason"] is None
    assert list(report["log_concave_detail"]) == ["reduced", "unreduced"]


def test_large_prime_modulus(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"type": "linear",
                                          "field": "GF(99999999999999999989)",
                                          "matrix": [[1]]})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 30
    assert code == 0
    assert json.loads(out)["pass"] is True
    path = write_doc(tmp_path, "huge.json", {"type": "linear",
                                             "field": f"GF({10**30 + 57})",
                                             "matrix": [[1]]})
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert "cannot decide whether" in err


@pytest.mark.parametrize("doc", [
    {"type": "uniform", "rank": 0, "size": 3},
    {"type": "graphic", "vertices": 2, "edges": [[0, 0], [1, 1], [1, 1]]},
])
def test_rank_zero_input_exit_code(tmp_path, capsys, doc):
    path = write_doc(tmp_path, "loops.json", doc)
    for command in ("charpoly", "mu", "check"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert "has rank 0" in err


@pytest.mark.parametrize("edge", [["a", 1], [0.5, 1], [True, 2], [1, None]])
def test_graphic_endpoints_must_be_integers(tmp_path, capsys, edge):
    doc = {"type": "graphic", "vertices": 3, "edges": [[0, 1], edge]}
    with pytest.raises(InputError, match="must have integer endpoints"):
        load_matroid(doc)
    path = write_doc(tmp_path, "bad.json", doc)
    for command in ("charpoly", "mu", "fan", "check"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert "integer endpoints" in err


def test_graphic_vertex_ids_only_name_endpoints(tmp_path):
    # A triangle and a self-loop among 10^12 vertices: the rank oracle
    # numbers the four endpoints it sees, whatever their ids.
    big = 10**12
    path = write_doc(tmp_path, "sparse.json", {
        "type": "graphic", "vertices": big,
        "edges": [[0, big - 1], [0, 5], [5, big - 1], [7, 7]],
    })
    proc = run_child("check", path)
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout)["mu"].values()) == [[1, 2]] * 4


def test_check_exit_codes_for_failures(monkeypatch, tmp_path, capsys):
    # Honest failing inputs do not exist in the corpus, so exercise the
    # exit-code mapping directly.
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})

    def failing(matroid, **kwargs):
        return CheckResult({"pass": False}, ok=False)

    monkeypatch.setattr(cli, "run_check", failing)
    assert run_cli(capsys, "check", path)[0] == 1

    def broken(matroid, **kwargs):
        return CheckResult({"error": "boom", "pass": False}, ok=False,
                           internal_error="boom")

    monkeypatch.setattr(cli, "run_check", broken)
    assert run_cli(capsys, "check", path)[0] == 3


def _wrong_flag_counts(monkeypatch):
    # On the subject only: the Welsh-Mason step counts the free
    # coextension's flags through the same name.
    real = validation.count_descending_flags
    monkeypatch.setattr(validation, "count_descending_flags", lambda matroid: (
        real(matroid) if isinstance(matroid, FreeCoextensionMatroid) else (1, 5, 7)))


def _wrong_flag_counts_everywhere(monkeypatch):
    monkeypatch.setattr(validation, "count_descending_flags", lambda matroid: (1, 5, 7))


def _not_log_concave(monkeypatch):
    monkeypatch.setattr(validation, "is_log_concave", lambda sequence: False)


def _empty_truncations(monkeypatch):
    real = validation.bergman_weight

    def below_top_empty(matroid, k=None):
        weight = real(matroid, k)
        return weight if k is None else MinkowskiWeight(weight.n, weight.codim, {})

    monkeypatch.setattr(validation, "bergman_weight", below_top_empty)


def _wrong_independent_sets(monkeypatch):
    real = Matroid.independent_set_counts

    def one_too_many(self):
        *lower, top = real(self)
        return (*lower, top + 1)

    monkeypatch.setattr(Matroid, "independent_set_counts", one_too_many)


@pytest.mark.parametrize("doc, patch, failure", [
    (K4_DOC, _wrong_flag_counts, "method disagreement"),
    (K4_DOC, _not_log_concave, "log-concavity failure"),
    (K4_DOC, _empty_truncations, "truncation identity failure"),
    (K4_DOC, _wrong_independent_sets, "independent-set count mismatch"),
], ids=["flags", "log-concavity", "truncation", "welsh-mason"])
def test_each_failed_step_is_a_failure_verdict(monkeypatch, doc, patch, failure):
    patch(monkeypatch)
    result = validation.run_check(load_matroid(doc))
    assert result.internal_error is None
    assert result.report["failures"] == [failure]
    assert result.report["pass"] is False
    assert result.ok is False


@pytest.mark.parametrize("doc, patches, failures", [
    (K4_DOC, (_wrong_flag_counts, _not_log_concave, _empty_truncations,
              _wrong_independent_sets),
     ["method disagreement", "log-concavity failure", "truncation identity failure",
      "independent-set count mismatch"]),
    # K5 runs every route, so its cups meet the empty truncations too.
    (K5_DOC, (_wrong_flag_counts, _not_log_concave, _empty_truncations,
              _wrong_independent_sets),
     ["method disagreement", "log-concavity failure", "truncation identity failure",
      "independent-set count mismatch"]),
    # The coextension's coefficients are its flag counts, so a flags route
    # that is wrong on every matroid breaks the Welsh-Mason identity too.
    (K4_DOC, (_wrong_flag_counts_everywhere,),
     ["method disagreement", "independent-set count mismatch"]),
], ids=["k4", "k5", "flags-everywhere"])
def test_several_failures_keep_their_order(monkeypatch, doc, patches, failures):
    for patch in patches:
        patch(monkeypatch)
    result = validation.run_check(load_matroid(doc))
    assert result.internal_error is None
    assert result.report["failures"] == failures


def test_a_failure_verdict_exits_1(monkeypatch, tmp_path, capsys):
    _wrong_flag_counts(monkeypatch)
    code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, "k4.json", K4_DOC))
    assert code == 1
    assert json.loads(out)["failures"] == ["method disagreement"]


def test_mu_exits_1_when_routes_disagree(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(validation._ROUTES, "divisor", lambda simple: (1, 5, 7))
    code, out, _ = run_cli(capsys, "mu", write_doc(tmp_path, "k4.json", K4_DOC),
                           "--method", "all")
    assert code == 1
    assert json.loads(out)["mu"]["divisor"] == [1, 5, 7]


def test_mu_reports_the_simplification(tmp_path, capsys):
    doc = dict(K4_DOC, edges=K4_DOC["edges"] + [[1, 0]])
    code, out, _ = run_cli(capsys, "mu", write_doc(tmp_path, "k4.json", doc))
    assert code == 0
    report = json.loads(out)
    assert report["simplification"] == {"relabeling": [0, 1, 2, 3, 4, 5, 0],
                                         "dropped_loops": []}
    assert report["mu"]["mobius"] == [1, 5, 6]


def test_corpus_table_marks_an_internal_error(monkeypatch, capsys):
    real = cli.run_check

    def broken_k4(matroid, **kwargs):
        if matroid.name != "k4":
            return real(matroid, **kwargs)
        return CheckResult({"name": "k4", "size": 6, "error": "boom", "pass": False},
                           ok=False, internal_error="boom")

    monkeypatch.setattr(cli.corpus, "CORPUS_NAMES", ("u-2-3", "k4"))
    monkeypatch.setattr(cli, "run_check", broken_k4)
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 3
    lines = out.splitlines()
    assert lines[2].split() == ["k4", "6", "-", "-", "-", "-", "-", "-", "ERROR"]
    assert len(lines[2].split()) == len(lines[0].split())
    assert lines[-1] == "1/2 corpus entries passed"


def test_unbalanced_fan_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # The cup product runs the balancing test at every size the flag gate
    # admits: free-3 and K5's 10 elements alike.
    lone = MinkowskiWeight(2, 0, {(0b010, 0b110): 1})
    monkeypatch.setattr(validation, "bergman_weight", lambda matroid: lone)
    for name, doc in (("free", {"type": "free", "size": 3}), ("k5", K5_DOC)):
        code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, f"{name}.json", doc))
        assert code == 3, name
        assert json.loads(out)["error"].startswith("NotBalancedError"), name


def test_corpus_command_on_a_subset(monkeypatch, capsys):
    import concurrent.futures
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("corpus started a process pool")

    # The corpus runs in this process, however many CPUs there are.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.corpus, "CORPUS_NAMES", ("u-2-3", "k4"))
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert lines[-1] == "2/2 corpus entries passed"
    assert any(line.startswith("k4") and "PASS" in line for line in lines)


def test_corpus_command_json_subset(monkeypatch, capsys):
    monkeypatch.setattr(cli.corpus, "CORPUS_NAMES", ("u-2-3",))
    code, out, _ = run_cli(capsys, "corpus", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [e["name"] for e in doc["entries"]] == ["u-2-3"]


@pytest.mark.parametrize("argv", [["check", "doc.json"], ["corpus"]], ids=["check", "corpus"])
def test_skip_is_refused(capsys, argv):
    # What check skips is decided by validation.out_of_reach alone.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--skip", "displacement"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --skip" in captured.err


@pytest.mark.parametrize("argv", [
    ["mu", "doc.json", "--seed", "3"],
    ["check", "doc.json", "--seed", "3"],
    ["corpus", "--seed", "3"],
    ["corpus", "--jobs", "2"],
    ["corpus", "--timings"],
], ids=["mu-seed", "check-seed", "corpus-seed", "corpus-jobs", "corpus-timings"])
def test_idle_options_are_refused(capsys, argv):
    # None of them changes a report: the displacement vector is fixed, and
    # the corpus runs in this one process.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    option = next(arg for arg in argv if arg.startswith("--"))
    assert f"unrecognized arguments: {option}" in captured.err


def test_module_entry_point(tmp_path):
    path = write_doc(tmp_path, "line.json", {"type": "uniform", "rank": 2, "size": 3})
    proc = run_child("charpoly", path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mu"] == [1, 2]

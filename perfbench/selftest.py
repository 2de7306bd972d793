"""Self-tests of the benchmark itself; not part of the repository's suite.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_documents(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.document_bytes(workload, 7),
                             workloads.document_bytes(workload, 7))

    def test_different_seed_gives_different_documents(self):
        for workload in ("near-limit", "lattice"):
            self.assertNotEqual(workloads.document_bytes(workload, 7),
                                workloads.document_bytes(workload, 8))

    def test_documents_repeat_in_another_interpreter(self):
        code = "import sys, workloads; sys.stdout.buffer.write(workloads.document_bytes('lattice', 3))"
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                             check=True, env=dict(os.environ, PYTHONHASHSEED="123")).stdout
        self.assertEqual(out, workloads.document_bytes("lattice", 3))

    def test_corpus_list_matches_matfan(self):
        from matfan import corpus

        self.assertEqual(tuple(corpus.CORPUS_NAMES), workloads.CORPUS_NAMES)


class References(unittest.TestCase):
    """The reference routines agree with the frozen acceptance vectors."""

    def test_graphic_k4(self):
        self.assertEqual(reference.graphic_mu(4, K4_EDGES), reference.FROZEN["k4"])

    def test_graphic_k5(self):
        edges = [[u, v] for u in range(5) for v in range(u + 1, 5)]
        self.assertEqual(reference.graphic_mu(5, edges), reference.FROZEN["k5"])

    def test_linear_fano_and_non_fano(self):
        matrix = [[(e + 1) >> i & 1 for e in range(7)] for i in range(3)]
        self.assertEqual(reference.linear_mu(matrix, 2), reference.FROZEN["fano"])
        self.assertEqual(reference.linear_mu(matrix, None), reference.FROZEN["non-fano"])

    def test_loops_and_parallels_are_simplified_away(self):
        edges = K4_EDGES + [[0, 1], [2, 2]]
        self.assertEqual(reference.graphic_mu(4, edges), reference.FROZEN["k4"])

    def test_uniform_closed_form(self):
        self.assertEqual(reference.uniform_mu(3, 7), (1, 6, 15))
        self.assertEqual(reference.uniform_mu(4, 4), (1, 3, 3, 1))


class Tail(unittest.TestCase):
    def samples(self, n):
        return [(f"op{i}", float(i)) for i in reversed(range(n))]

    def test_fewer_than_twenty_reports_slowest(self):
        value, note = run.op_tail(self.samples(19))
        self.assertEqual(value, 18.0)
        self.assertEqual(note, "slowest of 19 ops: op18")

    def test_leaves_exactly_ten_beyond(self):
        for n in (20, 35, 100):
            value, _ = run.op_tail(self.samples(n))
            self.assertEqual(sum(1 for _, v in self.samples(n) if v > value), 10)

    def test_percentile_label(self):
        self.assertEqual(run.op_tail(self.samples(35))[1], "p71.4 of 35 ops, 10 beyond")


class OutputCheck(unittest.TestCase):
    good = {"pass": True, "mu": {"mobius": [1, 5, 6], "flags": [1, 5, 6]}}

    def test_good_output(self):
        self.assertEqual(reference.check_output((1, 5, 6), 0, self.good)[0], reference.OK)

    def test_injected_wrong_vector(self):
        bad = {"pass": True, "mu": {"mobius": [1, 5, 6], "divisor": [1, 5, 7]}}
        status, reason = reference.check_output((1, 5, 6), 0, bad)
        self.assertEqual(status, reference.WRONG)
        self.assertIn("divisor", reason)

    def test_exit_3(self):
        report = {"error": "ValueError: refusing exhaustive scan", "pass": False}
        self.assertEqual(reference.check_output((1, 21), 3, report)[0], reference.ERROR)

    def test_pass_false_and_exit_mismatch(self):
        self.assertEqual(reference.check_output((1, 5, 6), 1, dict(self.good, **{"pass": False}))[0],
                         reference.WRONG)
        self.assertEqual(reference.check_output((1, 5, 6), 1, self.good)[0], reference.WRONG)
        self.assertEqual(reference.check_output((1, 5, 6), 0, None)[0], reference.WRONG)

    def test_real_check_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "k4.json"
            path.write_text(json.dumps({"type": "graphic", "vertices": 4, "edges": K4_EDGES}))
            proc = subprocess.run([sys.executable, "-m", "matfan", "check", str(path)],
                                  capture_output=True, env=run._child_env(), cwd=ROOT)
        report = json.loads(proc.stdout)
        self.assertEqual(reference.check_output((1, 5, 6), proc.returncode, report)[0],
                         reference.OK)
        self.assertEqual(reference.check_output((1, 5, 7), proc.returncode, report)[0],
                         reference.WRONG)


class Wrappers(unittest.TestCase):
    def worker_pass(self, traced: bool) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            extra = ["--spans", str(Path(tmp) / "spans.ndjson")] if traced else []
            _, _, code, _, err = run.run_child(lambda t: [
                run.WORKER, "pass", "--workload", "corpus", "--seed", "0", "--only", "k4",
                "--spawned-at", str(t), "--out", str(out), *extra])
            self.assertEqual(code, 0, err)
            return json.loads(out.read_text())

    def test_untraced_pass_has_no_wrappers(self):
        data = self.worker_pass(traced=False)
        self.assertEqual(data["wrappers"], [])
        self.assertIsNone(data["trace"])
        self.assertEqual(data["ops"][0]["report"]["mu"]["mobius"], [1, 5, 6])

    def test_traced_pass_accounts_for_its_wall_time(self):
        data = self.worker_pass(traced=True)
        self.assertIn("matfan.validation.run_check", data["wrappers"])
        ex = run.Execution()
        ex.ops = [(o["name"], o["ns"] / 1e9, o["exit"], o["report"]) for o in data["ops"]]
        ex.wall_s = data["wall_ns"] / 1e9
        ex.absorb_trace(data["trace"])
        m = run.layer_metrics(ex, "corpus", ex.wall_s, 0.1)
        self.assertGreater(m["linalg.solve_in_span.calls"], 0)
        self.assertEqual(m["fan.check_balancing.violations"], 0)
        self.assertLess(abs(m["trace.unattributed_s"]), 0.01 * ex.wall_s)

    def test_install_and_uninstall_round_trip(self):
        import layertrace

        self.assertEqual(layertrace.installed(), [])
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            self.assertIn("matfan.matroid.Matroid.rank", layertrace.installed())
        finally:
            tracer.uninstall()
        self.assertEqual(layertrace.installed(), [])


class Compare(unittest.TestCase):
    base = {1: 10.0, 2: 10.2, 3: 9.8, 4: 10.1}

    def test_worse_beyond_bound(self):
        new = {s: v * 1.3 for s, v in self.base.items()}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1)[-1], "worse")

    def test_better_when_every_pair_wins(self):
        new = {s: v * 0.8 for s, v in self.base.items()}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1)[-1], "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = {1: 5.0, 2: 15.0, 3: 8.0, 4: 12.0}
        self.assertEqual(run.verdict(self.base, noisy, "lower", 0.1)[-1], "unresolved")

    def test_within_bound(self):
        new = {1: 10.1, 2: 10.0, 3: 9.9, 4: 10.2}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1)[-1], "within bound")


class Spec(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_missing_sources_exit_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in HERE.glob("*.py"):
                (bench / f.name).write_text(f.read_text())
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()

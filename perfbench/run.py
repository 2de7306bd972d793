"""matfan benchmark: three seeded workloads through matfan's public entry
points, every output checked against an independent reference.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --record runs.ndjson
    python3 perfbench/run.py --compare base.ndjson new.ndjson

Run from anywhere; the benchmark finds ``src/matfan`` next to its own
directory and exits 2 when it is missing.  Each run prints one block per
workload with every metric and its unit, then, as its last line, a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--record`` appends the
full result with provenance to an NDJSON file, which ``--compare`` reads.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
WORK_DIR = ROOT / ".perfbench_work"

# One pass of each workload on a 2-CPU host with CPython 3.11; a run does
# the whole passes that fit in --seconds at these times, and at least one,
# so every run with the same --seconds does the same work.
NOMINAL_PASS_S = {"corpus": 24.0, "near-limit": 42.0, "lattice": 14.0}
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

# Every run prints and records these.  Only END_TO_END goes into the
# result line and BENCHMARK.json, which bounds it.  On the shared 2-CPU
# host the run-to-run spread of every timing exceeded the largest allowed
# bound (0.25) in some set of ten runs; set-up time is bounded all the
# same, as every benchmark must bound it (its spread is not held to it).
REPORTED = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
END_TO_END = {name: REPORTED[name] for name in ("setup_s", "peak_rss_mib")}
# Bound used by --compare for reported metrics that BENCHMARK.json does not
# bound: the largest bound a benchmark may set.
UNBOUNDED_DEFAULT = 0.25

# Span layers whose self time is reported, by the names layertrace gives them.
SPAN_LAYERS = (
    "validation.run_check", "bench.op", "corpus.build",
    "schema.load_matroid", "schema.load_matroid_file", "schema.dump_json", "cli.main",
    "matroid.simplify", "matroid.flat_strata", "matroid.independent_set_counts",
    "charpoly.char_poly", "charpoly.reduced_char_poly", "charpoly.count_descending_flags",
    "fan.bergman_weight", "fan.check_balancing", "fan.permutohedral_weight",
    "intersect.divisor_cup", "intersect.displacement_weights", "intersect.pairing_terms",
)
HOT_LAYERS = ("matroid.rank", "linalg.solve_in_span", "linalg.solve_square_int",
              "intersect.cone_displacement_intersect")
PHASES = ("charpoly", "flags", "balancing", "divisor", "displacement", "welsh_mason")

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_LAYERS + HOT_LAYERS},
    "linalg.solve_in_span.calls": "count",
    "linalg.solve_square_int.calls": "count",
    "intersect.divisor_cup.calls": "count",
    "intersect.divisor_cup.facets": "count",
    "fan.check_balancing.calls": "count",
    "fan.check_balancing.facets": "count",
    "fan.check_balancing.violations": "count",
    "fan.bergman_weight.calls": "count",
    "fan.bergman_weight.cones": "count",
    "fan.permutohedral_weight.calls": "count",
    "fan.permutohedral_weight.cones": "count",
    "fan.permutohedral_weight.cache_hit_ratio": "ratio",
    "intersect.pairing_terms.sweeps": "count",
    "intersect.pairing_terms.certified_ratio": "ratio",
    "intersect.pairs.considered": "count",
    "intersect.pairs.solved": "count",
    "intersect.pairs.hit": "count",
    "intersect.pairs.solve_ratio": "ratio",
    "intersect.pairs.hit_ratio": "ratio",
    "intersect.cone_displacement_intersect.ns_per_pair": "ns",
    "matroid.rank.calls": "count",
    "matroid.rank.computed": "count",
    "matroid.rank.memo_hit_ratio": "ratio",
    **{f"validation.phase.{phase}_s": "s" for phase in PHASES},
    "cli.startup_s": "s",
    "cli.exit_s": "s",
    "host.calib_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.bookkeeping_s": "s",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not complete a run."""


# -- processes -----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(make_args) -> tuple[int, int, int, bytes, bytes]:
    """Run `python <make_args(spawn_ns)>` from the repo root and wait for it.

    Returns (start_ns, end_ns, exit code, stdout, stderr) on the
    monotonic clock, which child processes share.
    """
    start = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, *make_args(start)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {make_args(start)[:3]} exceeded {CHILD_TIMEOUT_S} s") from None
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM via main's handler): no orphans.
        proc.kill()
        proc.wait()
        raise
    return start, time.monotonic_ns(), proc.returncode, out, err


def calibrate() -> float:
    """A fixed pure-Python integer loop; its time tracks host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def setup_sampler(workload: str, seed: int, times: list[float]):
    """A callback that appends n set-up samples to `times`: each is a fresh
    interpreter's start-up, `import matfan` and building of the inputs.

    The executions call it before, between and after their operations, so
    that set-up time is sampled across the run, not at one moment."""
    def sample(n: int) -> None:
        for _ in range(n):
            start, end, code, _, err = run_child(
                lambda _: [WORKER, "setup", "--workload", workload, "--seed", str(seed)])
            if code != 0:
                raise BenchError(f"set-up worker failed: {err.decode(errors='replace')}")
            times.append((end - start) / 1e9)
    return sample


# -- execution -----------------------------------------------------------------


class Execution:
    """Operations of one untraced or traced execution of a workload."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, float, int, dict | None]] = []
        self.wall_s = 0.0
        self.wrappers: set[str] = set()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_ns = 0
        self.startup_ns = 0
        self.exit_ns = 0

    def absorb_trace(self, summary: dict) -> None:
        self.calls.update(summary["calls"])
        self.self_ns.update(summary["self_ns"])
        self.counts.update(summary["counts"])
        self.bookkeeping_ns += summary["bookkeeping_ns"]


def execute_in_process(workload: str, seed: int, passes: int, work: Path,
                       spans: Path | None, between) -> Execution:
    ex = Execution()
    between(2)
    for index in range(passes):
        out = work / f"pass-{index}-{'traced' if spans else 'plain'}.json"
        extra = ["--spans", str(spans)] if spans else []
        start, end, code, _, err = run_child(lambda t: [
            WORKER, "pass", "--workload", workload, "--seed", str(seed),
            "--spawned-at", str(t), "--out", str(out), *extra])
        if code != 0:
            raise BenchError(f"{workload} worker exited {code}: {err.decode(errors='replace')}")
        data = json.loads(out.read_text())
        ex.ops += [(op["name"], op["ns"] / 1e9, op["exit"], op["report"]) for op in data["ops"]]
        ex.wall_s += data["wall_ns"] / 1e9
        ex.wrappers.update(data["wrappers"])
        ex.startup_ns += data["startup_ns"]
        ex.exit_ns += end - data["done_ns"]
        if data["trace"]:
            ex.absorb_trace(data["trace"])
        between(2)
    return ex


def execute_cold(ops, passes: int, work: Path, spans: Path | None, between) -> Execution:
    """Each operation is a fresh `python -m matfan check <doc>` process; a
    traced one runs the same command through worker.py's tracer."""
    paths = {}
    for name, doc in ops:
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    runs = []
    between(1)
    for _ in range(passes):
        for name, _doc in ops:
            doc = str(paths[name])
            result = work / f"cold-{len(runs)}.json"
            if spans:
                args = [WORKER, "cold", doc, "--out", str(result), "--spans", str(spans)]
                make = lambda t: [*args, "--spawned-at", str(t)]  # noqa: E731
            else:
                make = lambda t: ["-m", "matfan", "check", doc]  # noqa: E731
            runs.append((name, result, run_child(make)))
            between(1)
    # Outputs are parsed only after the last operation has finished.
    ex = Execution()
    for name, result, (start, end, code, out, _) in runs:
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        ex.ops.append((name, (end - start) / 1e9, code, report))
        if spans:
            data = json.loads(result.read_text())
            ex.wrappers.update(data["wrappers"])
            ex.startup_ns += data["startup_ns"]
            ex.exit_ns += end - data["done_ns"]
            # Installing the tracer and writing spans out are its own cost.
            ex.bookkeeping_ns += data["done_ns"] - start - data["startup_ns"] - data["main_ns"]
            ex.absorb_trace(data["trace"])
    # The workload's time is its operations'; set-up samples between them
    # are not part of it.
    ex.wall_s = sum(end - start for _, _, (start, end, *_) in runs) / 1e9
    return ex


def execute(workload: str, seed: int, ops, passes: int, work: Path,
            spans: Path | None, between=lambda n: None) -> Execution:
    if workload == "near-limit":
        return execute_cold(ops, passes, work, spans, between)
    return execute_in_process(workload, seed, passes, work, spans, between)


# -- metrics -------------------------------------------------------------------


def op_tail(samples: list[tuple[str, float]]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND operations beyond
    it; with fewer than 2 * TAIL_BEYOND operations, the slowest one."""
    ordered = sorted(samples, key=lambda s: s[1])
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        name, value = ordered[-1]
        return value, f"slowest of {n} ops: {name}"
    index = n - TAIL_BEYOND - 1
    return ordered[index][1], f"p{100 * (index + 1) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond"


def check_ops(ex: Execution, expected: dict) -> list[tuple[str, str, str]]:
    """(name, status, reason) for every operation that did not pass."""
    misses = []
    for name, _, code, report in ex.ops:
        status, reason = reference.check_output(expected[name], code, report)
        if status != reference.OK:
            misses.append((name, status, reason))
    return misses


def layer_metrics(ex: Execution, workload: str, untraced_wall: float, calib: float) -> dict:
    def self_s(name):
        return ex.self_ns.get(name, 0) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    calls, counts = ex.calls, ex.counts
    m = {f"{name}.self_s": self_s(name) for name in SPAN_LAYERS + HOT_LAYERS}
    for name in ("linalg.solve_in_span", "linalg.solve_square_int", "intersect.divisor_cup",
                 "fan.check_balancing", "fan.bergman_weight", "fan.permutohedral_weight",
                 "matroid.rank"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("intersect.divisor_cup.facets", "fan.check_balancing.facets",
                 "fan.check_balancing.violations", "fan.bergman_weight.cones",
                 "fan.permutohedral_weight.cones", "intersect.pairing_terms.sweeps",
                 "intersect.pairs.considered", "intersect.pairs.hit"):
        m[name] = counts.get(name, 0)
    # The oracle's own time includes the backends' `_rank_impl`.
    m["matroid.rank.self_s"] += self_s("matroid.rank.compute")
    m["matroid.rank.computed"] = calls.get("matroid.rank.compute", 0)
    solved = calls.get("intersect.cone_displacement_intersect", 0)
    m["intersect.pairs.solved"] = solved
    m["fan.permutohedral_weight.cache_hit_ratio"] = ratio(
        counts.get("fan.permutohedral_weight.cache_hits", 0),
        calls.get("fan.permutohedral_weight", 0))
    m["intersect.pairing_terms.certified_ratio"] = ratio(
        counts.get("intersect.pairing_terms.certified", 0),
        counts.get("intersect.pairing_terms.sweeps", 0))
    m["intersect.pairs.solve_ratio"] = ratio(solved, m["intersect.pairs.considered"])
    m["intersect.pairs.hit_ratio"] = ratio(m["intersect.pairs.hit"], solved)
    # solve_square_int is only called from cone_displacement_intersect.
    m["intersect.cone_displacement_intersect.ns_per_pair"] = ratio(
        ex.self_ns.get("intersect.cone_displacement_intersect", 0)
        + ex.self_ns.get("linalg.solve_square_int", 0), solved)
    m["matroid.rank.memo_hit_ratio"] = 1.0 - ratio(m["matroid.rank.computed"],
                                                   m["matroid.rank.calls"])
    phases = Counter()
    for _, _, _, report in ex.ops:
        phases.update((report or {}).get("timings_ns", {}))
    for phase in PHASES:
        m[f"validation.phase.{phase}_s"] = phases.get(phase, 0) / 1e9
    m["cli.startup_s"] = ex.startup_ns / 1e9
    m["cli.exit_s"] = ex.exit_ns / 1e9
    m["host.calib_s"] = calib
    m["trace.wall_s"] = ex.wall_s
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = ratio(ex.wall_s, untraced_wall) - 1.0
    m["trace.bookkeeping_s"] = ex.bookkeeping_ns / 1e9
    # Self times, tracer bookkeeping and (for cold processes) start-up and
    # exit account for the traced wall time; this is what is left over.
    covered = sum(ex.self_ns.values()) + ex.bookkeeping_ns
    if workload == "near-limit":
        covered += ex.startup_ns + ex.exit_ns
    m["trace.unattributed_s"] = ex.wall_s - covered / 1e9
    return m


# -- one workload ----------------------------------------------------------------


def provenance(seed: int) -> dict:
    mem_mib = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mib = int(line.split()[1]) // 1024
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "mem_mib": mem_mib,
        "git_sha": sha,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    ops = workloads.operations(workload, seed)
    expected = {name: reference.expected_mu(name, doc) for name, doc in ops}
    passes = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        calib = [calibrate(), calibrate()]
        setup_times: list[float] = []
        plain = execute(workload, seed, ops, passes, work, None,
                        setup_sampler(workload, seed, setup_times))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        traced_ex = None
        if traced:
            spans = WORK_DIR / f"spans-{workload}-{seed}.ndjson"
            spans.unlink(missing_ok=True)
            traced_ex = execute(workload, seed, ops, passes, work, spans)
        calib += [calibrate(), calibrate()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if plain.wrappers:
        raise BenchError(f"untraced run had tracer wrappers installed: {sorted(plain.wrappers)}")
    misses = check_ops(plain, expected)
    attempted = len(plain.ops)
    if traced_ex is not None:
        misses += check_ops(traced_ex, expected)
        attempted += len(traced_ex.ops)
    failed = len(misses)
    times = [(name, secs) for name, secs, _, _ in plain.ops]
    tail, tail_note = op_tail(times)
    e2e = {
        "wall_s": plain.wall_s,
        "op_p50_s": statistics.median(s for _, s in times),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib,
    }
    calib_s = statistics.median(calib)
    result = {
        "workload": workload,
        "seconds": seconds,
        "passes": passes,
        "traced": traced,
        "correct": not any(status == reference.WRONG for _, status, _ in misses),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "op_tail_note": tail_note,
        "metrics": e2e,
        "host": {"calib_s": calib_s, **provenance(seed)},
        "misses": [{"name": n, "status": s, "reason": r} for n, s, r in misses],
        "op_s": [[name, secs] for name, secs in times],
    }
    if traced_ex is not None:
        result["per_layer"] = layer_metrics(traced_ex, workload, plain.wall_s, calib_s)
    return result


def print_block(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['host']['seed']}  passes {result['passes']}  "
          f"ops {len(result['op_s'])}")
    for name, unit in REPORTED.items():
        note = f"  ({result['op_tail_note']})" if name == "op_tail_s" else ""
        print(f"  {name:<14} {result['metrics'][name]:.6g} {unit}{note}")
    print(f"  {'fail_ratio':<14} {result['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for miss in result["misses"]:
        print(f"    failed {miss['name']}: {miss['reason']}")
    host = result["host"]
    print(f"  {'host.calib_s':<14} {host['calib_s']:.6g} s")
    print(f"  provenance: python {host['python']}, nproc {host['nproc']}, "
          f"mem {host['mem_mib']} MiB, git {host['git_sha']}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<52} {value:.6g} {PER_LAYER[name]}")


def result_line(result: dict) -> str:
    if "per_layer" in result:
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": result["metrics"][n], "unit": u} for n, u in END_TO_END.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- compare -------------------------------------------------------------------


def _spread(values: list[float]) -> float:
    """Interquartile range over median; 0 for fewer than two values or a
    zero median (a count that never moved)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> tuple:
    """(base median, new median, relative delta, spread, verdict) for one
    metric; `base` and `new` map seed -> value."""
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    sign = 1 if better == "lower" else -1
    delta = (mn - mb) / mb if mb else 0.0
    spread = max(_spread(b), _spread(n))

    def wins(x, y):
        return sign * (x - y) < 0

    if spread > bound:
        every = all(wins(x, y) for x in n for y in b)
        return mb, mn, delta, spread, "better" if every else "unresolved"
    if sign * delta > bound:
        return mb, mn, delta, spread, "worse"
    seeds = sorted(set(base) & set(new))
    pairs = [(new[s], base[s]) for s in seeds] or [(x, y) for x in n for y in b]
    won = sum(1 for x, y in pairs if wins(x, y))
    if -sign * delta > _spread(b) and won >= 0.9 * len(pairs):
        return mb, mn, delta, spread, "better"
    return mb, mn, delta, spread, "within bound"


def _read_records(path: str) -> dict[str, dict[int, dict]]:
    grouped: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                grouped.setdefault(rec["workload"], {})[rec["host"]["seed"]] = rec
    return grouped


def compare(base_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = _read_records(base_path), _read_records(new_path)
    print(f"{'workload':<11} {'metric':<13} {'base':>10} {'new':>10} {'delta':>8} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for workload in workloads.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        lengths = {r["seconds"] for r in [*base[workload].values(), *new[workload].values()]}
        if len(lengths) > 1:
            print(f"{workload:<11} warning: runs of different --seconds {sorted(lengths)}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        rows = [(name, "lower", bounds.get(name, UNBOUNDED_DEFAULT)) for name in REPORTED]
        rows.append(("fail_ratio", "lower", 0.0))
        for name, better, bound in rows:
            def pick(recs):
                return {s: (r["fail_ratio"] if name == "fail_ratio" else r["metrics"][name])
                        for s, r in recs.items()}
            mb, mn, delta, spread, word = verdict(pick(base[workload]), pick(new[workload]),
                                                  better, bound)
            print(f"{workload:<11} {name:<13} {mb:>10.4g} {mn:>10.4g} {delta:>+8.1%} "
                  f"{bound:>6.2f} {spread:>7.1%}  {word}")
        cal_b = statistics.median(r["host"]["calib_s"] for r in base[workload].values())
        cal_n = statistics.median(r["host"]["calib_s"] for r in new[workload].values())
        print(f"{workload:<11} {'host.calib_s':<13} {cal_b:>10.4g} {cal_n:>10.4g} "
              f"{(cal_n - cal_b) / cal_b:>+8.1%}  (host drift, not a verdict)")
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each result with provenance to this NDJSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --record files")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "matfan" / "__init__.py").is_file():
        print(f"error: no matfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    if args.workload == "all":
        # One fresh parent per workload, so that peak RSS over child
        # processes covers that workload alone.
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 *(["--record", args.record] if args.record else [])]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_block(result)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

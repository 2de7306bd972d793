"""Benchmark worker: one fresh interpreter per pass, set-up sample or
traced cold operation.  ``run.py`` starts it; it is not meant to be run
by hand.

    worker.py setup --workload W --seed S
        import matfan and build the workload's inputs, then exit
        (timed from outside for ``setup_s``).
    worker.py pass --workload W --seed S --spawned-at NS --out FILE
                   [--spans FILE] [--only NAME ...]
        run one pass of an in-process workload (corpus, lattice) and write
        per-operation times and reports to FILE; with --spans, trace it.
    worker.py cold DOC --spawned-at NS --out FILE --spans FILE
        a traced ``matfan check DOC --timings`` in this fresh interpreter.

Every result carries ``wrappers``: the tracer wrappers installed while
the operations ran, which must be empty for an untraced pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads  # perfbench/ is on sys.path as the script's directory
from matfan import cli, corpus, schema, validation

# Interpreter start and `import matfan` end here.
IMPORTED_NS = time.monotonic_ns()


def _load(name: str, doc):
    return corpus.build(name) if doc is None else schema.load_matroid(doc)


def _summary(report: dict) -> dict:
    keep = ("mu", "pass", "failures", "error", "timings_ns")
    return {k: report[k] for k in keep if k in report}


def _exit_code(result) -> int:
    if result.internal_error:
        return cli.INTERNAL
    return cli.PASS if result.ok else cli.FAIL


def cmd_setup(args) -> int:
    for name, doc in workloads.operations(args.workload, args.seed):
        _load(name, doc)
    return 0


def cmd_pass(args) -> int:
    ops = workloads.operations(args.workload, args.seed)
    if args.workload == "corpus" and tuple(corpus.CORPUS_NAMES) != workloads.CORPUS_NAMES:
        print("error: matfan.corpus.CORPUS_NAMES no longer matches the benchmark's list",
              file=sys.stderr)
        return 2
    if args.only:
        ops = [(name, doc) for name, doc in ops if name in args.only]
    # corpus runs as `matfan corpus --seed S`; the generated workloads give
    # matfan only their documents, so run_check keeps its default seed.
    seed = args.seed if args.workload == "corpus" else 0
    tracer = None
    if args.spans:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    def op(name, doc):
        return validation.run_check(_load(name, doc), seed=seed, timings=tracer is not None)

    clock = time.perf_counter_ns
    records = []
    for name, doc in ops:
        start = clock()
        if tracer is None:
            result = op(name, doc)
        else:
            tracer.op = name
            result = tracer.frame("bench.op", op, name, doc)
        end = clock()
        records.append((name, start, end, result))
    wrappers = _installed()
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.spans)
    out = {
        "startup_ns": IMPORTED_NS - args.spawned_at,
        "wall_ns": records[-1][2] - records[0][1] if records else 0,
        "ops": [{"name": name, "ns": end - start, "exit": _exit_code(result),
                 "report": _summary(result.report)}
                for name, start, end, result in records],
        "wrappers": wrappers,
        "trace": tracer.summary() if tracer else None,
    }
    out["done_ns"] = time.monotonic_ns()
    _write(args.out, out)
    return 0


def cmd_cold(args) -> int:
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = args.doc
    started = time.monotonic_ns()
    code = tracer.frame("cli.main", cli.main, ["check", args.doc, "--timings"])
    finished = time.monotonic_ns()
    sys.stdout.flush()
    wrappers = _installed()
    tracer.uninstall()
    tracer.write_spans(args.spans)
    out = {
        "startup_ns": IMPORTED_NS - args.spawned_at,
        "main_ns": finished - started,
        "wrappers": wrappers,
        "trace": tracer.summary(),
    }
    out["done_ns"] = time.monotonic_ns()
    _write(args.out, out)
    return code


def _installed() -> list[str]:
    from layertrace import installed

    return installed()


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True, choices=("corpus", "lattice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--only", action="append",
                   help="run only the named operations (self-tests)")
    p.set_defaults(func=cmd_pass)
    p = sub.add_parser("cold")
    p.add_argument("doc")
    p.add_argument("--spawned-at", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=cmd_cold)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

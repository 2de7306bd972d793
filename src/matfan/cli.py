"""Command-line surface.

Subcommands: ``charpoly`` and ``mu`` for the polynomial invariants of a
single matroid, ``fan`` to export its weighted fan, ``check`` to run the
full cross-validation harness on one input, and ``corpus`` to run it
over every built-in matroid.  Files and built-ins alike load through
schema.load_matroid; the fan export and the trace rows are shaped here,
at their one call site.

Exit codes: 0 all passed, 1 a check or cross-method comparison failed,
2 bad input, 3 an internal invariant broke mid-pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import corpus
from .fan import bergman_weight
from .schema import InputError, dump_json, load_matroid_file
from .validation import (MU_METHODS, charpoly_report, mu_report, refuse_rank_zero,
                         run_check, too_many_cones)

PASS, FAIL, BAD_INPUT, INTERNAL = 0, 1, 2, 3


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_charpoly(args) -> int:
    matroid = load_matroid_file(args.file)
    sys.stdout.write(dump_json(charpoly_report(matroid)))
    return PASS


def cmd_mu(args) -> int:
    matroid = load_matroid_file(args.file)
    report = mu_report(matroid, args.method)
    sys.stdout.write(dump_json(report))
    computed = [tuple(v) for v in report["mu"].values() if v is not None]
    if any(v != computed[0] for v in computed):
        return FAIL
    return PASS


def cmd_fan(args) -> int:
    matroid = load_matroid_file(args.file)
    if matroid.loops():
        raise InputError(
            f"{matroid.name} has loops and no fan; simplify the input first"
        )
    refusal = too_many_cones(matroid)
    if refusal:
        raise InputError(refusal)
    # Open the output after every refusal, which leaves an existing file as
    # it was, and before the build, so that an unwritable path fails first.
    out = nullcontext(sys.stdout) if args.out == "-" else _open_output(args.out)
    with out as fh:
        weight = bergman_weight(matroid)
        fh.write(dump_json({
            "n": weight.n,
            "codim": weight.codim,
            "cones": [{"flag": list(flag), "weight": value} for flag, value in weight.items()],
        }))
    return PASS


def cmd_check(args) -> int:
    matroid = load_matroid_file(args.file)
    # Refuse the input before opening the trace, so that a refusal leaves
    # an existing trace file as it was.
    refuse_rank_zero(matroid)
    trace_fh = None
    trace = None
    if args.trace:
        trace_fh = _open_output(args.trace)

        def trace(k: int, term) -> None:
            row = {
                "k": k,
                "sigma": list(term.sigma),
                "tau": list(term.tau),
                "point": [str(c) for c in term.point],
                "index": term.index,
            }
            trace_fh.write(json.dumps(row) + "\n")

    try:
        result = run_check(matroid, timings=args.timings, trace=trace)
    finally:
        if trace_fh:
            trace_fh.close()
    sys.stdout.write(dump_json(result.report))
    if result.internal_error:
        return INTERNAL
    return PASS if result.ok else FAIL


def _format_table(results) -> str:
    rows = [("name", "size", "rank", "mu", "agree", "logc", "bal", "trunc", "wm", "result")]
    for res in results:
        rep = res.report
        if res.internal_error:
            rows.append((rep["name"], str(rep.get("size", "?")), "-", "-", "-", "-",
                         "-", "-", "-", "ERROR"))
            continue
        mu = " ".join(str(x) for x in rep["mu"]["mobius"])
        trunc = rep["truncation_identity"]
        rows.append((
            rep["name"],
            str(rep["size"]),
            str(rep["rank"]),
            mu,
            "yes" if rep["agreement"] else "NO",
            "yes" if rep["log_concave"] else "NO",
            str(len(rep["balancing_violations"])),
            "-" if trunc is None else ("yes" if trunc else "NO"),
            "yes" if rep["welsh_mason"] else "NO",
            "PASS" if rep["pass"] else "FAIL",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} corpus entries passed")
    return "\n".join(lines) + "\n"


def cmd_corpus(args) -> int:
    results = [run_check(corpus.build(name)) for name in corpus.CORPUS_NAMES]
    if args.json:
        doc = {
            "entries": [r.report for r in results],
            "pass": all(r.ok for r in results),
        }
        sys.stdout.write(dump_json(doc))
    else:
        sys.stdout.write(_format_table(results))
    if any(r.internal_error for r in results):
        return INTERNAL
    return PASS if all(r.ok for r in results) else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matfan",
        description="Matroid fans, characteristic polynomials, and their "
                    "cross-validated intersection numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial and coefficients")
    p.add_argument("file", help="matroid JSON file")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("mu", help="reduced-coefficient vector by chosen method")
    p.add_argument("file", help="matroid JSON file")
    p.add_argument("--method", default="all",
                   choices=MU_METHODS + ("all",))
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("fan", help="export the weighted fan as JSON")
    p.add_argument("file", help="matroid JSON file")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("check", help="full cross-validation of one matroid")
    p.add_argument("file", help="matroid JSON file")
    p.add_argument("--timings", action="store_true",
                   help="include per-phase timings (breaks byte-for-byte "
                        "report stability)")
    p.add_argument("--trace", help="write contributing pairing terms as "
                                   "newline-delimited JSON to this file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corpus", help="run the harness over every built-in matroid")
    p.add_argument("--json", action="store_true", help="full JSON instead of a table")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

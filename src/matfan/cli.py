"""Command-line surface.

Subcommands: ``charpoly`` and ``mu`` for the polynomial invariants of a
single matroid, ``fan`` to export its weighted fan, ``check`` to run the
full cross-validation harness on one input, and ``corpus`` to run it
over every built-in matroid.  Files and built-ins alike load through
schema.load_matroid; the fan export and the trace rows are shaped here,
at their one call site.  Commands return their stdout text for main to
write; that write, the help, --out and --trace all go through _output,
so a failed write exits 2.

Exit codes: 0 all passed, 1 a check or cross-method comparison failed,
2 bad input or unwritable output, 3 an internal invariant broke mid-pipeline.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from . import corpus
from .fan import bergman_weight
from .schema import InputError, dump_json, load_matroid_file
from .validation import (MU_METHODS, charpoly_report, mu_report, out_of_reach,
                         refuse_rank_zero, run_check)

PASS, FAIL, BAD_INPUT, INTERNAL = 0, 1, 2, 3


@contextmanager
def _output(path: str):
    """Open path for writing, or stdout for "-"; a failure to open, write,
    flush or close it, or text stdout's encoding cannot represent, is bad output."""
    try:
        if path == "-":
            if sys.stdout is None:  # fd 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
    except (OSError, UnicodeEncodeError) as exc:
        if path == "-" and sys.stdout is not None:  # so the flush at exit cannot exit 120
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InputError(f"cannot write {'stdout' if path == '-' else path}: {exc}") from None


def cmd_charpoly(args) -> tuple[int, str]:
    matroid = load_matroid_file(args.file)
    return PASS, dump_json(charpoly_report(matroid))


def cmd_mu(args) -> tuple[int, str]:
    matroid = load_matroid_file(args.file)
    report = mu_report(matroid, args.method)
    agree = len({tuple(v) for v in report["mu"].values() if v is not None}) == 1
    return PASS if agree else FAIL, dump_json(report)


def cmd_fan(args) -> tuple[int, str]:
    matroid = load_matroid_file(args.file)
    if matroid.loops():
        raise InputError(f"{matroid.name} has loops and no fan; simplify the input first")
    refusal = out_of_reach(matroid).get("divisor")
    if refusal:
        raise InputError(refusal)
    # Open the output after every refusal, which leaves an existing file as
    # it was, and before the build, so that an unwritable path fails first.
    with _output(args.out) as fh:
        weight = bergman_weight(matroid)
        fh.write(dump_json({
            "n": weight.n,
            "codim": weight.codim,
            "cones": [{"flag": list(flag), "weight": w}
                      for flag, w in sorted(weight.weights.items())],
        }))
    return PASS, ""


def cmd_check(args) -> tuple[int, str]:
    matroid = load_matroid_file(args.file)
    # Refuse the input before opening the trace, so that a refusal leaves
    # an existing trace file as it was.
    refuse_rank_zero(matroid)
    trace = None
    rows: list[str] = []
    # Rows for "-" leave ahead of the report in main's one write to stdout.
    to_file = args.trace and args.trace != "-"
    with _output(args.trace) if to_file else nullcontext() as trace_fh:
        if args.trace:
            def trace(k: int, term) -> None:
                row = {"k": k, "sigma": list(term.sigma), "tau": list(term.tau),
                       "point": [str(c) for c in term.point]}
                rows.append(json.dumps(row) + "\n")

        try:
            result = run_check(matroid, timings=args.timings, trace=trace)
        finally:
            # Written after the run, so that a failed write exits 2 and is no
            # error inside run_check; a trace has one row per displacement
            # term, sum(mu) rows in all.
            if trace_fh:
                trace_fh.writelines(rows)
    code = INTERNAL if result.internal_error else PASS if result.ok else FAIL
    report = dump_json(result.report)
    return code, "".join(rows) + report if args.trace == "-" else report


def _format_table(results) -> str:
    header = ("name", "size", "rank", "mu", "agree", "logc", "trunc", "wm", "result")
    rows = [header]
    for res in results:
        rep = res.report
        if res.internal_error:
            rows.append((rep["name"], str(rep.get("size", "?")))
                        + ("-",) * (len(header) - 3) + ("ERROR",))
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
            "-" if trunc is None else ("yes" if trunc else "NO"),
            "yes" if rep["welsh_mason"] else "NO",
            "PASS" if rep["pass"] else "FAIL",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} corpus entries passed")
    return "\n".join(lines) + "\n"


def cmd_corpus(args) -> tuple[int, str]:
    results = [run_check(corpus.build(name)) for name in corpus.CORPUS_NAMES]
    passed = all(r.ok for r in results)
    if args.json:
        text = dump_json({"entries": [r.report for r in results], "pass": passed})
    else:
        text = _format_table(results)
    code = INTERNAL if any(r.internal_error for r in results) else PASS if passed else FAIL
    return code, text


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse would drop a failed write and exit 0
        with _output("-") as out:
            out.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        code, text = args.func(args)
        with _output("-") as out:
            out.write(text)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT

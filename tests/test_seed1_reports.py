"""Golden reports for the benchmark's seed-1 documents.

tests/golden/seed1/inputs/ holds the 13 ``near-limit`` and 20 ``lattice``
documents that perfbench/workloads.py generates under seed 1, written
out once so that a change to the generator does not move them, plus
u(4,9) and u(5,9).  For each document the directory pins the report of
``matfan check --trace`` (``<name>_check.json``), the trace itself for
the 15 documents that run the displacement route
(``<name>_check.ndjson``), and ``matfan mu --method all``
(``<name>_mu_all.json``).  The tests run the CLI in process and compare
bytes.

After a change that alters these reports on purpose, rewrite the pinned
outputs from the committed inputs with

    PYTHONPATH=src python3 tests/test_seed1_reports.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from matfan import cli

SEED1 = Path(__file__).parent / "golden" / "seed1"
NAMES = sorted(path.stem for path in (SEED1 / "inputs").glob("*.json"))


def run(*argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def reports(name: str, scratch: Path) -> dict[str, bytes]:
    """The pinned outputs of one document, keyed by file name; an empty
    trace is not pinned."""
    doc = str(SEED1 / "inputs" / f"{name}.json")
    trace = scratch / f"{name}.ndjson"
    check_code, check = run("check", doc, "--trace", str(trace))
    mu_code, mu = run("mu", doc, "--method", "all")
    assert check_code == mu_code == 0, (name, check_code, mu_code)
    out = {f"{name}_check.json": check, f"{name}_mu_all.json": mu}
    if trace.read_bytes():
        out[f"{name}_check.ndjson"] = trace.read_bytes()
    return out


def pinned(name: str) -> set[str]:
    return {path.name for path in SEED1.glob(f"{name}_*")}


def test_every_document_is_pinned():
    assert len(NAMES) == 35
    assert sum(len(pinned(name)) for name in NAMES) == 2 * 35 + 15


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_golden_files(name, tmp_path):
    produced = reports(name, tmp_path)
    assert set(produced) == pinned(name), name
    for file, content in produced.items():
        assert content == (SEED1 / file).read_bytes(), f"{name}: {file} differs"


if __name__ == "__main__":
    for name in NAMES:
        for stale in pinned(name):
            (SEED1 / stale).unlink()
    with tempfile.TemporaryDirectory() as scratch:
        for name in NAMES:
            for file, content in reports(name, Path(scratch)).items():
                (SEED1 / file).write_bytes(content)

"""Every name that a module of the package, or any module under tests/,
imports is used in that module.

Stdlib only, with no linter: each module is parsed with ast.  An imported
name counts as used when the module reads it (as a bare name or as the
root of an attribute chain), names it in a string annotation, or lists it
in __all__.  A `from __future__` import is a directive, not a name.
"""

import ast
from pathlib import Path

import pytest

import matfan

MODULES = sorted(Path(matfan.__file__).parent.glob("*.py"))
# Every module under tests/: the test modules, the helpers they share,
# and the scripts, which pytest imports but does not collect.
TEST_MODULES = sorted(Path(__file__).parent.glob("**/*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return used


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "matroid.py", "masks.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_an_unused_import_is_caught():
    tree = ast.parse("from collections.abc import Iterable, Iterator\n"
                     "import os.path\n"
                     "def f(x: 'Iterator[int]') -> None: ...\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["Iterable", "os"]

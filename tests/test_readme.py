"""README's "Library use" section runs as written and names only what the
package has, and its command synopses list what the parser takes."""

import argparse
import re
from pathlib import Path

import matfan
from matfan import cli
from matfan.matroid import Matroid

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use():
    """The section's one Python block and the paragraph after it."""
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block, rest = section.split("```python\n", 1)[1].split("```\n", 1)
    return block, rest.strip().split("\n\n", 1)[0]


def test_library_use_block_prints_what_its_comments_say():
    block, _ = library_use()
    namespace = {}
    checked = 0
    for statement in re.split(r"\n(?=\S)", block.strip()):
        if "  # " not in statement:
            exec(statement, namespace)
            continue
        expr, comment = (part.strip() for part in statement.split("  # ", 1))
        assert comment.startswith(repr(eval(expr, namespace))), statement
        checked += 1
    assert checked >= 5


def test_library_use_names_exist():
    _, paragraph = library_use()
    methods, _, rest = paragraph.partition(";")
    assert methods.startswith("Matroids expose")
    method_names = re.findall(r"`(\w+)`", methods)
    function_names = re.findall(r"`(\w+)`", rest)
    assert "rank" in method_names and "degree_pairing" in function_names
    assert [m for m in method_names if not hasattr(Matroid, m)] == []
    assert [f for f in function_names if f not in matfan.__all__] == []


def test_command_synopses_follow_the_parser():
    readme = README.read_text(encoding="utf-8")
    headings = dict(re.findall(r"^### `matfan (\w+)(.*)`$", readme, re.MULTILINE))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(headings) == sorted(subparsers)
    alternatives_checked = []
    for cmd, synopsis in headings.items():
        options = {opt: action for action in subparsers[cmd]._actions
                   for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        assert re.findall(r"--[\w-]+", synopsis) == list(options), cmd
        for opt, alternatives in re.findall(r"(--[\w-]+) (\w+(?:\|\w+)+)", synopsis):
            assert alternatives.split("|") == list(options[opt].choices), (cmd, opt)
            alternatives_checked.append((cmd, opt))
    assert alternatives_checked == [("mu", "--method")]

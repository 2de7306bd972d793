"""JSON input documents: the one way a matroid enters the pipeline.

Matroid input documents look like

    {"name": "k4", "type": "graphic", "vertices": 4, "edges": [[0,1], ...]}

with one payload shape per type; see ``load_matroid``.  User files and
the built-in corpus both load through it.  All malformed input is
reported as InputError so the command line can exit with the dedicated
input-error status instead of a traceback.  This module knows nothing
of fans or intersections; ``dump_json`` is its one output helper.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .masks import EXHAUSTIVE_SCAN_LIMIT
from .matroid import (
    BasesMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    RankTableMatroid,
    UniformMatroid,
    validate_rank_table,
)

MATROID_TYPES = ("uniform", "free", "graphic", "linear", "bases", "rank_table")

_GF_RE = re.compile(r"GF\(([0-9]+)\)")
# "a/b" or an integer.  Fraction alone would also take decimals and
# exponents, and build a billion-digit integer from "1e999999999".
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


class InputError(Exception):
    """Malformed or invalid input document."""


def _is_int(value: Any) -> bool:
    # bool is an int subclass; a true/false rank would be nonsense
    return isinstance(value, int) and not isinstance(value, bool)


def _require(data: dict, key: str, kind) -> Any:
    if key not in data:
        raise InputError(f"missing required field {key!r}")
    value = data[key]
    if kind is int:
        if not _is_int(value):
            raise InputError(f"field {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise InputError(f"field {key!r} must be {kind.__name__}")
    return value


def _int_list(data: dict, key: str) -> list[int]:
    """The document's own list, checked in place; the matroid copies it."""
    raw = _require(data, key, list)
    if not all(_is_int(x) for x in raw):
        raise InputError(f"field {key!r} must contain only integers")
    return raw


def _parse_entry(value, field: int | None):
    if isinstance(value, bool):
        raise InputError("matrix entries must be numbers")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and field is None:
        if not _RATIONAL_RE.fullmatch(value):
            raise InputError(f"bad rational entry {value!r}: use \"a/b\" or an integer")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational entry {value!r}: {exc}") from None
    raise InputError(f"bad matrix entry {value!r}")


def load_matroid(data: Any) -> Matroid:
    """Build a matroid from a parsed JSON document.

    Rank-table and bases inputs are checked exactly against the rank
    axioms before use, so they may have at most 21 elements, and are
    rejected with the witnessing subset(s) on failure.
    """
    if not isinstance(data, dict):
        raise InputError("matroid document must be a JSON object")
    kind = _require(data, "type", str)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("field 'name' must be a string")
    try:
        if kind == "uniform":
            return UniformMatroid(_require(data, "rank", int),
                                  _require(data, "size", int), name)
        if kind == "free":
            return FreeMatroid(_require(data, "size", int), name)
        if kind == "graphic":
            vertices = _require(data, "vertices", int)
            raw_edges = _require(data, "edges", list)
            edges = []
            for e in raw_edges:
                if not isinstance(e, list) or len(e) != 2:
                    raise InputError(f"edge {e!r} is not a pair")
                if not all(_is_int(x) for x in e):
                    raise InputError(f"edge {e!r} must have integer endpoints")
                edges.append((e[0], e[1]))
            return GraphicMatroid(vertices, edges, name)
        if kind == "linear":
            label = _require(data, "field", str)
            if label == "Q":
                field = None
            else:
                m = _GF_RE.fullmatch(label)
                if not m:
                    raise InputError(f"unknown field {label!r}; use \"Q\" or \"GF(p)\"")
                field = int(m.group(1))
            matrix = _require(data, "matrix", list)
            if not all(isinstance(row, list) for row in matrix):
                raise InputError("field 'matrix' must be a list of rows")
            parsed = [[_parse_entry(x, field) for x in row] for row in matrix]
            return LinearMatroid(parsed, field, name)
        if kind == "bases":
            matroid = BasesMatroid(_require(data, "n", int),
                                   _int_list(data, "bases"), name)
            witness = validate_rank_table(matroid.size, matroid.ranks)
            if witness is not None:
                raise InputError(f"bases fail basis exchange; their rank function "
                                 f"violates the rank axioms: {witness}")
            return matroid
        if kind == "rank_table":
            size = _require(data, "n", int)
            if not 1 <= size <= EXHAUSTIVE_SCAN_LIMIT:
                raise InputError(f"rank table n={size} is outside 1..{EXHAUSTIVE_SCAN_LIMIT}: "
                                 f"tables are checked over every subset, which caps "
                                 f"them at {EXHAUSTIVE_SCAN_LIMIT} elements")
            ranks = _int_list(data, "ranks")
            witness = validate_rank_table(size, ranks)
            if witness is not None:
                raise InputError(f"rank table violates the rank axioms: {witness}")
            return RankTableMatroid(size, ranks, name)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    raise InputError(f"unknown matroid type {kind!r}; expected one of {MATROID_TYPES}")


def load_matroid_file(path: str) -> Matroid:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals longer than the interpreter's digit limit; RecursionError,
        # nesting deeper than its recursion limit.
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return load_matroid(data)


def dump_json(data: Any) -> str:
    """Stable human-readable rendering; key order is insertion order."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"

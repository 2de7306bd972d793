"""The record classes of fan, intersect and validation, and the divisor
table of the test oracles, keep their constructor forms, equality,
immutability and repr, and importing the package loads no introspection
machinery to declare them, nor `concurrent.futures`: the package starts
no process."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import matfan
from matfan.fan import MinkowskiWeight, SizeGradedFlags, permutohedral_weight
from matfan.intersect import PairingTerm
from matfan.matroid import UniformMatroid
from matfan.validation import CheckResult

from oracles import PLDivisor


def test_import_loads_no_introspection_modules():
    src = str(Path(matfan.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, matfan, matfan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'concurrent.futures'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"


def test_constructor_forms():
    flags = {(0b010,): 1, (0b100,): 2}
    assert MinkowskiWeight(2, 1, flags) == MinkowskiWeight(n=2, codim=1, weights=flags)
    assert SizeGradedFlags(3, 1) == SizeGradedFlags(n=3, k=1)
    assert PLDivisor(2, {0b010: 3}) == PLDivisor(n=2, ray_values={0b010: 3})
    point = (Fraction(1), Fraction(5, 3))
    term = PairingTerm((2,), (3,), point)
    assert (term.sigma, term.tau, term.point) == ((2,), (3,), point)
    assert term == PairingTerm(sigma=(2,), tau=(3,), point=point)
    assert PairingTerm._fields == ("sigma", "tau", "point")
    result = CheckResult({"pass": False}, ok=False)
    assert result.internal_error is None
    failed = CheckResult({"error": "boom"}, ok=False, internal_error="boom")
    assert (failed.report, failed.ok, failed.internal_error) == ({"error": "boom"}, False, "boom")


def test_minkowski_weight_equality():
    a = MinkowskiWeight(2, 1, {(1,): 1, (2,): 1})
    assert a == MinkowskiWeight(2, 1, {(2,): 1, (1,): 1, (4,): 0})
    assert a != MinkowskiWeight(2, 1, {(1,): 1, (2,): 2})
    assert MinkowskiWeight(2, 2, {(): 1}) != MinkowskiWeight(3, 3, {(): 1})
    assert a != (2, 1, a.weights)
    assert permutohedral_weight(3, 1) == permutohedral_weight(3, 1)
    assert permutohedral_weight(3, 1) != permutohedral_weight(3, 2)
    # A rule-given table equals the dict of the same cones.
    listed = dict(permutohedral_weight(3, 1).weights)
    assert permutohedral_weight(3, 1) == MinkowskiWeight(3, 1, listed)
    assert PLDivisor(2, {1: 1}) != PLDivisor(3, {1: 1})


@pytest.mark.parametrize("record, field", [
    (permutohedral_weight(3, 1), "weights"),
    (MinkowskiWeight(2, 1, {(1,): 1}), "n"),
    (SizeGradedFlags(3, 1), "k"),
    (PLDivisor(2, {1: 1}), "ray_values"),
    (PairingTerm((2,), (3,), (Fraction(1),)), "point"),
    (CheckResult({}, ok=True), "ok"),
])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", [
    MinkowskiWeight(2, 1, {(1,): 1}), SizeGradedFlags(3, 1), PLDivisor(2, {}),
])
def test_mutable_valued_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_equal_value_records_hash_equal():
    a = PairingTerm((2,), (3,), (Fraction(1), Fraction(5, 3)))
    b = PairingTerm((2,), (3,), (Fraction(1), Fraction(5, 3)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_reprs_are_unchanged():
    assert repr(SizeGradedFlags(3, 1)) == "SizeGradedFlags(n=3, k=1)"
    with pytest.raises(ValueError, match=r"^SizeGradedFlags\(n=3, k=1\) does not fit n=3, codim=2$"):
        MinkowskiWeight(3, 2, SizeGradedFlags(3, 1))
    assert repr(permutohedral_weight(3, 1)) == "MinkowskiWeight(n=3, codim=1, cones=12)"
    assert repr(PLDivisor(2, {1: -1})) == "PLDivisor(n=2, ray_values={1: -1})"
    assert (repr(PairingTerm((2,), (3,), (Fraction(1),)))
            == "PairingTerm(sigma=(2,), tau=(3,), point=(Fraction(1, 1),))")
    assert (repr(CheckResult({}, ok=True))
            == "CheckResult(report={}, ok=True, internal_error=None)")
    assert repr(UniformMatroid(2, 3)) == "<UniformMatroid 'uniform(2,3)' size=3>"


def test_a_weight_repr_counts_cones_past_sys_maxsize():
    # 21! cones, more than len() can return.
    assert (repr(permutohedral_weight(20, 0))
            == "MinkowskiWeight(n=20, codim=0, cones=51090942171709440000)")

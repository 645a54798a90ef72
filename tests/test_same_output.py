"""tools/same_output.py: its command names, and its comparison."""

import importlib.util
import json
import math
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_output", _ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_output)


def test_names_are_unique():
    assert len({name for name, _ in same_output.COMMANDS}) == len(same_output.COMMANDS)


def _outputs(stdout: bytes, file: bytes) -> dict:
    return {"exit": b"0", "stdout": stdout, "stderr": b"", "file k1.csv": file}


_DOC = json.dumps({"reports": [{"lhs": 0.1, "pass": True}], "all_pass": True}).encode()
_CSV = b"beta,K,argmax_lambda\n0.01,1.6984144406417658,0.011474050700867473\n"


@pytest.mark.parametrize("moved", ["stdout", "file k1.csv"])
def test_a_last_bit_difference_exits_1_and_names_the_command(moved, capsys):
    parent = {"a": _outputs(_DOC, _CSV), "b": _outputs(_DOC, _CSV)}
    change = {"a": _outputs(_DOC, _CSV), "b": dict(parent["b"])}
    text = parent["b"][moved]
    last = max(i for i, byte in enumerate(text) if chr(byte).isdigit())
    change["b"][moved] = text[:last] + bytes([text[last] ^ 1]) + text[last + 1:]  # the last digit's lowest bit
    assert same_output.compare(parent, change, expect_moved=()) == 1
    out = capsys.readouterr().out
    assert "a: same" in out and f"b: differs in {moved}\n" in out
    assert same_output.compare(parent, change, expect_moved=("b",)) == 0
    assert "(expected)" in capsys.readouterr().out


def test_moved_documents_report_each_fields_largest_relative_change():
    old = json.dumps({"version": "0.1.0", "reports": [{"lhs": 0.1, "seed": 0}, {"lhs": 2.0, "seed": 1}]}).encode()
    new = json.dumps({"version": "0.1.0",
                      "reports": [{"lhs": math.nextafter(0.1, 1.0), "seed": 0}, {"lhs": 2.5, "seed": 1}]}).encode()
    assert same_output.relative_changes(old, new) == {"reports[].lhs": 0.2, "reports[].seed": 0.0}
    csv_new = _CSV.replace(b"1.6984144406417658", repr(math.nextafter(1.6984144406417658, 2.0)).encode())
    changes = same_output.relative_changes(_CSV, csv_new)
    assert changes["beta[]"] == changes["argmax_lambda[]"] == 0.0 and 0.0 < changes["K[]"] < 2e-16
    assert same_output.relative_changes(b"error: --d 4\n", b"error: --d 5\n") == {}


def test_added_and_removed_fields_are_named(capsys):
    # booleans and nulls have no relative change, so only their paths show a schema move
    old = json.dumps({"reports": [{"lhs": 0.1, "unit_regime": True}]}).encode()
    new = json.dumps({"reports": [{"lhs": 0.1, "lhs_upper": None, "certified": False}]}).encode()
    assert same_output.field_moves(old, new) == ["+ reports[].certified", "+ reports[].lhs_upper",
                                                 "- reports[].unit_regime"]
    assert same_output.relative_changes(old, new) == {"reports[].lhs": 0.0}
    parent, change = {"a": _outputs(old, _CSV)}, {"a": _outputs(new, _CSV)}
    assert same_output.compare(parent, change, expect_moved=("a",)) == 0
    out = capsys.readouterr().out
    assert "  stdout + reports[].lhs_upper\n" in out and "  stdout - reports[].unit_regime\n" in out
    assert same_output.field_moves(_CSV, _CSV) == [] and same_output.field_moves(b"error\n", b"error 2\n") == []

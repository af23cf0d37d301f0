import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, strategies as st

from ladderlab.fermat import ScanRow
from ladderlab.gammalab import ChainReport, LegendreReport, ShiftedReport
from ladderlab.serialize import to_json, write_json


def test_basic_values():
    assert to_json(None) == "null"
    assert to_json(True) == "true"
    assert to_json(False) == "false"
    assert to_json(42) == "42"
    assert to_json(1.5) == "1.5"
    assert to_json("hi") == '"hi"'


def test_float_precision_roundtrip():
    x = 0.1 + 0.2
    assert json.loads(to_json(x)) == x
    assert json.loads(to_json(1e308)) == 1e308
    assert json.loads(to_json(5e-324)) == 5e-324


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_float_roundtrips(x):
    assert json.loads(to_json(x)) == x


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            to_json(bad)
        with pytest.raises(ValueError):
            to_json({"x": [bad]})


def test_keys_sorted_deterministically():
    a = to_json({"b": 1, "a": 2, "c": {"z": 0, "y": 1}})
    b = to_json({"c": {"y": 1, "z": 0}, "a": 2, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_string_escaping():
    s = 'quote " backslash \\ newline \n tab \t unicode é'
    assert json.loads(to_json(s)) == s


def test_nested_structures():
    obj = {"rows": [{"v": 1.25, "s": "ok"}, {"v": None, "s": ""}], "n": 3}
    assert json.loads(to_json(obj)) == obj


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({1, 2})


def test_write_json_lf_terminated(tmp_path):
    path = os.path.join(tmp_path, "out.json")
    write_json(path, {"a": 1})
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    assert json.loads(raw) == {"a": 1}


def test_repeatable_bytes():
    obj = {"x": [1.1, 2.2, 3.3], "y": {"k": "v"}}
    assert to_json(obj) == to_json(obj)


@pytest.mark.parametrize("report", [
    ScanRow(functional="gamma", x=1, y=2, z=2, n=3, q=1.125, tau_max=None,
            value=None, target=1.125, forbidden=1.0, distance=None,
            est_error=None, status="infeasible", note="n/a"),
    ChainReport(tau=300.0, k=1, strategy="zeta-values", iterates=[300.0, 700.0],
                rung_ratios=[1.0], total_ratio=1.0, additivity_defect=0.0),
    ShiftedReport(tau=300.0, lhs_log=1.0, rhs_log=1.5, log_difference=-0.5,
                  count_in_unit=1, count_target=0.9, strategy="zeta-values"),
    LegendreReport(tau=300.0, log_lhs=1.0, log_rhs=1.5, log_difference=-0.5,
                   strategy="zeta-values", metadata={"a": 1}),
], ids=lambda r: type(r).__name__)
def test_report_json_keys_are_the_fields(report):
    text = to_json(report.to_dict()) if isinstance(report, ScanRow) else report.to_json()
    assert set(json.loads(text)) == {f.name for f in dataclasses.fields(report)}

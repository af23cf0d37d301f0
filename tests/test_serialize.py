import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab.fermat import ScanRow, scan
from ladderlab.gammalab import ChainReport, LegendreReport, ShiftedReport
from ladderlab.serialize import field_dict, to_json, write_json


def reference_to_json(obj, indent: int = 0) -> str:
    """The first, recursive emitter, kept as the reference that pins
    to_json's bytes."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float {obj} cannot be serialized")
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = ",\n".join(inner + reference_to_json(v, indent + 2) for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f'{inner}{reference_to_json(str(k))}: {reference_to_json(obj[k], indent + 2)}'
            for k in sorted(obj, key=str)
        )
        return "{\n" + rows + "\n" + pad + "}"
    raise TypeError(f"unsupported type for JSON: {type(obj)!r}")


# strings with every escaped character, and keys that share a str
_TEXT = st.text(alphabet=st.sampled_from('ab\\"\n\r\t é\x01'), max_size=6)
_LEAVES = (st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.booleans()
           | st.none() | _TEXT)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT | st.integers(-3, 3), inner, max_size=4)),
    max_leaves=30,
)


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


@given(_DOCS)
def test_matches_reference_bytes(doc):
    assert to_json(doc) == reference_to_json(doc)


def test_subclasses_match_reference_bytes():
    class Name(str):
        pass

    doc = {"x": np.float64(0.1), Name("k\t"): [np.float64(-1e300), Name('q"'), True, None],
           "n": (np.float64(5e-324),)}
    assert to_json(doc) == reference_to_json(doc)
    with pytest.raises(ValueError):
        to_json([np.float64("nan")])
    with pytest.raises(TypeError):
        to_json([np.int64(1)])


def test_matches_reference_on_a_scan_report(shared_cache):
    rep = scan(["gamma"], n=3, max_xyz=12, cache=shared_cache)
    assert rep.rows
    doc = {"functionals": list(rep.functional_ids), "n": rep.n, "max_xyz": rep.max_xyz,
           "window": rep.window, "rows": [dataclasses.asdict(r) for r in rep.rows],
           "metadata": rep.metadata}
    assert rep.to_json() == reference_to_json(doc)


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
    # the shallow field dict the reports serialize is dataclasses.asdict
    shallow = report.to_dict() if isinstance(report, ScanRow) else field_dict(report)
    assert shallow == dataclasses.asdict(report)
    assert list(shallow) == [f.name for f in dataclasses.fields(report)]
    assert text == reference_to_json(dataclasses.asdict(report))

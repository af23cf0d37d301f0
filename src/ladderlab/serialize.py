"""Deterministic JSON emission.

The stock json module renders floats with repr's shortest round trip,
which is stable but format-version dependent; reports instead pin every
float to 17 significant digits and sort all keys, so identical runs are
byte-identical files. tests/test_serialize.py keeps the first, recursive
emitter as a reference and pins these bytes to it, on generated nested
documents and on a real scan report.
"""

from __future__ import annotations

import math


def field_dict(report) -> dict:
    """The fields of a dataclass report by name, a shallow copy: equal to
    dataclasses.asdict(report) for a report whose instance attributes are
    its fields, as every report here is, without copying the lists and
    dicts it holds, which to_json only reads."""
    return dict(vars(report))


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    return format(v, ".17g")


def _fmt_str(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + s.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t") + '"'


# The rendering of each scalar type, by exact type; an instance of a
# subclass, such as numpy.float64, takes _render's isinstance tests.
_SCALARS = {
    float: _fmt_float,
    str: _fmt_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render(obj, pad: str, labels: dict) -> str:
    """obj's JSON, its nested lines indented past pad; labels maps each
    key's str to its rendering with the ": " that follows it, filled as
    keys are met."""
    fmt = _SCALARS.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for k in sorted(obj, key=str):
            name = str(k)
            label = labels.get(name)
            if label is None:
                label = labels[name] = _fmt_str(name) + ": "
            items.append(label + _render(obj[k], inner, labels))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join([_render(v, inner, labels) for v in obj])
                + "\n" + pad + "]")
    # bool and NoneType admit no subclass: what is left subclasses float, str or int
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _fmt_str(obj)
    if isinstance(obj, int):
        return str(obj)
    raise TypeError(f"unsupported type for JSON: {type(obj)!r}")


def to_json(obj) -> str:
    """obj as JSON: floats at 17 significant digits (ValueError on a
    non-finite one), dict keys sorted by their str, two-space indent per
    level; None, bools, ints, strs, lists, tuples and dicts only
    (TypeError)."""
    return _render(obj, "", {})


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_json(obj))
        fh.write("\n")

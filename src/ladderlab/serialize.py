"""Deterministic JSON emission.

The stock json module renders floats with repr's shortest round trip,
which is stable but format-version dependent; reports instead pin every
float to 17 significant digits and sort all keys, so identical runs are
byte-identical files.
"""

from __future__ import annotations

import math


def _fmt_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    return format(v, ".17g")


def to_json(obj, indent: int = 0) -> str:
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
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = ",\n".join(inner + to_json(v, indent + 2) for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f'{inner}{to_json(str(k))}: {to_json(obj[k], indent + 2)}'
            for k in sorted(obj, key=str)
        )
        return "{\n" + rows + "\n" + pad + "}"
    raise TypeError(f"unsupported type for JSON: {type(obj)!r}")


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_json(obj))
        fh.write("\n")

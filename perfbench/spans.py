"""Outside-in span tracer for the ladderlab layers.

A traced run wraps the public functions below. For a plain function,
every attribute of a loaded ``ladderlab`` module that *is* the original
object is replaced, so ``from .zeta import z_array`` bindings in other
modules are traced too and refactors that rebind imports keep working.
Methods are replaced on their class. Nothing under ``src/`` changes.

Each span is ``[name, start, end, parent, info]``; spans stay in memory
and are written out when the run ends. A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("zeta", "integral", "ladder", "fermat", "gram", "arith", "serialize")


def _units(args, kwargs, out, pre):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return float(b) - float(a)


def _z_nodes(args, kwargs, out, pre):
    # node count from the array handed to z_array, not from node_count
    t = np.asarray(args[0] if args else kwargs["t"], dtype=float)
    return (int(t.size), float(np.max(t)) if t.size else 0.0)


def _cache_len(args, kwargs):
    return len(args[0].ts)


def _extend_noop(args, kwargs, out, pre):
    return len(args[0].ts) == pre


def _saved_bytes(args, kwargs, out, pre):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _first_arg(args, kwargs, out, pre):
    return float(args[0] if args else kwargs["T"])


def _size(args, kwargs, out, pre):
    return len(out)


def _row_outcome(args, kwargs, out, pre):
    return (out.status, out.note.startswith("solver:"))


def _json_bytes(args, kwargs, out, pre):
    return len(out.encode())


# (module, attribute or Class.method, span name, pre-call probe, post-call probe)
TARGETS = (
    ("zeta", "z_array", "zeta.z_array", None, _z_nodes),
    ("integral", "integrate_segment", "integral.segment", None, _units),
    ("integral", "hl_integral", "integral.hl_integral", None, None),
    ("integral", "CheckpointCache.extend_to", "integral.extend", _cache_len, _extend_noop),
    ("integral", "CheckpointCache.nearest_below", "integral.lookup", None, None),
    ("integral", "CheckpointCache.save", "integral.save", None, _saved_bytes),
    ("integral", "CheckpointCache.load", "integral.load", None, None),
    ("ladder", "ascend", "ladder.ascend", None, _first_arg),
    ("gram", "gram_points", "gram.points", None, _size),
    ("gram", "t1_increment", "gram.t1_increment", None, None),
    ("gram", "t2_increment", "gram.t2_increment", None, None),
    ("arith", "dirichlet_D", "arith.dirichlet_D", None, None),
    ("fermat", "evaluate_equivalent", "fermat.evaluate_equivalent", None, _row_outcome),
    ("serialize", "to_json", "serialize.to_json", None, _json_bytes),
)


# Per-layer metrics in the result line of a traced run: name -> (unit, better).
# layer_metrics() also computes ladder.ascend_p50_ms/_p90_ms, ladder.self_s,
# fermat.self_s, gram.self_s, gram.points_per_s, arith.self_s and
# zeta.band_em.nodes_per_s; those are printed and written to the result
# file only, because some workload never enters them and they would read
# exactly 0 on every run of it.
PER_LAYER = {
    "zeta.calls": ("count", "lower"),
    "zeta.nodes": ("count", "lower"),
    "zeta.self_s": ("s", "lower"),
    "zeta.nodes_per_s": ("nodes/s", "higher"),
    "zeta.nodes_per_call_p50": ("count", "higher"),
    "zeta.call_p50_us": ("us", "lower"),
    "zeta.band_1e2.nodes_per_s": ("nodes/s", "higher"),
    "zeta.band_1e3.nodes_per_s": ("nodes/s", "higher"),
    "zeta.band_1e4.nodes_per_s": ("nodes/s", "higher"),
    "integral.segment_calls": ("count", "lower"),
    "integral.segment_units": ("t", "lower"),
    "integral.units_per_segment_p10": ("t", "lower"),
    "integral.units_per_segment_p50": ("t", "lower"),
    "integral.units_per_segment_p90": ("t", "lower"),
    "integral.self_s": ("s", "lower"),
    "integral.extend_calls": ("count", "lower"),
    "integral.extend_noop_calls": ("count", "lower"),
    "integral.extend_noop_s": ("s", "lower"),
    "integral.lookup_calls": ("count", "lower"),
    "integral.lookup_s": ("s", "lower"),
    "integral.hl_calls": ("count", "lower"),
    "integral.save_s": ("s", "lower"),
    "integral.load_s": ("s", "lower"),
    "integral.cache_bytes": ("B", "lower"),
    "ladder.ascend_calls": ("count", "lower"),
    "ladder.segments_per_ascend": ("count", "lower"),
    "ladder.units_per_ascend": ("t", "lower"),
    "fermat.rows": ("count", "higher"),
    "fermat.rows_resolved": ("count", "higher"),
    "fermat.rows_unresolved": ("count", "lower"),
    "fermat.rows_infeasible": ("count", "lower"),
    "fermat.rows_failed": ("count", "lower"),
    "fermat.ascent_repeat_share": ("frac", "lower"),
    "gram.points_calls": ("count", "lower"),
    "gram.points": ("count", "lower"),
    "arith.dirichlet_calls": ("count", "lower"),
    "serialize.bytes": ("B", "lower"),
    "serialize.s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.accounted_frac": ("frac", "higher"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # self-recursion (to_json) is one span
            before = pre(args, kwargs) if pre else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[4] = post(args, kwargs, out, before)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ladderlab" or n.startswith("ladderlab."))]
        for layer, attr, name, pre, post in TARGETS:
            owner = sys.modules["ladderlab." + layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, pre, post))
                else:
                    wrapped = self._wrap(name, raw, pre, post)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, pre, post)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], traced_wall: float, overhead_frac: float) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds by layer) from one traced pass.

    traced_wall is the seconds inside the traced library calls.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        layer_self[s[0].split(".")[0]] += self_t[i]

    def total(name, seq=dur):
        return sum(seq[i] for i in by_name[name])

    m = {}
    z = by_name["zeta.z_array"]
    nodes = [spans[i][4][0] for i in z]
    z_self = total("zeta.z_array", self_t)
    m["zeta.calls"] = len(z)
    m["zeta.nodes"] = sum(nodes)
    m["zeta.self_s"] = z_self
    m["zeta.nodes_per_s"] = _rate(sum(nodes), z_self)
    m["zeta.nodes_per_call_p50"] = percentile(nodes, 0.5)
    m["zeta.call_p50_us"] = percentile([dur[i] for i in z], 0.5) * 1e6
    bands = {"em": (0.0, 1e2), "1e2": (1e2, 1e3), "1e3": (1e3, 1e4), "1e4": (1e4, np.inf)}
    for band, (lo, hi) in bands.items():
        sel = [i for i in z if lo <= spans[i][4][1] < hi]
        m[f"zeta.band_{band}.nodes_per_s"] = _rate(
            sum(spans[i][4][0] for i in sel), sum(self_t[i] for i in sel))

    seg = by_name["integral.segment"]
    units = [spans[i][4] for i in seg]
    m["integral.segment_calls"] = len(seg)
    m["integral.segment_units"] = sum(units)
    m["integral.units_per_segment_p10"] = percentile(units, 0.1)
    m["integral.units_per_segment_p50"] = percentile(units, 0.5)
    m["integral.units_per_segment_p90"] = percentile(units, 0.9)
    m["integral.self_s"] = total("integral.segment", self_t)
    ext = by_name["integral.extend"]
    noop = [i for i in ext if spans[i][4]]
    m["integral.extend_calls"] = len(ext)
    m["integral.extend_noop_calls"] = len(noop)
    m["integral.extend_noop_s"] = sum(dur[i] for i in noop)
    m["integral.lookup_calls"] = len(by_name["integral.lookup"])
    m["integral.lookup_s"] = total("integral.lookup")
    m["integral.hl_calls"] = len(by_name["integral.hl_integral"])
    m["integral.save_s"] = total("integral.save")
    m["integral.load_s"] = total("integral.load")
    saves = by_name["integral.save"]
    m["integral.cache_bytes"] = spans[saves[-1]][4] if saves else 0

    asc = by_name["ladder.ascend"]
    asc_set = set(asc)
    segs_in, units_in = 0, 0.0
    for i in seg:
        p = spans[i][3]
        while p >= 0 and p not in asc_set:
            p = spans[p][3]
        if p >= 0:
            segs_in += 1
            units_in += spans[i][4]
    m["ladder.ascend_calls"] = len(asc)
    m["ladder.ascend_p50_ms"] = percentile([dur[i] for i in asc], 0.5) * 1e3
    m["ladder.ascend_p90_ms"] = percentile([dur[i] for i in asc], 0.9) * 1e3
    m["ladder.segments_per_ascend"] = _rate(segs_in, len(asc))
    m["ladder.units_per_ascend"] = _rate(units_in, len(asc))
    m["ladder.self_s"] = layer_self["ladder"]

    rows = [spans[i][4] for i in by_name["fermat.evaluate_equivalent"] if spans[i][4]]
    m["fermat.rows"] = len(rows)
    m["fermat.rows_resolved"] = sum(1 for st, _ in rows if st == "resolved")
    m["fermat.rows_unresolved"] = sum(1 for st, _ in rows if st == "unresolved at desk scale")
    m["fermat.rows_infeasible"] = sum(1 for st, _ in rows if st == "infeasible")
    m["fermat.rows_failed"] = sum(1 for _, failed in rows if failed)
    m["fermat.ascent_repeat_share"] = 1.0 - _rate(len({spans[i][4] for i in asc}), len(asc)) if asc else 0.0
    m["fermat.self_s"] = layer_self["fermat"]

    pts = [spans[i][4] for i in by_name["gram.points"]]
    m["gram.points_calls"] = len(pts)
    m["gram.points"] = sum(pts)
    m["gram.points_per_s"] = _rate(sum(pts), total("gram.points"))
    m["gram.self_s"] = layer_self["gram"]
    m["arith.dirichlet_calls"] = len(by_name["arith.dirichlet_D"])
    m["arith.self_s"] = layer_self["arith"]

    ser = by_name["serialize.to_json"]
    m["serialize.bytes"] = sum(spans[i][4] for i in ser)
    m["serialize.s"] = total("serialize.to_json")

    traced_layers = sum(layer_self[k] for k in LAYERS)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.accounted_frac"] = _rate(traced_layers, traced_wall)
    m["trace.spans"] = n
    return m, dict(layer_self)

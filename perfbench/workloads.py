"""The three benchmark workloads: inputs from a seed, set-up, one pass, gates.

Every call into the library goes through a module attribute
(``fermat.evaluate_equivalent``, ``integral.hl_integral``, ...) looked up
at call time, so a traced pass sees the tracer's wrappers.

Each timed library call is also costed in *reference units* (``ref``):
while a Meter runs, a timer signal runs a fixed reference kernel
PROBE_HZ times a second, and every stretch of a call is divided by the
kernel time sampled around it. On a shared machine whose speed drifts,
the kernel slows with the library code, so the ``ref`` cost of the same
work stays put while its seconds do not.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ladderlab import fermat, gram, integral, serialize
from ladderlab.constants import EULER_GAMMA
from ladderlab.errors import LadderLabError

# The reach scan() pre-extends its cache to: t_cap plus one bracket widening.
REACH = fermat.DEFAULT_T_CAP * (1.0 + 5.0 * (1.0 - EULER_GAMMA) / math.log(fermat.DEFAULT_T_CAP))
GAMMA_ROWS = 100          # scan-gamma rows per pass, anchors included
MIXED_MAX_XYZ = 3         # scan-mixed takes its rationals from x, y, z <= 3 ...
MIXED_RATIONALS = 10      # ... the ten nearest 1, times all ten functionals
READS = 500               # cache-build hl_integral reads per pass
RECHECK = 3               # ops re-run after timing to check byte-stable output
WARMUPS = 3               # scan set-ups per run; setup_s reports their median
PROBE_HZ = 40             # reference-kernel samples per second while metering

STATUSES = ("resolved", "unresolved at desk scale", "infeasible")

_REF_T = np.linspace(1e4, 1e4 + 50.0, 1024)


def reference_seconds() -> float:
    """One run of the reference kernel: the shape of the Riemann-Siegel
    main sum (numpy ufuncs on a 1k array inside a Python loop), written
    here so that no library change can move it."""
    t0 = time.perf_counter()
    acc = np.zeros_like(_REF_T)
    for n in range(1, 33):
        acc += np.cos(_REF_T * math.log(n)) / math.sqrt(n)
    return time.perf_counter() - t0


class Meter:
    """Times library calls and prices them in reference units.

    Inside ``with meter:`` SIGALRM samples the reference kernel every
    1/PROBE_HZ s; the handler runs between bytecodes of the main thread,
    so a sample sits wholly inside or wholly outside a call, and its own
    time is taken out of the call's seconds. Outside it (the traced pass,
    whose spans must not hold samples) the kernel runs after each call.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.calls: list[tuple[float, float]] = []   # (start, end) since take()
        self._busy = False
        self._ticking = False
        self.probe()

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probes.append((t0, reference_seconds()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / PROBE_HZ, 1.0 / PROBE_HZ)
        self._ticking = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._ticking = False
        return False

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((t0, time.perf_counter()))
        if not self._ticking:
            self.probe()
        return out

    def take(self) -> list[tuple[float, float]]:
        """(seconds, ref cost) of every call since the last take()."""
        self.probe()
        self._busy = True  # no samples while the timeline is read
        starts = [p[0] for p in self.probes]
        out = [self._price(a, b, starts) for a, b in self.calls]
        self.calls = []
        self._busy = False
        return out

    def _price(self, a, b, starts):
        k = bisect.bisect_right(starts, a) - 1  # last sample before the call
        secs = cost = 0.0
        t = a
        while True:
            nxt = starts[k + 1]  # take() sampled after every call, so this exists
            end = min(b, nxt)
            secs += end - t
            cost += (end - t) / (0.5 * (self.probes[k][1] + self.probes[k + 1][1]))
            if end == b:
                return secs, cost
            k += 1
            t = starts[k] + self.probes[k][1]  # resume after the sample


@dataclass
class Pass:
    """What one pass produced and what its parts cost."""

    report: str
    op_times: list[float]
    op_costs: list[float]
    failed: int
    wall: float = 0.0         # seconds inside library calls
    cost: float = 0.0         # the same calls in ref units
    build: tuple | None = None  # (seconds, ref cost) of the cold build
    rows: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    cache: object = None
    loaded: object = None


def _round_trip(cache, out_dir):
    """Persist the cache and read it back, as a run with HL_CACHE would."""
    fd, path = tempfile.mkstemp(prefix="cache-", suffix=".csv", dir=out_dir)
    os.close(fd)
    try:
        cache.save(path)
        return integral.CheckpointCache.load(path)
    finally:
        os.remove(path)


def _spread(pool, k):
    """k rationals evenly spaced through pool sorted by value.

    Row cost follows the rational's value, so an even spread covers the
    whole enumeration; it is the same for every seed, so seeds differ in
    row order only and the work of a pass does not move with the seed.
    """
    pool = sorted(pool, key=lambda q: (q.fraction, q.n, q.x, q.y, q.z))
    return [pool[int((i + 0.5) * len(pool) / k)] for i in range(k)]


def _cold_build(meter):
    """A fresh cache extended to REACH by one metered extend_to call."""
    cache = integral.CheckpointCache()
    meter.call(cache.extend_to, REACH)
    return cache


def _priced(took):
    return [s for s, _ in took], [c for _, c in took]


class ScanWorkload:
    """evaluate_equivalent over a fixed job list, in seeded order, on a warm cache."""

    op = "row"

    def __init__(self, name, seed, out_dir):
        self.name, self.seed, self.out_dir = name, seed, out_dir
        rng = random.Random(seed)
        if name == "scan-gamma":
            anchors = [fermat.FermatRational(1, 1, 1, 3), fermat.FermatRational(6, 8, 9, 3)]
            pool = [q for n in (3, 4) for q in fermat.enumerate_fermat_rationals(n, 12)
                    if q not in anchors]
            rationals = anchors + _spread(pool, GAMMA_ROWS - len(anchors))
            self.jobs = [("gamma", q) for q in rationals]
            self.n, self.max_xyz, exponents = 0, 12, [3, 4]
        else:
            rationals = fermat.enumerate_fermat_rationals(3, MIXED_MAX_XYZ)[:MIXED_RATIONALS]
            self.jobs = [(f, q) for f in fermat.FUNCTIONAL_IDS for q in rationals]
            self.n, self.max_xyz, exponents = 3, MIXED_MAX_XYZ, [3]
        rng.shuffle(self.jobs)
        self.functionals = sorted({f for f, _ in self.jobs}, key=fermat.FUNCTIONAL_IDS.index)
        self.metadata = {
            "tau_grid": [float(t) for t in fermat.DEFAULT_TAU_GRID],
            "t_cap": fermat.DEFAULT_T_CAP,
            "strategy": gram.DEFAULT_STRATEGY,
            "c0_convention": 0.0,
            "exponents": exponents,
            "seed": seed,
            "workload": name,
        }
        self.cache = None

    def setup(self, repeats, meter):
        """Cold-build the checkpoint cache `repeats` times; keep the last.

        Returns the (seconds, ref cost) of each build."""
        builds = []
        for _ in range(repeats):
            self.cache = _cold_build(meter)
            builds += meter.take()
        return builds

    def _row(self, f, q):
        return fermat.evaluate_equivalent(f, q, fermat.DEFAULT_TAU_GRID, self.cache,
                                          fermat.DEFAULT_T_CAP)

    def _finish(self, rows):
        report = fermat.ScanReport(functional_ids=self.functionals, n=self.n,
                                   max_xyz=self.max_xyz, window=None, rows=rows,
                                   metadata=self.metadata).to_json()
        return report, _round_trip(self.cache, self.out_dir)

    def run_pass(self, meter):
        rows = [meter.call(self._row, f, q) for f, q in self.jobs]
        report, loaded = meter.call(self._finish, rows)
        secs, costs = _priced(meter.take())
        failed = sum(1 for r in rows if r.note.startswith("solver:"))
        return Pass(report=report, op_times=secs[:-1], op_costs=costs[:-1], failed=failed,
                    wall=sum(secs), cost=sum(costs), rows=rows,
                    cache=self.cache, loaded=loaded)

    def recheck(self, first: Pass):
        """Re-run a seeded sample of rows; each must serialize to the same bytes."""
        idx = random.Random(self.seed + 1).sample(range(len(self.jobs)), RECHECK)
        bad = []
        for i in idx:
            again = self._row(*self.jobs[i])
            if serialize.to_json(again.to_dict()) != serialize.to_json(first.rows[i].to_dict()):
                bad.append(f"row {i} ({self.jobs[i][0]}) not byte-stable on re-evaluation")
        return bad

    def gates(self, p: Pass, calibration, oracle):
        bad = []
        if p.loaded != p.cache:
            bad.append("load(save(cache)) differs from the cache")
        for r in p.rows:
            if r.status not in STATUSES:
                bad.append(f"unknown status {r.status!r}")
            if r.status == "resolved" and not (r.distance is not None and r.est_error is not None
                                               and r.distance > r.est_error):
                bad.append(f"resolved row without distance > est_error: {r.to_dict()}")
        ref = calibration["scan_rows"]
        q2 = [r for r in p.rows if r.functional == "gamma" and (r.x, r.y, r.z, r.n) == (1, 1, 1, 3)]
        if len(q2) != 1:
            bad.append("q=2 gamma anchor row missing")
        else:
            r = q2[0]
            if r.status != "resolved" or not math.isclose(r.value, ref["gamma_q2"]["value"], rel_tol=1e-9):
                bad.append(f"q=2 gamma row {r.value!r} {r.status!r} != calibration {ref['gamma_q2']['value']!r}")
        if self.name == "scan-gamma":
            near = [r for r in p.rows if (r.x, r.y, r.z, r.n) == (6, 8, 9, 3)]
            if len(near) != 1 or near[0].status != ref["gamma_728_729"]["status"]:
                bad.append("(6,8,9) gamma status differs from calibration")
        return bad


class CacheBuildWorkload:
    """Cold extend_to(REACH), seeded hl_integral reads, save/load."""

    op = "read"

    def __init__(self, name, seed, out_dir):
        self.name, self.seed, self.out_dir = name, seed, out_dir
        # A read costs a tail integral from the checkpoint below T. Reads sit
        # in evenly spaced stride cells of [100, REACH] with evenly spaced
        # tail lengths; the seed pairs tails with cells.
        stride = integral.DEFAULT_STRIDE
        cells = int((REACH - 100.0) // stride)
        tails = [(i + 0.5) * stride / READS for i in range(READS)]
        random.Random(seed).shuffle(tails)
        self.reads = [100.0 + stride * int((i + 0.5) * cells / READS) + tails[i]
                      for i in range(READS)]

    def setup(self, repeats, meter):
        return []  # set-up is the import only

    @staticmethod
    def _read(cache, T):
        try:
            r = integral.hl_integral(T, cache=cache)
        except LadderLabError:
            return [T, None, None]
        return [T, r.value, r.abs_error_estimate]

    def _finish(self, cache, values):
        loaded = _round_trip(cache, self.out_dir)
        report = serialize.to_json({
            "workload": self.name, "seed": self.seed, "reach": REACH,
            "checkpoints": len(cache.ts),
            "last": [cache.ts[-1], cache.js[-1], cache.errs[-1]],
            "reads": values,
        })
        return report, loaded

    def run_pass(self, meter):
        cache = _cold_build(meter)
        values = [meter.call(self._read, cache, T) for T in self.reads]
        report, loaded = meter.call(self._finish, cache, values)
        secs, costs = _priced(meter.take())
        return Pass(report=report, op_times=secs[1:-1], op_costs=costs[1:-1],
                    failed=sum(1 for v in values if v[1] is None),
                    wall=sum(secs), cost=sum(costs), build=(secs[0], costs[0]),
                    reads=values, cache=cache, loaded=loaded)

    def recheck(self, first: Pass):
        idx = random.Random(self.seed + 1).sample(range(len(self.reads)), RECHECK)
        bad = []
        for i in idx:
            again = self._read(first.cache, self.reads[i])
            if serialize.to_json(again) != serialize.to_json(first.reads[i]):
                bad.append(f"read at T={self.reads[i]!r} not byte-stable on re-evaluation")
        return bad

    def gates(self, p: Pass, calibration, oracle):
        bad = []
        cache = p.cache
        if p.loaded != cache:
            bad.append("load(save(cache)) differs from the cache")
        if not all(a < b for a, b in zip(cache.ts, cache.ts[1:])) or \
                not all(a < b for a, b in zip(cache.js, cache.js[1:])) or \
                any(e < 0 for e in cache.errs):
            bad.append("cache is not strictly monotone")
        for T, key in ((100.0, "J_100"), (1000.0, "J_1000")):
            r = integral.hl_integral(T, cache=cache)
            if abs(r.value - oracle[key]) > r.abs_error_estimate:
                bad.append(f"J({T:g}) = {r.value!r} misses oracle {oracle[key]!r} "
                           f"by more than its estimate {r.abs_error_estimate:.3g}")
        for T in (1e3, 5e3, 1e4):
            rung = integral.hl_representation(T) - integral.hl_integral(T, cache=cache).value
            ratio = rung / ((1.0 - EULER_GAMMA) * T)
            ref = calibration["segment_ratio"][f"{T:.17g}"]
            if not math.isclose(ratio, ref, rel_tol=1e-9):
                bad.append(f"segment ratio at {T:g} = {ratio!r} != calibration {ref!r}")
        return bad


WORKLOADS = {
    "scan-gamma": ScanWorkload,
    "scan-mixed": ScanWorkload,
    "cache-build": CacheBuildWorkload,
}


def load_fixtures(root):
    fixtures = os.path.join(root, "tests", "fixtures")
    with open(os.path.join(fixtures, "calibration.json")) as fh:
        calibration = json.load(fh)
    with open(os.path.join(fixtures, "oracle_scalars.json")) as fh:
        oracle = json.load(fh)
    return calibration, oracle

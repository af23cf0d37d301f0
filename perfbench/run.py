"""ladderlab benchmark runner.

    python3 perfbench/run.py --workload <scan-gamma|scan-mixed|cache-build|all>
                             --seed N --seconds S --trace 0|1

Run from the root of a ladderlab checkout; the library is imported from
``src/`` and the correctness gates read ``tests/fixtures``. One workload
runs in one process with one thread. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). A failed gate or digest check exits 1; a checkout without
the library exits 2. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

# Pinned before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HL_CACHE", None)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
NAMES = ("scan-gamma", "scan-mixed", "cache-build")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ladderlab; "
                "print(time.perf_counter() - t)")
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "pass_ref": "ref", "op_p50_ref": "ref", "op_p90_ref": "ref",
    "build_ref": "ref", "peak_rss_mb": "MB",
}
# printed beside them: the same quantities in seconds
UNITS = dict(END_TO_END_UNITS, wall_s="s", rows_per_s="1/s", reads_per_s="1/s",
             row_p50_ms="ms", row_p90_ms="ms", lookup_p50_ms="ms", lookup_p90_ms="ms",
             t_units_per_s="t/s", ref_ms="ms", fail_frac="frac")


def _median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_seconds(first: float) -> list[float]:
    """The in-process import plus fresh-interpreter imports of ladderlab."""
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()))
    return samples


def _git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment():
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "threads": 1,
    }


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ladderlab  # noqa: F401  (timed: the first import sample)
    first_import = time.perf_counter() - t0

    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    calibration, oracle = workloads.load_fixtures(ROOT)
    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, OUT)
    traced = bool(args.trace)
    env = _environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    import_s = _median(_import_seconds(first_import))
    meter = workloads.Meter()
    with meter:
        setup_builds = wl.setup(1 if traced else workloads.WARMUPS, meter)
        # whole passes until the run has measured `seconds` (one when traced)
        passes = []
        start = time.perf_counter()
        while not passes or (not traced and time.perf_counter() - start < args.seconds):
            passes.append(wl.run_pass(meter))
    first = passes[0]
    digest = _digest(first.report)
    problems = [f"pass {i} digest differs from pass 0"
                for i, p in enumerate(passes) if _digest(p.report) != digest]

    layer = layer_self = None
    if traced:
        # no reference samples here: they would land in the layers' self time
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_pass = wl.run_pass(meter)
        finally:
            tracer.uninstall()
        if _digest(traced_pass.report) != digest:
            problems.append("traced digest differs from untraced digest")
        layer, layer_self = spans.layer_metrics(tracer.spans, traced_pass.wall,
                                                traced_pass.cost / first.cost - 1.0)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json"))

    problems += wl.recheck(first)
    problems += wl.gates(passes[-1], calibration, oracle)

    attempted = sum(len(p.op_times) for p in passes)
    failed = sum(p.failed for p in passes)
    op_times = [t for p in passes for t in p.op_times]
    op_costs = [c for p in passes for c in p.op_costs]
    builds = setup_builds or [p.build for p in passes]  # cache-build builds in its passes
    e2e = {
        "setup_s": import_s + (_median([s for s, _ in setup_builds]) if setup_builds else 0.0),
        "pass_ref": _median([p.cost for p in passes]),
        "op_p50_ref": _median(op_costs),
        "op_p90_ref": spans.percentile(op_costs, 0.9),
        "build_ref": _median([c for _, c in builds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    noun = "row" if wl.op == "row" else "lookup"
    seconds = {
        "wall_s": _median([p.wall for p in passes]),
        f"{wl.op}s_per_s": attempted / sum(op_times),
        f"{noun}_p50_ms": _median(op_times) * 1e3,
        f"{noun}_p90_ms": spans.percentile(op_times, 0.9) * 1e3,
        "t_units_per_s": workloads.REACH / _median([s for s, _ in builds]),
        "ref_ms": _median([d for _, d in meter.probes]) * 1e3,
        "fail_frac": failed / attempted,
    }

    print(f"digest sha256:{digest} passes={len(passes)} {wl.op}s={attempted} builds={len(builds)}")
    if traced:
        shown = {"setup_s": e2e["setup_s"], "fail_frac": seconds["fail_frac"]}
    else:
        shown = {**e2e, **seconds}
    for key, val in shown.items():
        print(f"{key:<16} {val:<14.6g} {UNITS[key]}")
    if traced:
        for name in spans.LAYERS:
            print(f"self_s {name:<10} {layer_self.get(name, 0.0):.4f} s")
        print(f"self_s {'untraced':<10} {traced_pass.wall - sum(layer_self.values()):.4f} s")
        for key, val in layer.items():
            print(f"{key:<34} {val:.6g}")
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)

    if traced:
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in spans.PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "digest": digest, "problems": problems, "seconds": seconds,
                   "layers": layer, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status, results = 0, {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            status = 1
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "ladderlab", "__init__.py"),
                           os.path.join(ROOT, "tests", "fixtures", "calibration.json"))
               if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the root of a ladderlab checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in missing), file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

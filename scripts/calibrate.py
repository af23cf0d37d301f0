"""Freeze measured reference values into tests/fixtures/calibration.json.

One-time calibration of every quantity whose expected value comes from
running the engine itself (convergence ratios, functional values at
finite tau, scan rows). The committed JSON lets the suite assert that
today's numbers still reproduce bit-for-bit tomorrow; the asymptotic
claims themselves are asserted separately against their theoretical
bands. Rerun only after an intentional engine change, and review the
diff like code.

Usage: python3 scripts/calibrate.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ladderlab.arith import prime_pi
from ladderlab.constants import EULER_GAMMA
from ladderlab.fermat import FermatRational, evaluate_equivalent
from ladderlab.gammalab import (
    gamma_functional,
    pi_via_gamma,
    verify_chain,
    verify_factorization_D,
    verify_factorization_T1,
    verify_factorization_T2,
    verify_legendre_factorization,
    verify_shifted_ratio,
)
from ladderlab.gram import gram_points, spacing_ratios
from ladderlab.integral import CheckpointCache, hl_integral, hl_representation
from ladderlab.ladder import ascend, build_tower, descend
from ladderlab.serialize import write_json

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "calibration.json")
RATIO_GRID = (1e3, 5e3, 1e4)
FUNCTIONAL_GRID = (1e2, 1e3, 1e4)
GRAM_RATIO_GRID = (1e2, 3e2, 1e3, 3e3, 1e4)


def segment_ratio(T: float, cache: CheckpointCache) -> float:
    """Integral over one rung divided by its first-order size (1-c)T."""
    rung = hl_representation(T) - hl_integral(T, cache=cache).value
    return rung / ((1.0 - EULER_GAMMA) * T)


def _leaves(obj, path=""):
    """(dotted path, value) for every scalar in a nested dict/list."""
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _leaves(obj[k], f"{path}.{k}" if path else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def print_moves(out: dict) -> None:
    """Print each leaf whose value moved as committed value -> new value,
    with its rel move; leaves that kept their value are not printed."""
    old = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            old = dict(_leaves(json.load(fh)))
    for path, new in _leaves(out):
        was = old.pop(path, None)
        if isinstance(new, float):
            new = float(new)  # not np.float64(...) in the listing
        if new == was:
            continue
        if isinstance(new, float) and isinstance(was, (int, float)):
            rel = abs(new - was) / abs(was) if was else abs(new)
            print(f"{path}: {was!r} -> {new!r} (rel {rel:.2g})")
        else:
            print(f"{path}: {was!r} -> {new!r}")
    for path, was in old.items():
        print(f"{path}: {was!r} -> (removed)")


def main() -> None:
    t0 = time.time()
    cache = CheckpointCache()
    cache.extend_to(5.5e4)
    print(f"cache ready ({time.time() - t0:.1f}s)")

    out: dict = {}

    out["segment_ratio"] = {f"{T:.17g}": segment_ratio(T, cache) for T in RATIO_GRID}

    gf = {}
    for x in (1.0 - EULER_GAMMA, 1.0, 2.0):
        rep = gamma_functional(x, list(FUNCTIONAL_GRID), cache=cache)
        gf[f"{x:.17g}"] = {f"{t:.17g}": v for t, v in zip(rep.tau_grid, rep.values)}
    out["gamma_functional"] = gf

    for name, fn in (("d_ratio", verify_factorization_D),
                     ("t1_ratio", verify_factorization_T1),
                     ("t2_ratio", verify_factorization_T2)):
        rep = fn(list(GRAM_RATIO_GRID), cache=cache)
        out[name] = {f"{t:.17g}": v for t, v in zip(rep.tau_grid, rep.values)}

    out["ladder"] = {
        "descend_100": descend(100.0, cache=cache),
        "ascend_100": ascend(100.0, cache=cache),
        "descend_1000": descend(1000.0, cache=cache),
        "ascend_1000": ascend(1000.0, cache=cache),
        "tower_5000_k3": list(build_tower(5000.0, 3, cache=cache).iterates),
        "roundtrip_1000": descend(ascend(1000.0, cache=cache), cache=cache),
    }

    out["pi_gamma"] = {
        "tau": 1e4, "k": 2,
        "value": pi_via_gamma(1e4, 2, cache=cache),
        "prime_pi": float(prime_pi(1e4)),
    }

    chain = verify_chain(1e3, 3, cache=cache)
    out["chain_1000_k3"] = {
        "rung_ratios": list(chain.rung_ratios),
        "total_ratio": chain.total_ratio,
        "additivity_defect": chain.additivity_defect,
    }

    sh = verify_shifted_ratio(1e3, cache=cache)
    out["shifted_1000"] = {
        "lhs_log": sh.lhs_log, "rhs_log": sh.rhs_log,
        "log_difference": sh.log_difference,
        "count_in_unit": float(sh.count_in_unit),
        "count_target": sh.count_target,
    }

    lg = verify_legendre_factorization(500.0)
    out["legendre_500"] = {
        "log_lhs": lg.log_lhs, "log_rhs": lg.log_rhs,
        "log_difference": lg.log_difference,
    }

    slc = gram_points(100.0, 1e4)
    for ref in ("log_t", "log_t_over_2pi"):
        r = spacing_ratios(slc, reference=ref)
        out[f"spacing_{ref}"] = {
            "min": float(min(r)), "max": float(max(r)),
            "count": float(len(r)),
        }

    rows = {}
    for key, functional, frac in (
        ("gamma_q2", "gamma", FermatRational(1, 1, 1, 3)),
        ("gamma_728_729", "gamma", FermatRational(6, 8, 9, 3)),
        ("segment_728_729", "zeta-segment", FermatRational(6, 8, 9, 3)),
    ):
        row = evaluate_equivalent(functional, frac, cache=cache)
        rows[key] = {
            "value": row.value, "distance": row.distance,
            "est_error": row.est_error, "status": row.status,
            "tau_max": row.tau_max,
        }
    out["scan_rows"] = rows

    print_moves(out)
    write_json(OUT, out)
    print(f"wrote {os.path.relpath(OUT)} ({time.time() - t0:.1f}s total)")


if __name__ == "__main__":
    main()

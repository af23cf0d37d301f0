#!/usr/bin/env python3
"""Regenerate the arbitrary-precision oracle fixtures under tests/fixtures.

Everything here comes from mpmath at 25-50 digits, independent of the
float64 engine in src/. Outputs are committed so the test suite never
needs mpmath at runtime. Rerun after any change to the sampling plan:

    python3 scripts/make_fixtures.py

Takes a few minutes; the second-moment quadrature dominates. Pass one
function name, `python3 scripts/make_fixtures.py z_table_high`,
`gram_high`, `j_cells_high` or `j_cell_top`, to write only that
fixture.
"""

from __future__ import annotations

import csv
import json
import pathlib
import sys
import time

import mpmath as mp
import numpy as np

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SEED = 20260817


def z_table() -> None:
    """1000 log-uniform ordinates on [50, 1e4] plus seam/zero specials."""
    mp.mp.dps = 50
    rng = np.random.default_rng(SEED)
    ts = np.exp(rng.uniform(np.log(50.0), np.log(1e4), 993))
    specials = [50.0, 99.999, 100.0, 100.001, 14.134725141734693, 17.845599540810372, 30.0]
    ts = np.sort(np.concatenate([ts, np.array(specials)]))
    rows = []
    t0 = time.time()
    for i, t in enumerate(ts):
        z = mp.siegelz(mp.mpf(float(t)))
        rows.append((float(t), float(z)))
        if i % 200 == 0:
            print(f"  z table {i}/{len(ts)}  ({time.time()-t0:.0f}s)")
    with open(OUT / "z_table.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "z"])
        for t, z in rows:
            w.writerow([f"{t:.17g}", f"{z:.17g}"])


def z_table_high() -> None:
    """300 log-uniform ordinates on [9.9e3, 1e5], above z_table's range.

    Writes a new file, so the older fixtures stay byte-identical. Run it
    alone with `python3 scripts/make_fixtures.py z_table_high`.
    """
    mp.mp.dps = 30
    rng = np.random.default_rng(SEED + 1)
    ts = np.sort(np.exp(rng.uniform(np.log(9.9e3), np.log(1e5), 300)))
    t0 = time.time()
    with open(OUT / "z_table_high.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "z"])
        for i, t in enumerate(ts):
            w.writerow([f"{float(t):.17g}", f"{float(mp.siegelz(mp.mpf(float(t)))):.17g}"])
            if i % 50 == 0:
                print(f"  z table high {i}/{len(ts)}  ({time.time()-t0:.0f}s)")


def gram_high() -> None:
    """Gram points for 300 seeded indices with t in [1e4, 1e5].

    Column n is mpmath's index, theta(t) = n pi, so the engine's nu is
    n + 1. Writes a new file, so the older fixtures stay byte-identical.
    Run it alone with `python3 scripts/make_fixtures.py gram_high`.
    """
    mp.mp.dps = 30
    n_lo = int(mp.ceil(mp.siegeltheta(1e4) / mp.pi))
    n_hi = int(mp.floor(mp.siegeltheta(1e5) / mp.pi))
    rng = np.random.default_rng(SEED + 2)
    ns = np.sort(rng.choice(np.arange(n_lo, n_hi + 1), 300, replace=False))
    with open(OUT / "gram_high.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "t"])
        for n in ns:
            w.writerow([int(n), f"{float(mp.grampoint(int(n))):.17g}"])


_J_CELL_ORACLE = ("mpmath siegelz at dps 20, composite Gauss-Legendre on unit panels, "
                  "20 nodes a panel checked against 16")


def _j_cell(a: int, stride: int) -> dict:
    """J over [a, a + stride] from Z^2, mpmath siegelz at dps 20 (which
    agrees with dps 30 to 20 digits there), summed by composite
    Gauss-Legendre on the cell's unit panels: 20 nodes a panel for J,
    checked against 16 nodes a panel, whose difference is rule_diff."""
    mp.mp.dps = 20
    rules = {n: mp.gauss_quadrature(n, "legendre") for n in (16, 20)}
    sums = {}
    t0 = time.time()
    for n, (xs, ws) in rules.items():
        total = mp.mpf(0)
        for p in range(a, a + stride):
            mid = mp.mpf(p) + mp.mpf(1) / 2
            total += sum(w * mp.siegelz(mid + x / 2) ** 2 for x, w in zip(xs, ws)) / 2
        sums[n] = total
        print(f"  J cell {a} GL{n}: {mp.nstr(total, 20)}  ({time.time()-t0:.0f}s)")
    return {"a": float(a), "b": float(a + stride), "J": float(sums[20]),
            "rule_diff": float(abs(sums[20] - sums[16]))}


def _write_j_cells(name: str, cells: list[dict]) -> None:
    with open(OUT / name, "w") as fh:
        json.dump({"cells": cells, "oracle": _J_CELL_ORACLE}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def j_cells_high() -> None:
    """J over one stride cell near each of 1e4, 3e4 and 5.8e4 (_j_cell).

    Writes a new file, so the older fixtures stay byte-identical. Run it
    alone with `python3 scripts/make_fixtures.py j_cells_high`.
    """
    _write_j_cells("j_cells_high.json", [_j_cell(a, 50) for a in (10000, 30000, 58000)])


def j_cell_top() -> None:
    """J over the stride cell [99900, 99950], just below T_MAX, by
    _j_cell. Writes a new file, so the older fixtures stay
    byte-identical. Run it alone with
    `python3 scripts/make_fixtures.py j_cell_top`.
    """
    _write_j_cells("j_cell_top.json", [_j_cell(99900, 50)])


def zeros_table() -> None:
    """All 29 zeta zeros with ordinate below 100."""
    mp.mp.dps = 30
    rows = []
    for k in range(1, 30):
        rows.append((k, float(mp.zetazero(k).imag)))
    with open(OUT / "zeros.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "gamma"])
        for k, g in rows:
            w.writerow([k, f"{g:.17g}"])


def second_moment(T: int) -> tuple[float, float]:
    """integral of |zeta(1/2+it)|^2 over [0, T], unit panels."""
    mp.mp.dps = 25
    f = lambda t: mp.siegelz(t) ** 2
    total = mp.mpf(0)
    err = mp.mpf(0)
    t0 = time.time()
    for a in range(T):
        v, e = mp.quad(f, [a, a + 1], error=True)
        total += v
        err += e
        if a % 200 == 0:
            print(f"  J({T}) panel {a}  ({time.time()-t0:.0f}s)")
    return float(total), float(err)


def scalars() -> None:
    mp.mp.dps = 40
    j100, e100 = second_moment(100)
    j1000, e1000 = second_moment(1000)
    mp.mp.dps = 40
    data = {
        "J_100": j100,
        "J_100_err": e100,
        "J_1000": j1000,
        "J_1000_err": e1000,
        "theta_100": float(mp.siegeltheta(100)),
        "zeta_half_sq": float(mp.zeta(0.5) ** 2),
        "z_30_sq": float(mp.siegelz(30) ** 2),
        "gram_first_ten": [float(mp.grampoint(n)) for n in range(10)],
        "gram_9999": float(mp.grampoint(9999)),
        "seed": SEED,
        "oracle": "mpmath, dps 25-50, unit-panel adaptive Gauss-Legendre",
    }
    with open(OUT / "oracle_scalars.json", "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    single = {"z_table_high": z_table_high, "gram_high": gram_high,
              "j_cells_high": j_cells_high, "j_cell_top": j_cell_top}
    if len(sys.argv) == 2 and sys.argv[1] in single:
        print(sys.argv[1], "...")
        single[sys.argv[1]]()
        return
    print("zeros table ...")
    zeros_table()
    print("scalar oracles (second moment is slow) ...")
    scalars()
    print("z table ...")
    z_table()
    print("z table high ...")
    z_table_high()
    print("gram high ...")
    gram_high()
    print("J cells high ...")
    j_cells_high()
    print("J cell top ...")
    j_cell_top()
    print("done ->", OUT)


if __name__ == "__main__":
    main()

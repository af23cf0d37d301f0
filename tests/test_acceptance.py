"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each criterion appears as its own test so a verbose run prints one
pass/fail line per claim. Claims that desk-scale measurement shows to
be unattainable as stated are asserted anyway and marked strict-xfail:
they fail today by measurement, and the suite breaks loudly if they
ever start passing. Each such claim has a companion test pinning the
true measured behavior from the frozen calibration fixture.
"""

import json
import math
import random

import numpy as np
import pytest

from ladderlab.constants import EULER_GAMMA
from ladderlab.fermat import (
    FUNCTIONAL_IDS,
    FermatRational,
    ScanReport,
    evaluate_equivalent,
    exhaustive_exact_check,
    scan,
)
from ladderlab.gammalab import (
    gamma_functional,
    verify_factorization_D,
    verify_factorization_T1,
    verify_factorization_T2,
    verify_shifted_ratio,
)
from ladderlab.gram import gram_points, spacing_ratios
from ladderlab.integral import hl_integral, hl_representation
from ladderlab.ladder import ascend, descend
from ladderlab.zeta import theta, z_array

SEED = 20260817


def test_criterion_01_kernel_accuracy(z_table):
    """max |Z(t)^2 - oracle| <= 1e-5 on the 1000-point fixture."""
    ts = np.array([t for t, _ in z_table])
    ref = np.array([z for _, z in z_table])
    z = z_array(ts)
    worst = float(np.abs(z * z - ref * ref).max())
    print(f"criterion 1: max |Z^2 - oracle| = {worst:.3g} (<= 1e-5)")
    assert worst <= 1e-5


def test_criterion_02_quadrature_oracle(oracle, shared_cache):
    """J(100), J(1000) within reported estimate; estimate <= 1e-4 relative."""
    for key, T in (("J_100", 100.0), ("J_1000", 1000.0)):
        res = hl_integral(T, cache=shared_cache)
        err = abs(res.value - oracle[key])
        print(f"criterion 2: |J({T:g}) - oracle| = {err:.3g}, "
              f"estimate {res.abs_error_estimate:.3g}")
        assert err <= res.abs_error_estimate
        assert res.abs_error_estimate <= 1e-4 * oracle[key]


def test_criterion_03_ladder_inverse_pair(shared_cache):
    """50 random T in [200, 1e4]: |descend(ascend(T)) - T| <= 2e-6."""
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(50):
        T = rng.uniform(200.0, 1e4)
        back = descend(ascend(T, cache=shared_cache), cache=shared_cache)
        worst = max(worst, abs(back - T))
    print(f"criterion 3: worst roundtrip defect = {worst:.3g} (<= 2e-6)")
    assert worst <= 2e-6


def test_criterion_04_increment_law(shared_cache, calibration):
    """Rung integral over (1-c)T: in (0.85, 1.15) at 5e3, improving to 1e4."""
    def ratio(T):
        rung = hl_representation(T) - hl_integral(T, cache=shared_cache).value
        return rung / ((1.0 - EULER_GAMMA) * T)

    r5e3, r1e3, r1e4 = ratio(5e3), ratio(1e3), ratio(1e4)
    print(f"criterion 4: ratios 1e3={r1e3:.5f} 5e3={r5e3:.5f} 1e4={r1e4:.5f}")
    assert 0.85 < r5e3 < 1.15
    assert abs(r1e4 - 1.0) < abs(r1e3 - 1.0)
    for T, r in ((1e3, r1e3), (5e3, r5e3), (1e4, r1e4)):
        assert r == pytest.approx(calibration["segment_ratio"][f"{T:.17g}"], rel=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "measured: rung-level fluctuation dominates the O(1/ln tau) bias on "
    "{1e2, 1e3}, so |value - x| is not monotone along the stated grid"))
def test_criterion_05_gamma_functional_strict_decrease(shared_cache):
    """|value(tau) - x| strictly decreasing on tau in {1e2, 1e3, 1e4}."""
    for x in (1.0 - EULER_GAMMA, 1.0, 2.0):
        rep = gamma_functional(x, [1e2, 1e3, 1e4], cache=shared_cache)
        errs = rep.abs_errors()
        assert errs[0] > errs[1] > errs[2], f"x={x}: {errs}"


def test_criterion_05_gamma_functional_within_10pct(shared_cache, calibration):
    """tau = 1e4 value within 10% of x, values pinned by calibration."""
    for x in (1.0 - EULER_GAMMA, 1.0, 2.0):
        rep = gamma_functional(x, [1e2, 1e3, 1e4], cache=shared_cache)
        rel = abs(rep.values[-1] - x) / x
        print(f"criterion 5: x={x:.5g} value(1e4)={rep.values[-1]:.5f} rel={rel:.3f}")
        assert rel <= 0.10
        frozen = calibration["gamma_functional"][f"{x:.17g}"]
        for tau, v in zip(rep.tau_grid, rep.values):
            assert v == pytest.approx(frozen[f"{tau:.17g}"], rel=1e-9)


def test_criterion_06_divisor_factorization(shared_cache):
    """Divisor-sum over ln Gamma ratio in (0.8, 1.2) at 1e4, improving."""
    rep = verify_factorization_D([1e2, 3e2, 1e3, 3e3, 1e4], cache=shared_cache)
    errs = rep.abs_errors()
    print(f"criterion 6 (divisor): ratios {[round(v, 4) for v in rep.values]}")
    assert 0.8 < rep.values[-1] < 1.2
    assert all(a > b for a, b in zip(errs, errs[1:]))


@pytest.mark.xfail(strict=True, reason=(
    "measured: the one-point Gram ratio reaches 0.795 at tau = 1e4, a "
    "hair outside (0.8, 1.2); convergence in 1/ln tau is too slow here"))
def test_criterion_06_gram_one_point_band(shared_cache):
    rep = verify_factorization_T1([1e4], cache=shared_cache)
    assert 0.8 < rep.values[-1] < 1.2


@pytest.mark.xfail(strict=True, reason=(
    "measured: the pair Gram ratio reaches 0.785 at tau = 1e4, just "
    "outside (0.8, 1.2); same slow 1/ln tau convergence"))
def test_criterion_06_gram_pair_band(shared_cache):
    rep = verify_factorization_T2([1e4], cache=shared_cache)
    assert 0.8 < rep.values[-1] < 1.2


def test_criterion_06_gram_ratios_converge(shared_cache, calibration):
    """Companion: both Gram ratios approach 1 and reproduce calibration."""
    for key, fn in (("t1_ratio", verify_factorization_T1),
                    ("t2_ratio", verify_factorization_T2)):
        rep = fn([1e2, 1e3, 1e4], cache=shared_cache)
        errs = rep.abs_errors()
        print(f"criterion 6 ({key}): ratios {[round(v, 4) for v in rep.values]}")
        assert errs[-1] < errs[0]
        frozen = calibration[key]
        for tau, v in zip(rep.tau_grid, rep.values):
            assert v == pytest.approx(frozen[f"{tau:.17g}"], rel=1e-9)


def test_criterion_07_gram_residuals():
    """theta(t_nu) hits (nu - 1) pi to 1e-8 on a deep slice."""
    slc = gram_points(100.0, 2000.0)
    worst = max(abs(theta(t) - (nu - 1) * math.pi)
                for nu, t in zip(slc.nus, slc.ts))
    print(f"criterion 7: worst theta residual = {worst:.3g} (<= 1e-8)")
    assert worst <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "measured: gram spacing is 2pi/ln(t/2pi), so the ratio to 2pi/ln t "
    "reaches ln t/ln(t/2pi) = 1.65 near t = 100 and stays above 1.3 "
    "until t ~ 2.9e3; the stated band cannot hold on (100, 1e4]"))
def test_criterion_07_spacing_band():
    slc = gram_points(100.0, 1e4)
    ratios = spacing_ratios(slc, reference="log_t")
    assert all(0.7 < r < 1.3 for r in ratios)


def test_criterion_07_spacing_against_local_wavelength(calibration):
    """Companion: spacing over 2pi/ln(t/2pi) hugs 1 across (100, 1e4]."""
    slc = gram_points(100.0, 1e4)
    ratios = spacing_ratios(slc, reference="log_t_over_2pi")
    lo, hi = float(min(ratios)), float(max(ratios))
    print(f"criterion 7: corrected spacing ratio in [{lo:.6f}, {hi:.6f}]")
    assert 0.99 < lo and hi < 1.01
    frozen = calibration["spacing_log_t_over_2pi"]
    assert lo == pytest.approx(frozen["min"], rel=1e-9)
    assert hi == pytest.approx(frozen["max"], rel=1e-9)


def test_criterion_07_interval_count(shared_cache):
    """Gram points in (tau, tau+1] within +-2 of ln tau / 2pi."""
    for tau in (1e3, 5e3):
        sh = verify_shifted_ratio(tau, cache=shared_cache)
        print(f"criterion 7: count({tau:g}) = {sh.count_in_unit}, "
              f"target {sh.count_target:.3f}")
        assert abs(sh.count_in_unit - sh.count_target) <= 2.0


def test_criterion_08_exact_fermat_check():
    """x^n + y^n != z^n for all n in 3..5, x, y, z <= 50, exactly."""
    checked = exhaustive_exact_check((3, 4, 5), 50)
    print(f"criterion 8: {checked} exact triples checked, no identity hit")
    assert checked == 3 * (50 * 51 // 2) * 50


def test_criterion_09_scan_evidence_table(shared_cache, calibration):
    """Gamma-equivalent scan n=3, xyz <= 12: honest resolution labels."""
    rep = scan(["gamma"], n=3, max_xyz=12, cache=shared_cache)
    rows = rep.rows
    assert any((r.x, r.y, r.z) == (6, 8, 9) for r in rows)
    for r in rows:
        if r.status == "resolved":
            assert r.distance is not None and r.distance > r.est_error
        else:
            assert r.status == "unresolved at desk scale"
    q2 = [r for r in rows if r.q == 2.0]
    assert len(q2) == 1 and q2[0].status == "resolved"
    assert q2[0].distance >= 0.5
    ref = calibration["scan_rows"]["gamma_q2"]
    assert q2[0].value == pytest.approx(ref["value"], rel=1e-9)
    near = [r for r in rows if (r.x, r.y, r.z) == (6, 8, 9)][0]
    assert near.status == calibration["scan_rows"]["gamma_728_729"]["status"]
    n_res = sum(1 for r in rows if r.status == "resolved")
    print(f"criterion 9: {len(rows)} rows, {n_res} resolved, "
          f"q=2 distance {q2[0].distance:.3f}, 728/729 {near.status}")


def test_criterion_10_determinism(shared_cache):
    """Repeated scans byte-identical; row evaluation order changes nothing."""
    def run():
        return scan(["gamma", "zeta-segment"], n=3, max_xyz=3,
                    cache=shared_cache, t_cap=1e4)

    rep = run()
    one, two = rep.to_json(), run().to_json()
    assert one == two
    jobs = [(r.functional, FermatRational(r.x, r.y, r.z, r.n)) for r in rep.rows]
    backwards = [evaluate_equivalent(f, q, cache=shared_cache, t_cap=1e4)
                 for f, q in reversed(jobs)]
    reordered = ScanReport(functional_ids=rep.functional_ids, n=rep.n,
                           max_xyz=rep.max_xyz, window=rep.window,
                           rows=backwards[::-1], metadata=rep.metadata)
    assert reordered.to_json() == one
    parsed = json.loads(one)
    print(f"criterion 10: {len(parsed['rows'])} rows byte-stable across "
          "repeats and row order")


@pytest.fixture(scope="module")
def error_bar_misses(shared_cache):
    """(misses, rows) of the criterion-9 scan and of every functional at
    n = 3, xyz <= 3: the rows with an est_error, and those of them whose
    |value - target| exceeds it."""
    out = {}
    for name, ids, max_xyz in (("criterion 9", ["gamma"], 12),
                               ("all functionals", FUNCTIONAL_IDS, 3)):
        rows = [r for r in scan(list(ids), n=3, max_xyz=max_xyz, cache=shared_cache).rows
                if r.est_error is not None]
        out[name] = (sum(abs(r.value - r.target) > r.est_error for r in rows), len(rows))
    return out


@pytest.mark.xfail(strict=True, reason=(
    "measured: |value - target| exceeds est_error on 107 of 718 criterion-9 "
    "rows and 19 of 131 rows of every functional at xyz <= 3; est_error "
    "carries the numeric errors, not the finite-tau gap to the limit"))
def test_error_bars_cover_the_known_limit(error_bar_misses):
    """Every scan row's est_error bounds its distance to the known target."""
    assert all(misses == 0 for misses, _ in error_bar_misses.values()), error_bar_misses


def test_error_bar_coverage_counts(error_bar_misses):
    """Companion: the rows whose est_error misses the target, pinned."""
    assert error_bar_misses == {"criterion 9": (107, 718), "all functionals": (19, 131)}


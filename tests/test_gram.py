import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab.constants import EULER_GAMMA, T_MAX, T_MIN
from ladderlab.errors import DomainError
from ladderlab.gram import (
    FIRST_GRAM,
    GRAM_RESIDUAL_TOL,
    GramSlice,
    _solve_theta_equals,
    _theta_prime,
    gram_index_range,
    gram_points,
    spacing_ratios,
    t1_increment,
    t2_increment,
)
from ladderlab.zeta import theta, z_array


def test_first_gram_point(oracle):
    slc = gram_points(17.0, 18.0)
    assert slc.nus[0] == 1
    assert slc.ts[0] == pytest.approx(oracle["gram_first_ten"][0], abs=1e-9)
    assert slc.ts[0] == pytest.approx(FIRST_GRAM, abs=1e-12)


def test_first_ten_gram_points(oracle):
    slc = gram_points(17.0, 60.0)
    for got, want in zip(slc.ts[:10], oracle["gram_first_ten"]):
        assert got == pytest.approx(want, abs=1e-9)


def test_deep_gram_point(oracle):
    # oracle counts from 0 (theta = 9999*pi); 1-based index is 10000.
    # Solved far from the seeding regime.
    slc = gram_points(9877.0, 9879.0)
    by_nu = {nu: t for nu, t in zip(slc.nus, slc.ts)}
    assert by_nu[10000] == pytest.approx(oracle["gram_9999"], abs=1e-8)


def test_gram_points_above_1e4(gram_high):
    # mpmath grampoint at dps 30 on [1e4, T_MAX], beyond gram_9999
    nus = np.array([nu for nu, _ in gram_high])
    ref = np.array([t for _, t in gram_high])
    assert len(nus) == 300 and ref.min() >= 1e4 and ref.max() <= T_MAX
    err = np.abs(_solve_theta_equals((nus - 1).astype(float) * math.pi) - ref)
    print(f"worst Gram point error above 1e4: {err.max():.3g}")
    assert err.max() <= 1e-9


def test_gram_points_batch_invariant():
    # a point solved alone has the bits it has inside a 2000-point batch
    rng = np.random.default_rng(13)
    last = gram_index_range(T_MIN, T_MAX)[1]
    bands = (1, gram_index_range(T_MIN, 1.2e4)[1],
             gram_index_range(T_MIN, 5e4)[1], last - 1999)
    for nu_lo in bands:
        nus = np.arange(nu_lo, nu_lo + 2000)
        ts = _solve_theta_equals((nus - 1).astype(float) * math.pi)
        zs = z_array(ts)
        for i in rng.choice(np.arange(1, nus.size - 1), 50, replace=False):
            # (a, b] holds t_nu and no neighbor
            a = 0.5 * (ts[i - 1] + ts[i])
            b = 0.5 * (ts[i] + ts[i + 1])
            alone = gram_points(a, b)
            assert alone.nus.tolist() == [nus[i]]
            assert alone.ts[0] == ts[i], nus[i]
            assert alone.zs[0] == zs[i], nus[i]


def test_newton_step_count_suffices():
    # every served Gram point, plus one beyond T_MAX, in one batch: one
    # more Newton step moves no t by more than a few ulp
    lo, hi = gram_index_range(T_MIN, T_MAX)
    targets = np.arange(lo - 1, hi + 1, dtype=float) * math.pi
    ts = _solve_theta_equals(targets)
    resid = theta(ts) - targets
    again = np.maximum(ts - resid / _theta_prime(ts), T_MIN)
    assert np.max(np.abs(again - ts) / np.spacing(ts)) <= 4.0
    assert np.max(np.abs(resid)) <= GRAM_RESIDUAL_TOL


def test_theta_residuals_tight():
    slc = gram_points(100.0, 300.0)
    for nu, t in zip(slc.nus, slc.ts):
        assert abs(theta(t) - (nu - 1) * math.pi) <= 1e-8


def test_index_range_consistency():
    lo, hi = gram_index_range(100.0, 200.0)
    slc = gram_points(100.0, 200.0)
    assert slc.nus[0] == lo and slc.nus[-1] == hi
    assert all(100.0 < t <= 200.0 for t in slc.ts)


def test_empty_slice():
    slc = gram_points(10.0, 11.0)
    assert len(slc) == 0


def test_domain_validation():
    with pytest.raises(DomainError):
        gram_points(200.0, 100.0)
    with pytest.raises(DomainError):
        t1_increment(T_MIN, T_MIN)


def test_csv_shape():
    slc = gram_points(100.0, 120.0)
    lines = slc.to_csv().strip().split("\n")
    assert lines[0] == "nu,t,z"
    assert len(lines) == len(slc) + 1
    assert all(len(ln.split(",")) == 3 for ln in lines[1:])


def test_increment_additivity():
    for inc in (t1_increment, t2_increment):
        whole = inc(100.0, 400.0)
        parts = inc(100.0, 250.0) + inc(250.0, 400.0)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_titchmarsh_prefix_consistency():
    for inc in (t1_increment, t2_increment):
        assert inc(T_MIN, 500.0) == pytest.approx(
            inc(T_MIN, 300.0) + inc(300.0, 500.0), rel=1e-12)


def test_single_summand_reading():
    # T1 folds zeta(1/2 + i t_nu) = (-1)^(nu-1) Z(t_nu); T2 folds the
    # neighbor products zeta_nu zeta_{nu+1} = -Z_nu Z_{nu+1}
    slc = gram_points(200.0, 400.0)
    want = math.fsum((-1.0) ** (int(nu) - 1) * z for nu, z in zip(slc.nus, slc.zs))
    assert t1_increment(200.0, 400.0) == want
    ext = gram_points(200.0, 400.0, extra=1)
    assert ext.ts[-2] <= 400.0 < ext.ts[-1]
    assert t2_increment(200.0, 400.0) == -math.fsum(ext.zs[:-1] * ext.zs[1:])


def test_one_point_sum_positive_mean():
    # the sign-corrected one-point summand hovers around 2 per point
    slc = gram_points(1000.0, 1500.0)
    mean = t1_increment(1000.0, 1500.0) / len(slc)
    assert 1.0 <= mean <= 3.0


def test_pair_sum_positive_mean():
    slc = gram_points(1000.0, 1500.0)
    mean = t2_increment(1000.0, 1500.0) / len(slc)
    assert 2.0 <= mean <= 4.5  # limit is 2(1+c) = 3.154


def test_spacing_reference_corrected(calibration):
    slc = gram_points(2000.0, 4000.0)
    ratios = spacing_ratios(slc, reference="log_t_over_2pi")
    assert all(0.99 <= r <= 1.01 for r in ratios)
    with pytest.raises(DomainError):
        spacing_ratios(slc, reference="nonsense")


@given(st.floats(min_value=100.0, max_value=9000.0),
       st.floats(min_value=5.0, max_value=500.0))
def test_spacing_near_local_wavelength(a, w):
    slc = gram_points(a, a + w)
    if len(slc) < 2:
        return
    for r in spacing_ratios(slc, reference="log_t_over_2pi"):
        assert 0.99 <= r <= 1.01


def test_slice_rows_roundtrip():
    slc = gram_points(100.0, 110.0)
    rows = list(slc.rows())
    assert rows[0][0] == slc.nus[0]
    assert isinstance(slc, GramSlice)

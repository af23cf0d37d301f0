import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab import gram
from ladderlab.constants import EULER_GAMMA, T_MAX, T_MIN
from ladderlab.errors import DomainError, InfeasibleError, LadderLabError, unwrap
from ladderlab.gram import (
    FIRST_GRAM,
    GRAM_RESIDUAL_TOL,
    NEWTON_STEPS,
    GramSlice,
    _gram_sign,
    _lambert_w,
    _solve_theta_equals,
    _theta_prime,
    gram_index_range,
    gram_points,
    spacing_ratios,
    t1_increment,
    t1_increment_all,
    t2_increment,
    t2_increment_all,
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


def test_newton_steps_share_one_log():
    # each step takes theta and theta' from one log(t/2pi): the same bits
    # as a step through theta() and _theta_prime()
    lo, hi = gram_index_range(T_MIN, T_MAX)
    nus = np.unique(np.linspace(lo, hi, 20000).astype(np.int64))
    targets = (nus - 1).astype(float) * math.pi
    g = (targets + np.pi / 8.0) / np.pi + 0.875
    t = np.maximum(2.0 * math.pi * g / _lambert_w(np.maximum(g, 0.9) / math.e), T_MIN + 1.0)
    for _ in range(NEWTON_STEPS):
        t = np.maximum(t - (theta(t) - targets) / _theta_prime(t), T_MIN)
    assert np.array_equal(_solve_theta_equals(targets).view(np.int64), t.view(np.int64))


def _fold_alone(a, b, extra):
    # reference: the rung's own points, solved and evaluated in their own
    # calls, folded as T1 (extra 0) or T2 (extra 1)
    lo, hi = gram_index_range(a, b)
    nus = np.arange(lo, hi + extra + 1)
    ts = _solve_theta_equals((nus - 1).astype(float) * math.pi)
    zs = z_array(ts)
    if not extra:
        return math.fsum(_gram_sign(nus) * zs) if nus.size else 0.0
    n_in = int(np.count_nonzero(ts <= b))
    return math.fsum(-(zs[:n_in] * zs[1:n_in + 1])) if n_in else 0.0


def test_batched_rungs_same_bits_as_one_at_a_time(monkeypatch):
    # one Gram solve and one z_array call for every rung of a batch, in
    # any order; each rung keeps the bits of its own call and of a fold of
    # its points alone: rungs that share an endpoint (so a t2 neighbour
    # past b is the next rung's first point), an empty rung, and rungs
    # repeated or overlapping
    a, b = gram_points(1000.0, 1003.0).ts[:2]
    rungs = [(200.0, 400.0), (400.0, 650.0), (650.0, 1234.5), (a - 1e-3, a + 1e-3),
             (b, b + 1e-3), (3e3, 3.5e3), (3.2e3, 4e3), (200.0, 400.0), (4.99e4, 5.2e4),
             (T_MIN, 50.0)]
    assert len(gram_points(*rungs[4])) == 0
    for batched, one, extra in ((t1_increment_all, t1_increment, 0),
                                (t2_increment_all, t2_increment, 1)):
        want = [_fold_alone(lo, hi, extra).hex() for lo, hi in rungs]
        assert [one(lo, hi).hex() for lo, hi in rungs] == want
        calls = []
        for name in ("_solve_theta_equals", "z_array"):
            f = getattr(gram, name)
            monkeypatch.setattr(gram, name, lambda x, f=f, name=name: calls.append(name) or f(x))
        assert [v.hex() for v in batched(rungs[::-1])] == want[::-1]
        monkeypatch.undo()
        assert calls == ["_solve_theta_equals", "z_array"]


def test_batched_rungs_keep_each_error_in_its_slot():
    # a reversed rung, one below T_MIN, a non-finite one and one whose
    # points pass T_MAX fail alone, with the error of their own call
    good = [(200.0, 400.0), (9.9e4, 9.95e4)]
    bad = [(400.0, 200.0), (5.0, 50.0), (100.0, math.inf), (9.99e4, 1.01e5), (math.nan, 100.0)]
    for batched, one in ((t1_increment_all, t1_increment), (t2_increment_all, t2_increment)):
        got = batched(bad[:2] + good[:1] + bad[2:] + good[1:])
        assert [v.hex() for v in (got[2], got[-1])] == [one(*r).hex() for r in good]
        for res, rung in zip(got[:2] + got[3:-1], bad):
            with pytest.raises(LadderLabError) as alone:
                one(*rung)
            assert type(res) is type(alone.value) and str(res) == str(alone.value)
        assert type(got[4]) is InfeasibleError and type(got[0]) is DomainError


def test_span_past_t_max_refused_before_any_solve(monkeypatch):
    # every entry point refuses a span past T_MAX before theta sees an
    # ordinate of it or the solve a target: (20, 1e6) holds 1.7M points
    want = t2_increment(200.0, 400.0)
    seen = {"theta": [], "_solve_theta_equals": []}
    for name, calls in seen.items():
        f = getattr(gram, name)
        monkeypatch.setattr(gram, name,
                            lambda x, f=f, calls=calls: calls.append(np.max(x, initial=0.0)) or f(x))
    for call in (lambda: gram_points(20.0, 1e6), lambda: gram_index_range(20.0, 1e6),
                 lambda: t1_increment(100.0, 1e6), lambda: t2_increment(9.99e4, 1.01e5),
                 lambda: unwrap(t1_increment_all([(9.99e4, 1.01e5)])[0])):
        with pytest.raises(InfeasibleError, match="T_MAX"):
            call()
    assert set(seen["theta"]) <= {0.0} and set(seen["_solve_theta_equals"]) <= {0.0}
    # a past-T_MAX slot of a batch: the served slot keeps its bits, and no
    # ordinate or target of the refused one reaches theta or the solve
    got = t2_increment_all([(200.0, 400.0), (2e4, 1e6)])
    assert type(got[1]) is InfeasibleError and got[0].hex() == want.hex()
    assert max(seen["theta"]) < 500.0 and max(seen["_solve_theta_equals"]) < theta(500.0)


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
    # gram_index_range refuses what gram_points refuses, where it served
    # (202, 137) for (400, 300)
    for frm, to in ((400.0, 300.0), (400.0, 400.0), (5.0, 300.0), (math.nan, 300.0),
                    (100.0, math.inf)):
        for fn in (gram_index_range, gram_points):
            with pytest.raises(DomainError):
                fn(frm, to)
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
    ext = gram._gram_slices([(200.0, 400.0)], 1)[0]
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
    # a slice of fewer than two points has no gap, but its reference is
    # still checked
    empty = gram_points(100.0, 101.0)
    assert len(empty) == 0 and spacing_ratios(empty).size == 0
    for sl in (slc, empty):
        with pytest.raises(DomainError, match="unknown spacing reference"):
            spacing_ratios(sl, reference="nonsense")


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

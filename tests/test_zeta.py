import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab import integral, zeta
from ladderlab.constants import T_MAX
from ladderlab.errors import DomainError, InfeasibleError
from ladderlab.zeta import (
    RS_SEAM,
    SMALL_BATCH_TERMS,
    theta,
    z_array,
    z_error_bound,
)


def test_z_against_oracle_table(z_table):
    ts = np.array([t for t, _ in z_table])
    ref = np.array([z for _, z in z_table])
    err = np.abs(z_array(ts) - ref)
    assert float(err.max()) <= 1e-5


def test_z_regionwise_accuracy(z_table):
    # the documented bound must hold with margin in every regime
    ts = np.array([t for t, _ in z_table])
    ref = np.array([z for _, z in z_table])
    err = np.abs(z_array(ts) - ref)
    assert np.all(err <= z_error_bound(ts))
    low = ts < RS_SEAM
    assert float(err[low].max()) <= 5e-13


def test_z_within_bound_above_1e4(z_table_high):
    # the served range above the older table, up to T_MAX
    ts = np.array([t for t, _ in z_table_high])
    ref = np.array([z for _, z in z_table_high])
    assert len(ts) == 300 and ts.min() < 1e4 and ts.max() > 9.9e4
    err = np.abs(z_array(ts) - ref)
    assert np.all(err <= z_error_bound(ts))


def _strip_model(t: float, y: float) -> float:
    """The approximate functional equation's |Z(t + iy)| <= 4 sqrt(N) e^(|y| |L| / 2),
    N = floor(sqrt(t / 2 pi)), at least 1, and L = ln(t / 2 pi), each at
    its least within y of t, and L at t >= 1: a Gauss panel's bound takes
    N at its right end and |L| at the end where it is larger, and its
    ellipse of half-height y reaches less than y past its ends."""
    lo, hi = max(t - y, 1.0), max(t + y, 1.0)
    log_x = 0.0 if lo <= 2.0 * math.pi <= hi else min(
        abs(math.log(lo / (2.0 * math.pi))), abs(math.log(hi / (2.0 * math.pi))))
    n = max(math.floor(math.sqrt(max(t - y, 0.0) / (2.0 * math.pi))), 1)
    return 4.0 * math.sqrt(n) * math.exp(0.5 * y * log_x)


def test_strip_model_bounds_z_off_the_line(z_strip, z_strip_low):
    # the strip model bounds mpmath's |Z(t + iy')| on every decade of
    # [RS_SEAM, T_MAX] at every y' up to y_max, and below the seam down to
    # t = 0: there at every y' up to 0.45, clear of theta's singularity at
    # t = i/2, and from t = 4 on up to y_max
    pts = z_strip["points"]
    ts = {p["t"] for p in pts}
    assert min(ts) == RS_SEAM and max(ts) == T_MAX
    for lo in (1e2, 1e3, 1e4):
        assert sum(lo < t < 10.0 * lo for t in ts) >= 6, lo
    assert {p["y"] for p in pts} >= {0.25, 0.5, 1.0, 2.0, z_strip["y_max"]}
    assert all(0.0 < p["y"] <= z_strip["y_max"] for p in pts)
    assert integral._STRIP_Y <= z_strip["y_max"]  # the Gauss bound's widest strip
    low = z_strip_low["points"]
    low_ts = sorted({p["t"] for p in low})
    assert low_ts[0] == 0.0 and low_ts[-1] < RS_SEAM and len(low_ts) >= 20
    assert z_strip_low["y_max"] == z_strip["y_max"]
    for t in low_ts:
        ys = {p["y"] for p in low if p["t"] == t}
        assert integral._NEAR_ZERO_Y in ys and max(ys) == (
            z_strip["y_max"] if t >= 4.0 else integral._NEAR_ZERO_Y), t
    worst = {"high": 0.0, "low": 0.0}
    for name, points in (("high", pts), ("low", low)):
        for p in points:
            model = _strip_model(p["t"], p["y"])
            assert p["abs_z"] <= model, (p, model)
            worst[name] = max(worst[name], p["abs_z"] / model)
    print(f"worst |Z(t + iy')| / model = {worst['high']:.3g} from the seam on, "
          f"{worst['low']:.3g} below it")


def test_z_at_zero_ordinates(zero_table):
    ts = np.array([g for _, g in zero_table])
    assert float(np.abs(z_array(ts)).max()) <= 1e-5


def test_theta_oracle(oracle):
    assert theta(100.0) == pytest.approx(oracle["theta_100"], abs=1e-10)


def test_theta_domain():
    # np.min of an array holding a NaN is NaN, so a NaN is refused anywhere in it
    for bad in (9.5, math.nan, math.inf, [100.0, math.nan], np.array([math.inf, 100.0])):
        with pytest.raises(DomainError):
            theta(bad)


def test_theta_array_matches_scalar():
    ts = np.array([15.0, 100.0, 5000.0])
    arr = theta(ts)
    assert arr.shape == (3,)
    for t, v in zip(ts, arr):
        assert v == theta(float(t))


@given(st.floats(min_value=10.0, max_value=1e5),
       st.floats(min_value=0.5, max_value=1e4))
def test_theta_strictly_increasing(t, dt):
    assert theta(t + dt) > theta(t)


def test_zeta_sq_oracle(oracle):
    z_30, z_0 = z_array([30.0, 0.0])
    assert z_30 * z_30 == pytest.approx(oracle["z_30_sq"], abs=1e-10)
    # t = 0 is the real point zeta(1/2)^2
    assert z_0 * z_0 == pytest.approx(oracle["zeta_half_sq"], abs=1e-9)


def test_z_domain():
    with pytest.raises(DomainError):
        z_array([-1.0])
    with pytest.raises(DomainError):
        z_array([100.0, -1.0])


def test_z_refused_above_t_max():
    assert math.isfinite(float(z_array([T_MAX])[0]))
    assert z_error_bound(T_MAX) == 1e-8
    for bad in (math.nextafter(T_MAX, math.inf), math.nan):
        with pytest.raises(InfeasibleError):
            z_array([bad])
        with pytest.raises(InfeasibleError):
            z_error_bound(bad)


@given(st.floats(min_value=0.0, max_value=2e4))
def test_z_finite_and_square_consistent(t):
    z = float(z_array([t])[0])
    assert math.isfinite(z)
    assert z * z >= 0.0


def test_seam_continuity():
    # both engines must agree across the handoff to well under the bound
    eps = 1e-9
    lo = float(z_array(np.array([RS_SEAM - eps]))[0])
    hi = float(z_array(np.array([RS_SEAM + eps]))[0])
    assert abs(hi - lo) <= 1e-5


def test_error_bound_monotone_regions():
    b = z_error_bound(np.array([50.0, 500.0, 5e3, 5e4]))
    assert b[0] <= 1e-12
    assert b[1] == 1e-6
    assert b[2] == 5e-8
    assert b[3] == 1e-8


def test_error_bound_steps_shapes_and_domain():
    below = [math.nextafter(edge, 0.0) for edge in (RS_SEAM, 1e3, 1e4)]
    ts = np.array([0.0, below[0], RS_SEAM, below[1], 1e3, below[2], 1e4, T_MAX])
    want = [5e-13, 5e-13, 1e-6, 1e-6, 5e-8, 5e-8, 1e-8, 1e-8]
    assert z_error_bound(ts).tolist() == want
    assert z_error_bound(ts.reshape(2, 4)).tolist() == np.reshape(want, (2, 4)).tolist()
    for scalar in (1e3, np.float64(1e3), np.array(1e3)):
        b = z_error_bound(scalar)
        assert b.shape == () and b == 5e-8
    assert z_error_bound(np.empty((0, 3))).shape == (0, 3)
    for bad in (-1.0, [5.0, -1e-300], np.array([[1e3], [-0.5]])):
        with pytest.raises(DomainError):
            z_error_bound(bad)


def test_batch_invariance_bitwise():
    # both branches and the seam: a value must not depend on its batch
    rng = np.random.default_rng(20260101)
    ts = np.concatenate([
        rng.uniform(0.0, RS_SEAM, 100),
        rng.uniform(RS_SEAM, 6e4, 290),
        RS_SEAM + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9]),
        np.array([0.0, 6e4]),
    ])
    rng.shuffle(ts)
    batch = z_array(ts)
    for i in range(ts.size):
        assert z_array(ts[i:i + 1])[0] == batch[i], ts[i]


def test_sorted_and_shuffled_batches_same_bits(monkeypatch):
    # an ascending batch skips the sort and the scatter back; each element
    # must get the bits it gets in the same batch shuffled
    rng = np.random.default_rng(20261020)
    ts = np.sort(np.concatenate([
        rng.uniform(0.0, RS_SEAM, 200),
        rng.uniform(RS_SEAM, 6e4, 2**14),
        np.array([RS_SEAM, RS_SEAM, 6e4]),
    ]))
    perm = rng.permutation(ts.size)
    sorts = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        sorts.append(a.size)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(zeta.np, "argsort", counting)
    ascending = z_array(ts)
    assert sorts == []
    shuffled = z_array(ts[perm])
    assert sorts == [ts.size]
    assert np.array_equal(shuffled.view(np.int64), ascending[perm].view(np.int64))


def _loop_main_sum(t, th, trunc):
    # reference: one pass per n over the elements whose N(t) reaches n
    nmax = int(trunc[-1])
    logn = np.log(np.arange(1, nmax + 1, dtype=float))
    isqn = 1.0 / np.sqrt(np.arange(1, nmax + 1, dtype=float))
    starts = np.searchsorted(trunc, np.arange(1, nmax + 1), side="left")
    main = np.zeros_like(t)
    for n in range(1, nmax + 1):
        i = starts[n - 1]
        main[i:] += np.cos(th[i:] - t[i:] * logn[n - 1]) * isqn[n - 1]
    return main


def _horner_correction(x, x2):
    # reference: 22 Horner steps broadcast over a (4, n) array
    c = np.zeros((4, x.size))
    for col in zeta._RS_C.T[::-1]:
        c = c * x2 + col[:, None]
    c[1::2] *= x
    return c


def _assert_matches_reference(monkeypatch, batches, name, reference):
    for ts in batches:
        got = z_array(ts)
        with monkeypatch.context() as m:
            m.setattr(zeta, name, reference)
            want = z_array(ts)
        assert np.array_equal(got, want), (ts.size, ts.max())


def _panels(rng, lo, hi, count):
    # 21-node panels at log-uniform starts in [lo, hi], as a row's reads
    # and ascents evaluate them
    starts = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    return (starts[:, None] + np.linspace(0.0, 1.0, 21)[None, :]).ravel()


def test_main_sum_forms_match_loop_bitwise(monkeypatch):
    # small batches build one term array per column block (a new block
    # wherever N(t) more than doubles), large ones loop over n; all must
    # give the loop's bits, including one-element batches and blocks
    rng = np.random.default_rng(20261018)
    wide = np.append(rng.uniform(RS_SEAM, 9e4, 248), [RS_SEAM, 9e4])
    rng.shuffle(wide)
    batches = [wide]  # 250 * N(9e4) terms: the term array with many masked rows
    for band in (1e2, 1e3, 1e4, 5e4, 9.9e4):
        hi = min(1.05 * band, T_MAX)
        nmax = math.floor(math.sqrt(hi / (2.0 * math.pi)))
        below = SMALL_BATCH_TERMS // nmax
        for size in (1, 2, 3, 88, below, below + 1, 3500):
            ts = np.append(rng.uniform(band, hi, size - 1), hi)
            rng.shuffle(ts)
            batches.append(ts)
    # row-shaped batches: 21-node panels spread over 1e2-6e4, in one or
    # many blocks, and one-node blocks at either end and in the middle
    for count in (1, 2, 5, 10, 30):
        batches.append(_panels(rng, 1e2, 6e4, count))
    batches.append(np.append(RS_SEAM, _panels(rng, 1e3, 2e3, 3)))
    batches.append(np.append(_panels(rng, 1e2, 2e2, 3), 6e4))
    batches.append(np.concatenate([_panels(rng, 1e2, 2e2, 2), [1e3], _panels(rng, 5e3, 6e3, 2)]))
    # right at SMALL_BATCH_TERMS, and one term over: N(t_max) = 64
    top = 2.0 * math.pi * 64.5 ** 2
    for size in (SMALL_BATCH_TERMS // 64, SMALL_BATCH_TERMS // 64 + 1):
        batches.append(np.append(rng.uniform(RS_SEAM, top, size - 1), top))
    _assert_matches_reference(monkeypatch, batches, "_rs_main_sum", _loop_main_sum)


def test_correction_forms_match_horner_bitwise(monkeypatch):
    # up to `cap` nodes Horner runs on one flat vector, above it on each
    # row; both must give the broadcast Horner's bits, and a batch split
    # across the cap must give the same bits as the whole
    cap = SMALL_BATCH_TERMS // zeta._RS_C.size
    rng = np.random.default_rng(20261019)
    batches = []
    for band in (1e2, 1e3, 1e4, 5e4, 9.9e4):
        hi = min(1.05 * band, T_MAX)
        for size in (1, 2, 88, cap, cap + 1, 3500):
            ts = rng.uniform(band, hi, size)
            batches.append(ts)
            if size == cap + 1:
                split = np.concatenate([z_array(ts[:cap]), z_array(ts[cap:])])
                assert np.array_equal(z_array(ts), split), band
    _assert_matches_reference(monkeypatch, batches, "_rs_correction", _horner_correction)


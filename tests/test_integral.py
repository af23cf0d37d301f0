import bisect
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab import integral
from ladderlab.constants import EULER_GAMMA, LN_TWO_PI, T_MAX
from ladderlab.errors import CacheCorruptionError, DomainError, InfeasibleError, ToleranceError
from ladderlab.integral import (
    AUTO_TOL_RATE,
    CELL_TOL,
    DEFAULT_STRIDE,
    ENGINE_VERSION,
    CheckpointCache,
    hl_integral,
    hl_representation,
    integrate_segment,
)
from ladderlab.ladder import ascend
from ladderlab.zeta import RS_SEAM


def test_j_oracle_values(oracle, shared_cache):
    for key, T in (("J_100", 100.0), ("J_1000", 1000.0)):
        res = hl_integral(T, cache=shared_cache)
        assert abs(res.value - oracle[key]) <= res.abs_error_estimate
        assert abs(res.value - oracle[key]) / oracle[key] <= 1e-4


def test_j_cells_within_estimate_above_1e4(j_cells_high, shared_cache):
    # where scans read J: each oracle cell's cache increment lies within
    # the cell's own error estimate
    assert [c["a"] for c in j_cells_high] == [1e4, 3e4, 5.8e4]
    shared_cache.extend_to(max(c["b"] for c in j_cells_high))
    worst = 0.0
    for c in j_cells_high:
        i = int(c["b"] / DEFAULT_STRIDE) - 1
        assert shared_cache.ts[i - 1:i + 1] == [c["a"], c["b"]]
        inc = shared_cache.js[i] - shared_cache.js[i - 1]
        est = shared_cache.errs[i] - shared_cache.errs[i - 1]
        assert c["rule_diff"] <= 1e-3 * est  # the oracle's own check
        ratio = abs(inc - c["J"]) / est
        assert ratio <= 1.0, (c["a"], ratio)
        worst = max(worst, ratio)
    print(f"worst |cell increment - oracle| / estimate = {worst:.3g}")


def test_j_cell_within_estimate_near_t_max(j_cell_top):
    # a segment over the stride cell [99900, 99950] has that cell's panels,
    # the widest the engine makes
    seg = integrate_segment(j_cell_top["a"], j_cell_top["b"])
    assert (j_cell_top["a"], j_cell_top["b"]) == (99900.0, 99950.0)
    assert j_cell_top["rule_diff"] <= 1e-3 * seg.abs_error_estimate  # the oracle's own check
    ratio = abs(seg.value - j_cell_top["J"]) / seg.abs_error_estimate
    assert ratio <= 1.0, ratio
    print(f"|segment - oracle| / estimate = {ratio:.3g}")


def test_zero_and_degenerate():
    assert hl_integral(0.0).value == 0.0
    seg = integrate_segment(5.0, 5.0)
    assert seg.value == 0.0 and seg.node_count == 0


def test_domain_errors():
    with pytest.raises(DomainError):
        integrate_segment(-1.0, 5.0)
    with pytest.raises(DomainError):
        integrate_segment(10.0, 5.0)
    with pytest.raises(TypeError):  # one tolerance rule, no caller's own
        integrate_segment(1.0, 2.0, tol=1e-3)
    with pytest.raises(DomainError):
        hl_integral(-0.5)
    # non-finite bounds are refused, not integrated forever
    cache = CheckpointCache()
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            integrate_segment(0.0, bad)
        with pytest.raises(DomainError):
            hl_integral(bad, cache=cache)
        with pytest.raises(DomainError):
            cache.extend_to(bad)
    # huge finite bounds are refused above T_MAX, before any quadrature
    with pytest.raises(InfeasibleError):
        integrate_segment(0.0, 1e9)
    with pytest.raises(InfeasibleError):
        integrate_segment(T_MAX, math.nextafter(T_MAX, math.inf))
    for T in (1e9, 1e6):
        with pytest.raises(InfeasibleError):
            hl_integral(T)
        with pytest.raises(InfeasibleError):
            hl_integral(T, cache=cache)
        with pytest.raises(InfeasibleError):
            cache.extend_to(T)
    assert cache.ts == []


def test_additivity():
    a = integrate_segment(0.0, 80.0)
    b = integrate_segment(80.0, 130.0)
    whole = integrate_segment(0.0, 130.0)
    value = a.value + b.value
    estimate = a.abs_error_estimate + b.abs_error_estimate
    assert abs(value - whole.value) <= estimate + whole.abs_error_estimate


def test_impossible_tolerance_fails_fast(monkeypatch):
    # a rate whose tolerance on [200, 260] is 1e-12, below the engine floor
    monkeypatch.setattr(integral, "AUTO_TOL_RATE", 1e-12 / 60.0)
    with pytest.raises(ToleranceError, match=r"engine error floor exceeds tol=1e-12 ") as exc:
        integrate_segment(200.0, 260.0)
    assert exc.value.best_value is not None
    assert exc.value.best_error > 1e-12


def test_estimate_honest_on_random_segments(oracle, shared_cache):
    # bracket J(100) via two independent routes sharing no state
    direct = integrate_segment(0.0, 100.0)
    assert abs(direct.value - oracle["J_100"]) <= direct.abs_error_estimate


@given(st.floats(min_value=0.0, max_value=290.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_integral_nonnegative_within_estimate(a, w):
    res = integrate_segment(a, a + w)
    assert res.value >= -res.abs_error_estimate


def test_cache_roundtrip(tmp_path):
    cache = CheckpointCache()
    cache.extend_to(120.0)
    assert cache.ts == [50.0, 100.0]
    path = os.path.join(tmp_path, "cache.csv")
    cache.save(path)
    back = CheckpointCache.load(path)
    assert back.ts == cache.ts and back.js == cache.js

    # idempotent: extending to a lower bound adds nothing
    back.extend_to(90.0)
    assert back.ts == cache.ts


def test_kronrod_rule_table():
    x, w, wg = integral._XK, integral._WK, integral._WG
    n = integral._NODES_PER_PANEL
    assert n == x.size == w.size == 21
    # K21 is exact through degree 31 and no further
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) <= 4e-16
    assert abs(w @ x**32 - 2.0 / 33) > 1e-13
    assert np.all(x == -x[::-1]) and np.all(np.diff(x) > 0.0) and x[n // 2] == 0.0
    assert np.all(w > 0.0) and np.all(w == w[::-1]) and abs(w.sum() - 2.0) <= 4e-16
    # the embedded rule is Gauss-Legendre 10 on every other Kronrod node
    xg, wg10 = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(x[1::2] - xg)) <= 4e-16 and np.max(np.abs(wg - wg10)) <= 4e-16
    # the degree-20 interpolant p of the 21 values integrates to their K21 value
    rng = np.random.default_rng(12)
    f = rng.random((50, n))
    leg = f @ integral._LEG.T
    assert leg.shape == (50, 21)
    assert np.max(np.abs(2.0 * leg[:, 0] - f @ w)) <= 4e-15
    # invert() solves on the integral of p^2: for z of degree <= 15, p is z
    # and z^2 lies in K21's exact range, so over [-1, 1] it is K21 of z^2
    for _ in range(200):
        z = np.polynomial.legendre.legval(x, rng.normal(size=rng.integers(1, 17)))
        z /= np.max(np.abs(z))
        coef, prim, grid = integral._square_model(z, 1.0)
        assert len(coef) == 21 and len(prim) == 42 and len(grid) == len(integral._GRID)
        assert abs(np.polynomial.legendre.legval(1.0, prim) - w @ z**2) <= 4e-15
        assert grid[0] == 0.0 and abs(grid[-1] - w @ z**2) <= 4e-15


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=42),
       st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=42),
       st.floats(min_value=-1.0, max_value=1.0))
def test_clenshaw_is_numpy_legval(c, d, x):
    # invert() solves on these two sums, evaluated in one loop; each must
    # keep numpy's bits
    c, d = sorted((c, d), key=len, reverse=True)
    want = [float(np.polynomial.legendre.legval(x, np.array(v))).hex() for v in (c, d)]
    assert [v.hex() for v in integral._legval_pair(x, c, d)] == want


def test_panel_estimate_bounds_true_error():
    # against a 40-node Gauss-Legendre reference on the widest panels
    x40, w40 = np.polynomial.legendre.leggauss(40)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for t in (1e2, 1e3, 1e4, 3e4, 5.8e4):
        lo = t + rng.uniform(0.0, 50.0, 40)
        hi = lo + integral._PANEL_CAP / np.log(lo)
        _, vk, vg, eng = integral._eval_panels(lo, hi)
        err = np.abs(vk - vg) + eng
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        z = integral.z_array((mid[:, None] + half[:, None] * x40).ravel()).reshape(-1, 40)
        ref = (z**2 @ w40) * half
        ratio = np.abs(vk - ref) / err
        assert np.all(ratio <= 1.0), (t, ratio.max())
        worst = max(worst, float(ratio.max()))
    print(f"worst |K21 - GL40| / err = {worst:.3g}")


def test_panel_values_independent_of_batch():
    # a panel's Kronrod, Gauss and engine values have the same bits
    # whatever other panels share its batch
    rng = np.random.default_rng(31)
    for P in range(1, 101, 3):
        lo = 3e4 + rng.uniform(0.0, 50.0, P)
        hi = lo + integral._PANEL_CAP / np.log(lo)
        _, vk, vg, eng = integral._eval_panels(lo, hi)
        for k in range(P):
            _, ak, ag, aeng = integral._eval_panels(lo[k:k + 1], hi[k:k + 1])
            assert (vk[k], vg[k], eng[k]) == (ak[0], ag[0], aeng[0]), (P, k)


def test_stride_cells_need_no_refinement():
    # every cell up to T_MAX meets CELL_TOL on its first panels; a panel
    # cap too wide for the rule would show here as extra nodes
    cache = CheckpointCache()
    nodes = cache.extend_to(T_MAX)
    first = sum(integral._panel_edges(t - DEFAULT_STRIDE, t).size - 1 for t in cache.ts)
    assert len(cache.ts) == T_MAX / DEFAULT_STRIDE
    assert nodes == first * integral._NODES_PER_PANEL


def test_panel_rule_either_side_of_the_seam():
    # a panel starting at t is 4 pi / ln max(t, 20) wide below RS_SEAM and
    # 7 pi / ln t from it on; the last panel of a range ends at its end
    for a, b in ((0.0, 50.0), (50.0, 100.0), (90.0, 130.0), (100.0, 150.0), (5.8e4, 5.805e4)):
        edges = integral._panel_edges(a, b).tolist()
        assert edges[0] == a and edges[-1] == b
        for lo, hi in zip(edges, edges[1:]):
            cap = 7.0 * math.pi if lo >= RS_SEAM else 4.0 * math.pi
            width = cap / math.log(max(lo, 20.0))
            assert hi == lo + width or (hi == b and hi < lo + width), (a, lo)


def test_cells_below_the_seam_keep_their_bits():
    # the two Euler-Maclaurin cells keep their 4 pi panels, and so the
    # bits of their checkpoints
    cache = CheckpointCache()
    cache.extend_to(100.0)
    assert [j.hex() for j in cache.js] == ["0x1.cfa59df27481ep+6", "0x1.27a295d9e8ae4p+8"]
    assert [e.hex() for e in cache.errs] == ["0x1.a103472e8a875p-14", "0x1.a10360dc2823fp-14"]


def test_cache_corruption(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write(f"# ladderlab cache v{ENGINE_VERSION} stride=50 tol=0.0015\n")
        fh.write("T,J,abs_err\n50,10,0\n40,20,0\n")
    with pytest.raises(CacheCorruptionError, match="not strictly increasing"):
        CheckpointCache.load(path)

    with open(path, "w") as fh:
        fh.write("not,a,cache\n")
    with pytest.raises(CacheCorruptionError):
        CheckpointCache.load(path)

    with open(path, "w") as fh:
        fh.write("")
    with pytest.raises(CacheCorruptionError):
        CheckpointCache.load(path)

    # stale: another engine version, or no version header at all
    for header, found in (("# ladderlab cache v1 stride=50 tol=0.0015\n", "version 1,"),
                          ("# ladderlab cache v2 stride=50 tol=0.0015\n", "version 2,"),
                          ("# ladderlab cache v3 stride=50 tol=0.0015\n", "version 3,"),
                          ("# ladderlab cache v4 stride=50 tol=0.0015\n", "version 4,"),
                          ("# ladderlab cache v5 stride=50 tol=0.0015\n", "version 5,"),
                          ("# ladderlab cache v6 stride=50 tol=0.0015\n", "version 6,"),
                          ("", "version missing,")):
        with open(path, "w") as fh:
            fh.write(header + "T,J,abs_err\n50,10,0\n100,20,0\n")
        with pytest.raises(CacheCorruptionError) as exc:
            CheckpointCache.load(path)
        msg = str(exc.value)
        assert found in msg and f"expected {ENGINE_VERSION};" in msg
        assert "ladderlab cache" in msg

    # current version, other stride or tolerance: rejected, naming both lines
    for header in (f"# ladderlab cache v{ENGINE_VERSION} stride=25 tol=0.0015",
                   f"# ladderlab cache v{ENGINE_VERSION} stride=50 tol=0.003"):
        with open(path, "w") as fh:
            fh.write(header + "\nT,J,abs_err\n50,10,0\n100,20,0\n")
        with pytest.raises(CacheCorruptionError) as exc:
            CheckpointCache.load(path)
        msg = str(exc.value)
        assert header in msg and f"stride={DEFAULT_STRIDE:.17g} tol={CELL_TOL:.17g}" in msg


def test_load_rejects_off_grid_rows(tmp_path):
    # rows off the stride grid would serve other bits than a fresh cache
    cache = CheckpointCache()
    cache.extend_to(150.0)
    j = hl_integral(175.0)
    rows = list(zip(cache.ts, cache.js, cache.errs)) + [(175.0, j.value, j.abs_error_estimate)]
    path = os.path.join(tmp_path, "off.csv")
    with open(path, "w") as fh:
        fh.write(f"# ladderlab cache v{ENGINE_VERSION} stride={DEFAULT_STRIDE:.17g} tol={CELL_TOL:.17g}\n")
        fh.write("T,J,abs_err\n" + "".join(f"{t:.17g},{v:.17g},{e:.17g}\n" for t, v, e in rows))
    with pytest.raises(CacheCorruptionError, match="row 3 at T=175.0 is off the stride grid") as exc:
        CheckpointCache.load(path)
    assert "expected T=200" in str(exc.value)


def test_node_count_counts_every_evaluated_node(monkeypatch):
    # a tolerance of 1e-10 on [0, 30] forces three refinement rounds after
    # the first panels; each bisects one panel and evaluates only its two
    # halves
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    with monkeypatch.context() as m:
        m.setattr(integral, "AUTO_TOL_RATE", 1e-10 / 30.0)
        res = integrate_segment(0.0, 30.0)
    first = integral._panel_edges(0.0, 30.0).size - 1
    assert sizes == [n * integral._NODES_PER_PANEL for n in (first, 2, 2, 2)]
    assert res.node_count == sum(sizes)

    # a cached read counts the checkpoints it builds and the knots it
    # fills, not only its tail
    cache = CheckpointCache()
    for T in (120.0, 149.0, 30.0):
        sizes.clear()
        res = hl_integral(T, cache=cache)
        assert res.node_count == sum(sizes)
    assert len(cache.ts) == 3 and len(sizes) == 1  # 30.0: cell filled, tail only
    # the read of 120.0 built the checkpoint at 150 with the cell's knots,
    # so extending to it integrates nothing again
    sizes.clear()
    assert cache.extend_to(150.0) == 0 and sizes == []

    # first read of a loaded cell fills its knots, and counts them
    loaded = CheckpointCache(ts=list(cache.ts), js=list(cache.js), errs=list(cache.errs))
    sizes.clear()
    res = hl_integral(77.0, cache=loaded)
    assert len(sizes) == 2 and res.node_count == sum(sizes)


def _checkpoint_below(cache, T):
    i = bisect.bisect_right(cache.ts, T)
    return (cache.ts[i - 1], cache.js[i - 1], cache.errs[i - 1]) if i else (0.0, 0.0, 0.0)


def test_knot_reads_match_checkpoint_tail(shared_cache):
    reach = 6e4
    shared_cache.extend_to(reach)
    rng = random.Random(4)
    for T in [rng.uniform(0.0, reach) for _ in range(60)]:
        read = hl_integral(T, cache=shared_cache)
        t0, j0, e0 = _checkpoint_below(shared_cache, T)
        seg = integrate_segment(t0, T)
        ref = j0 + seg.value
        assert abs(read.value - ref) <= 1e-13 * ref
        assert abs(read.value - ref) <= read.abs_error_estimate + e0 + seg.abs_error_estimate
        # the read's tail is at most one panel
        k0 = shared_cache.nearest_below(T)[0]
        assert t0 <= k0 <= T
        assert T - k0 <= integral._PANEL_CAP / math.log(max(k0, 20.0))


def test_invert_returns_the_plain_read_of_j_at_its_root(shared_cache, monkeypatch):
    # seeded targets, plus the J values of knots and checkpoints, whose
    # roots sit on a stored point (a zero-width tail)
    shared_cache.extend_to(2e4)
    rng = random.Random(21)
    targets = [rng.uniform(30.0, shared_cache.js[-1]) for _ in range(20)]
    for i in (3, 150, 390):
        targets += [shared_cache._knots[i][1][1], shared_cache.js[i]]
    rng.shuffle(targets)
    for target, (U, j) in zip(targets, shared_cache.invert(targets)):
        assert j.hex() == hl_integral(U, cache=shared_cache).value.hex()
        assert abs(j - target) <= 1e-9 * target

    # every stored point of ten cells inverts to itself, and its tail has
    # no panel: only the targets' knot intervals are evaluated, in one
    # Z call
    stored = []
    for i in range(3, 400, 40):
        kt, kj, _ = shared_cache._knots[i]
        stored += [*zip(kt, kj), (shared_cache.ts[i], shared_cache.js[i])]
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    assert shared_cache.invert([j for _, j in stored]) == stored
    assert sizes == [integral._NODES_PER_PANEL * len(stored)]


def test_invert_targets_just_below_a_stored_j(shared_cache, tmp_path):
    # U is solved on the integral P of p^2, which over a whole panel
    # differs from the stored Kronrod increment j1 - j0 by rounding and
    # model error (up to ~5e-13 on full 7 pi panels), so a target just
    # below j1 can lie past P's total; U stays in [t0, t1], on a warm
    # cache and on a loaded one that must fill its knots
    shared_cache.extend_to(2e4)
    path = os.path.join(tmp_path, "cache.csv")
    CheckpointCache(ts=shared_cache.ts[:400], js=shared_cache.js[:400],
                    errs=shared_cache.errs[:400]).save(path)
    loaded = CheckpointCache.load(path)
    spans = []
    for i in (3, 150, 390):
        kt, kj, _ = shared_cache._knots[i]
        pts = [(shared_cache.ts[i - 1], shared_cache.js[i - 1])] + list(zip(kt, kj))
        pts.append((shared_cache.ts[i], shared_cache.js[i]))
        spans += [pts[k:k + 2] for k in (0, len(pts) // 2, len(pts) - 2)]
    for cache in (shared_cache, loaded):
        for (t0, _), (t1, j1) in spans:
            targets = [math.nextafter(j1, 0.0), j1 - 1e-12, j1 - 1e-10, j1 - 1e-9]
            for target, (U, j) in zip(targets, cache.invert(targets)):
                assert t0 <= U <= t1, (t0, U, t1)
                assert abs(j - target) <= 1e-8
                assert j.hex() == hl_integral(U, cache=shared_cache).value.hex()
    # a need past P's total returns the panel's end, and one of 0 its start
    lo, end = np.array([1e4]), 1e4 + 2.0
    z, vk, _, _ = integral._eval_panels(lo, np.array([end]))
    total = integral._square_model(z[0], 1.0)[2][-1]
    assert integral._solve_in_panels(total + 1e-9, end, lo, z, vk) == end
    assert integral._solve_in_panels(0.0, end, lo, z, vk) == 1e4


def test_invert_root_of_a_loaded_checkpoint_is_the_checkpoint(shared_cache, tmp_path):
    # the root of a checkpoint's J is that checkpoint, never a few ulps
    # below it in a stride cell that load() left without knots, and its J
    # read is hl_integral(U)'s on a warm cache
    shared_cache.extend_to(1e4)
    path = os.path.join(tmp_path, "cache.csv")
    CheckpointCache(ts=shared_cache.ts[:200], js=shared_cache.js[:200],
                    errs=shared_cache.errs[:200]).save(path)
    loaded = CheckpointCache.load(path)
    rows = list(range(198, 0, -2))  # descending: no target fills the cell below another
    res = loaded.invert([shared_cache.js[i] for i in rows])
    for i, (U, j) in zip(rows, res):
        assert (U, j) == (shared_cache.ts[i], shared_cache.js[i])
        assert j.hex() == hl_integral(U, cache=shared_cache).value.hex()
    assert all(i not in loaded._knots for i in rows)


def test_invert_refuses_nan_and_negative_targets_per_slot():
    cache = CheckpointCache()
    got = cache.invert([math.nan, -5.0])
    assert [type(r) for r in got] == [DomainError, DomainError]
    assert len(cache.ts) == 0  # refused before any build
    nan, neg, zero = cache.invert([math.nan, -5.0, 0.0])
    assert type(nan) is DomainError and type(neg) is DomainError
    assert zero == (0.0, 0.0)


def _bits(res):
    return (res.value, res.abs_error_estimate)


def test_knot_reads_independent_of_cache_history(tmp_path):
    cache = CheckpointCache()
    cache.extend_to(2000.0)
    path = os.path.join(tmp_path, "cache.csv")
    cache.save(path)
    loaded = CheckpointCache.load(path)
    assert loaded == cache
    rng = random.Random(9)
    # seeded reads, two per cell, plus the cell past the last checkpoint
    ts = [50.0 * i + rng.uniform(0.0, 50.0) for i in range(40) for _ in range(2)] + [2020.0]
    rng.shuffle(ts)
    for T in ts:
        want = _bits(hl_integral(T, cache=cache))
        assert _bits(hl_integral(T, cache=loaded)) == want  # first or later read of its cell
        assert _bits(hl_integral(T, cache=loaded)) == want
        assert _bits(hl_integral(T, cache=CheckpointCache())) == want  # cold cache
    assert loaded == cache and len(loaded.ts) == 41


def test_save_writes_checkpoints_only(tmp_path):
    cache = CheckpointCache()
    hl_integral(333.3, cache=cache)
    path = os.path.join(tmp_path, "cache.csv")
    cache.save(path)
    with open(path, "rb") as fh:
        written = fh.read()
    rows = "".join(f"{t:.17g},{j:.17g},{e:.17g}\n" for t, j, e in zip(cache.ts, cache.js, cache.errs))
    want = (f"# ladderlab cache v{ENGINE_VERSION} stride={DEFAULT_STRIDE:.17g} "
            f"tol={CELL_TOL:.17g}\nT,J,abs_err\n{rows}").encode()
    assert written == want
    assert CheckpointCache.load(path) == cache


def test_cached_matches_fresh(shared_cache):
    # against the independent route: one segment over [0, T], no cells
    cached = hl_integral(333.3, cache=shared_cache)
    fresh = integrate_segment(0.0, 333.3)
    assert abs(cached.value - fresh.value) <= (
        cached.abs_error_estimate + fresh.abs_error_estimate)


def test_uncached_read_is_the_cached_read(shared_cache):
    # one J per ordinate: a read without a cache goes through a fresh one
    shared_cache.extend_to(6e4)
    rng = random.Random(17)
    for T in [rng.uniform(0.0, 6e4) for _ in range(2)]:
        assert _bits(hl_integral(T)) == _bits(hl_integral(T, cache=shared_cache))


def test_uncached_read_integrates_cell_by_cell(monkeypatch, shared_cache):
    # an uncached read builds its cells in groups of at most _GROUP_NODES
    # first-pass nodes, so no Z batch, and no memory, grows with T
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    res = hl_integral(5e3)
    assert len(sizes) > 1 and max(sizes) <= integral._GROUP_NODES
    assert res.node_count == sum(sizes)

    # nor does a warm-cache invert batch grow with the number of targets
    shared_cache.extend_to(2e4)
    rng = random.Random(26)
    targets = [rng.uniform(0.0, shared_cache.js[-1]) for _ in range(2000)]
    sizes.clear()
    roots = shared_cache.invert(targets)
    assert all(abs(j - target) <= 1e-9 * target for target, (_, j) in zip(targets, roots))
    assert len(sizes) > 2 and max(sizes) <= integral._GROUP_NODES


def _build_state(cache):
    knots = {i: tuple(a.tobytes() for a in arrays) for i, arrays in cache._knots.items()}
    return [(t.hex(), j.hex(), e.hex()) for t, j, e in zip(cache.ts, cache.js, cache.errs)], knots


def test_grouped_build_same_bits_as_cell_by_cell():
    # grouping cells into one Z call moves no bit of any checkpoint or
    # knot, wherever the group boundaries fall
    T = 6e4
    whole = CheckpointCache()
    want_nodes = whole.extend_to(T)
    want = _build_state(whole)
    uneven = CheckpointCache()
    nodes = 0
    for piece in (130.0, 1337.0, 1360.0, 9876.5, 31000.0, 31050.0, T):
        nodes += uneven.extend_to(piece)
    assert nodes == want_nodes and _build_state(uneven) == want
    single = CheckpointCache()
    nodes = sum(single.extend_to(DEFAULT_STRIDE * (i + 1)) for i in range(int(T / DEFAULT_STRIDE)))
    assert nodes == want_nodes and _build_state(single) == want
    assert len(whole.ts) == 1200


def test_cold_ascent_builds_cells_in_groups(monkeypatch):
    # a cold ascent builds below its root in groups, not one Z call per cell
    calls = []
    z_array = integral.z_array

    def counting(t):
        calls.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    cache = CheckpointCache()
    U = ascend(3e4, cache=cache)
    assert cache.ts[-1] - DEFAULT_STRIDE < U <= cache.ts[-1]
    assert len(calls) < len(cache.ts) / 5, (len(calls), len(cache.ts))


def test_representation_closed_form():
    phi = 137.0
    assert hl_representation(phi) == pytest.approx(
        phi * math.log(phi) + (EULER_GAMMA - LN_TWO_PI) * phi, rel=1e-15)
    for bad in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            hl_representation(bad)


@given(st.floats(min_value=2.0, max_value=1e8),
       st.floats(min_value=1e-6, max_value=10.0))
def test_representation_strictly_increasing(phi, d):
    assert hl_representation(phi + d) > hl_representation(phi)


def test_auto_tol_scales_with_width():
    wide = integrate_segment(100.0, 150.0)
    assert wide.abs_error_estimate <= AUTO_TOL_RATE * 50.0

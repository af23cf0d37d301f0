import bisect
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladderlab import integral
from ladderlab.constants import EULER_GAMMA, LN_TWO_PI, T_MAX
from ladderlab.errors import (CacheCorruptionError, DomainError, InfeasibleError, ToleranceError,
                              attempt)
from ladderlab.integral import (
    AUTO_TOL_RATE,
    CELL_TOL,
    DEFAULT_STRIDE,
    ENGINE_VERSION,
    CheckpointCache,
    hl_integral,
    hl_integral_all,
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
        assert list(shared_cache.ts[i - 1:i + 1]) == [c["a"], c["b"]]
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


def test_j_reads_within_estimate(j_reads, shared_cache):
    # reads between stored points, inside stride cells from [0, 50] to
    # [99900, 99950]: J(T) - J(a) lies within the estimate J(T) adds to
    # J(a)'s
    assert j_reads[0]["a"] == 0.0 and j_reads[-1]["a"] == 99900.0
    for lo, hi in ((0.0, 1e2), (1e2, 1e3), (1e3, 1e4), (1e4, 1e5)):
        assert sum(lo <= r["a"] < hi for r in j_reads) >= 3, (lo, hi)
    worst = 0.0
    for r in j_reads:
        assert r["a"] % DEFAULT_STRIDE == 0.0 and 0.5 <= r["T"] - r["a"] <= 4.0
        lo, hi = hl_integral(r["a"], cache=shared_cache), hl_integral(r["T"], cache=shared_cache)
        est = hi.abs_error_estimate - lo.abs_error_estimate
        assert r["rule_diff"] <= 1e-3 * est  # the oracle's own check
        ratio = abs(hi.value - lo.value - r["J"]) / est
        assert ratio <= 1.0, (r["T"], ratio)
        worst = max(worst, ratio)
    print(f"worst |J(T) - J(a) - oracle| / estimate = {worst:.3g}")


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
    assert list(cache.ts) == []


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
    assert list(cache.ts) == [50.0, 100.0]
    path = os.path.join(tmp_path, "cache.csv")
    cache.save(path)
    back = CheckpointCache.load(path)
    assert back.ts == cache.ts and back.js == cache.js

    # idempotent: extending to a lower bound adds nothing
    back.extend_to(90.0)
    assert back.ts == cache.ts


def test_kronrod_rule_table():
    # the read model's nodes: the 21 Kronrod abscissae, symmetric about
    # the centre, with the 10 Gauss-Legendre nodes at every other one
    x, n = integral._XK, integral._READ_NODES
    assert n == x.size == 21
    assert np.all(x == -x[::-1]) and np.all(np.diff(x) > 0.0) and x[n // 2] == 0.0
    assert np.max(np.abs(x[1::2] - np.polynomial.legendre.leggauss(10)[0])) <= 4e-16
    rng = np.random.default_rng(12)
    # the degree-20 interpolant p of the values of a polynomial of degree
    # <= 20 is that polynomial: its Legendre coefficients, and so its
    # integral over [-1, 1], twice the first
    for _ in range(50):
        c = rng.normal(size=rng.integers(1, n + 1))
        leg = integral._LEG @ np.polynomial.legendre.legval(x, c)
        assert leg.shape == (21,) and np.max(np.abs(leg[:c.size] - c)) <= 1e-13
        assert np.max(np.abs(leg[c.size:]), initial=0.0) <= 1e-13
    # invert() solves on the integral of p^2: for z of degree <= 20, p is
    # z, so over [-1, 1] it is the exact integral of z^2, the sum of
    # c_k^2 2 / (2k + 1) over z's Legendre coefficients c
    for _ in range(200):
        c = rng.normal(size=rng.integers(1, n + 1))
        z = np.polynomial.legendre.legval(x, c)
        scale = np.max(np.abs(z))
        exact = float(np.sum((c / scale) ** 2 * 2.0 / (2.0 * np.arange(c.size) + 1.0)))
        coef, prim, grid = integral._square_model(z / scale, 1.0)
        assert len(coef) == 21 and len(prim) == 42 and len(grid) == len(integral._GRID)
        assert abs(np.polynomial.legendre.legval(1.0, prim) - exact) <= 1e-13
        assert grid[0] == 0.0 and abs(grid[-1] - exact) <= 1e-13


def test_gauss_rule_table():
    # the 12-point Gauss-Legendre rule of every panel is exact through
    # degree 23 and no further
    x, w = integral._XGL, integral._WGL
    n = integral._GAUSS_NODES
    assert n == x.size == w.size == 12
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) <= 4e-16
    assert abs(w @ x**(2 * n) - 2.0 / (2 * n + 1)) > 1e-9
    assert np.all(x == -x[::-1]) and np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0) and np.all(w == w[::-1]) and abs(w.sum() - 2.0) <= 4e-16
    xg, wg = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xg)) <= 1e-15 and np.max(np.abs(w - wg)) <= 1e-15


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=42),
       st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=42),
       st.floats(min_value=-1.0, max_value=1.0))
def test_clenshaw_is_numpy_legval(c, d, x):
    # invert() solves on these two sums, evaluated in one loop; each must
    # keep numpy's bits
    c, d = sorted((c, d), key=len, reverse=True)
    want = [float(np.polynomial.legendre.legval(x, np.array(v))).hex() for v in (c, d)]
    assert [v.hex() for v in integral._legval_pair(x, c, d)] == want


def test_p_only_clenshaw_is_numpy_legval():
    # _read_in_panel evaluates P alone: on seeded panels and x, the same
    # bits as P from the pair loop and as numpy's legval
    rng = np.random.default_rng(27)
    for _ in range(50):
        coef, prim, _ = integral._square_model(rng.normal(size=integral._READ_NODES),
                                               rng.uniform(0.05, 0.5))
        for x in rng.uniform(-1.0, 1.0, 20).tolist():
            want = float(np.polynomial.legendre.legval(x, np.array(prim))).hex()
            assert integral._legval(x, prim).hex() == integral._legval_pair(x, prim, coef)[0].hex()
            assert integral._legval(x, prim).hex() == want


def _full_panels(lo):
    """The full-width panels starting at lo, as the panel rule cuts them."""
    return np.array([integral._panel_edges(t, t + 100.0)[1] for t in lo])


def test_panel_estimate_bounds_true_error():
    # against 40-node Gauss-Legendre on each half of full-width panels,
    # the 12-point Gauss rule with its a-priori bound plus the engine term:
    # near zero, where the panels are 0.8 wide up to t = 8, and on every
    # decade from just above the seam to T_MAX
    x40, w40 = np.polynomial.legendre.leggauss(40)
    rng = np.random.default_rng(2024)
    worst = {}
    for t in (0.0, 4.0, 20.0, 50.0, RS_SEAM, 3e2, 1e3, 3e3, 1e4, 3e4, 5.8e4, T_MAX - 100.0):
        lo = t + rng.uniform(0.0, 4.0 if t < RS_SEAM else 50.0, 40)
        lo[0] = t
        hi = _full_panels(lo)
        v, est, eng = integral._eval_panels(lo, hi)
        quarter = 0.25 * (hi - lo)
        ref = 0.0
        for mid in (lo + quarter, hi - quarter):
            z = integral.z_array((mid[:, None] + quarter[:, None] * x40).ravel()).reshape(-1, 40)
            ref = ref + (z**2 @ w40) * quarter
        ratio = np.abs(v - ref) / (est + eng)
        assert np.all(ratio <= 1.0), (t, ratio.max())
        worst[t] = float(ratio.max())
    print("worst |rule - GL40 on two halves| / err:",
          ", ".join(f"{t:g}: {r:.3g}" for t, r in worst.items()))


def test_panel_values_independent_of_batch():
    # a panel's value, rule estimate and engine error have the same bits
    # whatever other panels share its batch, near-zero and high panels mixed
    rng = np.random.default_rng(31)
    for P in range(1, 101, 3):
        lo = rng.choice([0.0, 4.0, 60.0, 3e4], P) + rng.uniform(0.0, 8.0, P)
        hi = _full_panels(lo)
        v, est, eng = integral._eval_panels(lo, hi)
        for k in range(P):
            av, aest, aeng = integral._eval_panels(lo[k:k + 1], hi[k:k + 1])
            assert (v[k], est[k], eng[k]) == (av[0], aest[0], aeng[0]), (P, k)


def _first_nodes(a, b):
    """The Z nodes of the panels of [a, b], 12 a panel."""
    return integral._GAUSS_NODES * (integral._panel_edges(a, b).size - 1)


def test_stride_cells_need_no_refinement():
    # every cell up to T_MAX meets CELL_TOL on its panels, each evaluated
    # once at the 12 Gauss nodes; a cell whose bound missed would raise
    cache = CheckpointCache()
    nodes = cache.extend_to(T_MAX)
    assert len(cache.ts) == T_MAX / DEFAULT_STRIDE
    assert nodes == sum(_first_nodes(t - DEFAULT_STRIDE, t) for t in cache.ts)
    worst_cell = max((b - a) / CELL_TOL for a, b in zip([0.0, *cache.errs], cache.errs))
    # nor does any final panel, the span between two adjacent stored
    # points, miss AUTO_TOL_RATE * max(width, 1) on its own, which is what
    # lets a read or an invert target evaluate its panel once; a panel's
    # estimate is the step in the stored errors
    worst = 0.0
    for i in range(len(cache.ts)):
        kt, _, ke = _knots(cache, i)
        t0, _, e0 = cache._point(i - 1)
        ts, errs = [t0, *kt, cache.ts[i]], [e0, *ke, cache.errs[i]]
        for a, b, ea, eb in zip(ts, ts[1:], errs, errs[1:]):
            worst = max(worst, (eb - ea) / (AUTO_TOL_RATE * max(b - a, 1.0)))
    print(f"worst cell estimate / CELL_TOL = {worst_cell:.3g}; worst final panel estimate / "
          f"its tolerance = {worst:.3g}")
    # the worst cell sits at the top cell, where the Gauss bound is widest;
    # the worst panel is [23.5, 30.4], a 7 pi panel below the seam, and the
    # 0.8-wide ones below t = 8 use at most 3e-5 of theirs
    assert 0.38 <= worst_cell <= 0.40
    assert 0.51 <= worst <= 0.52


def test_one_shot_check_passes_near_zero_and_across_the_seam():
    # seeded segments that start in [0, 8], where the panels are 0.8 wide,
    # or straddle the seam, from 1e-3 to 150 units: each meets its
    # tolerance on its panels in one evaluation
    rng = random.Random(8)
    spans = [(a, a + w) for a, w in ((rng.uniform(0.0, 8.0), rng.choice([1e-3, 0.3, 5.0, 150.0]))
                                     for _ in range(40))]
    spans += [(a, a + w) for a, w in ((rng.uniform(60.0, 100.0), rng.uniform(0.0, 150.0))
                                      for _ in range(20))]
    spans += [(0.0, 8.0), (7.9, 8.1), (99.9, 100.1), (0.0, RS_SEAM)]
    # slivers at t = 0, whose panels' ellipses would overflow a bound
    # computed without a cap
    spans += [(0.0, 5e-324), (0.0, 2.6e-205), (0.0, 1e-100)]
    for a, b in spans:
        seg = integrate_segment(a, b)
        assert seg.abs_error_estimate <= AUTO_TOL_RATE * max(b - a, 1.0), (a, b)
        assert seg.node_count == _first_nodes(a, b), (a, b)


def test_panel_rule_either_side_of_the_seam():
    # a panel starting at t is 0.8 wide below t = 8 and 7 pi / ln max(t, 20)
    # from it on, on either side of the seam; the last panel of a range
    # ends at its end
    for a, b in ((0.0, 50.0), (50.0, 100.0), (3.3, 20.0), (90.0, 130.0), (100.0, 150.0),
                 (5.8e4, 5.805e4)):
        edges = integral._panel_edges(a, b).tolist()
        assert edges[0] == a and edges[-1] == b
        for lo, hi in zip(edges, edges[1:]):
            width = 0.8 if lo < 8.0 else 7.0 * math.pi / math.log(max(lo, 20.0))
            assert hi == lo + width or (hi == b and hi < lo + width), (a, lo)


def _knots(cache, i):
    """Stride cell i's knots as (t, J, err) arrays, None if it holds none."""
    run = cache._knot_run(i)
    return run and tuple(a[run[0]:run[1]] for a in (cache._kt, cache._kj, cache._ke))


def test_cells_below_the_seam_keep_their_bits():
    # the two Euler-Maclaurin cells, on the one Gauss rule: their
    # checkpoints' bits are pinned, and J(100) lies within its estimate of
    # the mpmath oracle (test_j_oracle_values)
    cache = CheckpointCache()
    cache.extend_to(100.0)
    assert [j.hex() for j in cache.js] == ["0x1.cfa59df2e8a81p+6", "0x1.27a295da05c8bp+8"]
    assert [e.hex() for e in cache.errs] == ["0x1.2036e89ef097ap-12", "0x1.657d87eda96b6p-12"]


def test_cache_corruption(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write(f"# ladderlab cache v{ENGINE_VERSION} stride=50 tol=0.0015\n")
        fh.write("T,J,abs_err\n50,10,0\n40,20,0\n")
    with pytest.raises(CacheCorruptionError, match="not strictly increasing"):
        CheckpointCache.load(path)

    # non-finite values, refused by name with the row that holds them: a nan
    # or inf error passes every other check, and so does an inf J on the
    # last row; a nan J would otherwise be caught only as not increasing
    for rows, bad in (("50,10,0\n100,20,nan\n", "row 1"), ("50,10,inf\n100,20,0\n", "row 0"),
                      ("50,10,0\n100,inf,0\n", "row 1"), ("50,10,0\n100,nan,0\n", "row 1")):
        with open(path, "w") as fh:
            fh.write(f"# ladderlab cache v{ENGINE_VERSION} stride=50 tol=0.0015\nT,J,abs_err\n" + rows)
        with pytest.raises(CacheCorruptionError, match=f"cache {bad} holds a non-finite value"):
            CheckpointCache.load(path)

    # a row that is not three floats
    for rows in ("50,10\n", "50,10,0,0\n", "50,ten,0\n"):
        with open(path, "w") as fh:
            fh.write(f"# ladderlab cache v{ENGINE_VERSION} stride=50 tol=0.0015\nT,J,abs_err\n" + rows)
        with pytest.raises(CacheCorruptionError, match="bad cache"):
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
                          ("# ladderlab cache v7 stride=50 tol=0.0015\n", "version 7,"),
                          ("# ladderlab cache v8 stride=50 tol=0.0015\n", "version 8,"),
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
    # a segment evaluates each of its panels once, at 12 nodes; a rate
    # whose tolerance of 1e-10 on [0, 30] its panels' bounds miss raises
    # with the value and estimate attached, after that one evaluation
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    res = integrate_segment(0.0, 30.0)
    assert sizes == [res.node_count] == [12 * (integral._panel_edges(0.0, 30.0).size - 1)]
    sizes.clear()
    with monkeypatch.context() as m:
        m.setattr(integral, "AUTO_TOL_RATE", 1e-10 / 30.0)
        with pytest.raises(ToleranceError, match=r"panel error bound exceeds tol=1e-10 ") as exc:
            integrate_segment(0.0, 30.0)
    assert sizes == [res.node_count]
    assert exc.value.best_value == res.value and exc.value.best_error == res.abs_error_estimate

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


def test_read_evaluates_one_panel_and_a_stored_point_none(shared_cache, monkeypatch):
    # a stored point returns its stored J and estimate with no Z call; a
    # read between two stored points evaluates the one panel between
    # them and carries the estimate stored at the upper one
    shared_cache.extend_to(2e4)
    kt, kj, ke = _knots(shared_cache, 200)
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    for t, j, e in [*zip(kt, kj, ke), shared_cache._point(200)]:
        res = hl_integral(t, cache=shared_cache)
        assert (res.value, res.abs_error_estimate, res.node_count) == (j, e, 0)
    assert sizes == []
    res = hl_integral(0.5 * (kt[3] + kt[4]), cache=shared_cache)
    assert sizes == [integral._READ_NODES] == [res.node_count]
    assert res.abs_error_estimate == ke[4] and kj[3] < res.value < kj[4]


def _read_bits(res):
    return (res.value.hex(), res.abs_error_estimate.hex(), res.node_count)


def test_batched_reads_same_bits_as_sequential_reads(monkeypatch):
    # a batch on a fresh cache extends and fills in input order, so each
    # slot has the value, estimate and node_count of a sequential read
    # on another fresh cache: reads out of order, repeated, on a stored
    # point, in a cell a loaded cache must fill, and a T past T_MAX that
    # fails alone
    rng = random.Random(33)
    Ts = [rng.uniform(0.0, 3e3) for _ in range(12)] + [1000.0, 0.0, 2.5e3, 40.0]
    Ts[5:5] = [1.2e5, Ts[2]]
    sizes = []
    z_array = integral.z_array
    monkeypatch.setattr(integral, "z_array", lambda t: sizes.append(t.size) or z_array(t))
    sequential = CheckpointCache()
    want = []
    for T in Ts:
        sizes.clear()
        want.append(attempt(hl_integral, T, sequential))
        assert isinstance(want[-1], InfeasibleError) or want[-1].node_count == sum(sizes)
    assert type(want[5]) is InfeasibleError and want[14].node_count == 0  # T = 1000
    batched = CheckpointCache()
    got = hl_integral_all(Ts, batched)
    assert type(got[5]) is InfeasibleError and str(got[5]) == str(want[5])
    del got[5], want[5]
    assert [_read_bits(r) for r in got] == [_read_bits(r) for r in want]
    assert batched == sequential
    # on the warm cache, one Z call of one panel per read between stored points
    sizes.clear()
    assert [_read_bits(r)[:2] for r in hl_integral_all(Ts[:5] + Ts[6:], batched)] == [
        _read_bits(r)[:2] for r in got]
    assert sizes == [integral._READ_NODES * (len(Ts) - 4)]  # 1.2e5, 1000, 0, 2500 make none
    # a loaded cache fills the cells it reads, with the same bits
    loaded = CheckpointCache(ts=batched.ts, js=batched.js, errs=batched.errs)
    assert [_read_bits(r)[:2] for r in hl_integral_all(Ts[:5] + Ts[6:], loaded)] == [
        _read_bits(r)[:2] for r in got]


def test_invert_returns_the_plain_read_of_j_at_its_root(shared_cache, monkeypatch):
    # seeded targets, plus the J values of knots and checkpoints, whose
    # roots sit on a stored point (a zero-width tail)
    shared_cache.extend_to(2e4)
    rng = random.Random(21)
    targets = [rng.uniform(30.0, shared_cache.js[-1]) for _ in range(20)]
    for i in (3, 150, 390):
        targets += [_knots(shared_cache, i)[1][1], shared_cache.js[i]]
    rng.shuffle(targets)
    for target, (U, j) in zip(targets, shared_cache.invert(targets)):
        assert j.hex() == hl_integral(U, cache=shared_cache).value.hex()
        assert abs(j - target) <= 1e-9 * target

    # every stored point of ten cells inverts to itself, and its tail has
    # no panel: only the targets' knot intervals are evaluated, in one
    # Z call
    stored = []
    for i in range(3, 400, 40):
        kt, kj, _ = _knots(shared_cache, i)
        stored += [*zip(kt, kj), (shared_cache.ts[i], shared_cache.js[i])]
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    assert shared_cache.invert([j for _, j in stored]) == stored
    assert sizes == [integral._READ_NODES * len(stored)]


def test_invert_targets_just_below_a_stored_j(shared_cache, tmp_path):
    # U is solved on the integral P of p^2, which over a whole panel
    # differs from the stored increment j1 - j0 by rule and model error
    # (up to 6.8e-8 on full Gauss panels), so a target just below j1 can
    # lie past P's total; U stays in [t0, t1], on a warm cache and on a
    # loaded one that must fill its knots
    shared_cache.extend_to(2e4)
    path = os.path.join(tmp_path, "cache.csv")
    CheckpointCache(ts=shared_cache.ts[:400], js=shared_cache.js[:400],
                    errs=shared_cache.errs[:400]).save(path)
    loaded = CheckpointCache.load(path)
    spans = []
    for i in (3, 150, 390):
        kt, kj, _ = _knots(shared_cache, i)
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
    end = 1e4 + 2.0
    z = next(integral._panel_z([(1e4, end)]))
    total = integral._square_model(z, 1.0)[2][-1]
    assert integral._solve_in_panel(total + 1e-9, 1e4, end, z)[0] == end
    assert integral._solve_in_panel(0.0, 1e4, end, z)[0] == 1e4


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
    assert all(loaded._knot_run(i) is None for i in rows)


def test_invert_fills_loaded_cells_in_one_grouped_pass(shared_cache, tmp_path, monkeypatch):
    # the cells of a loaded cache that a batch of targets lands in are
    # filled together, in groups of at most _GROUP_NODES nodes, not one Z
    # call per cell, and every root keeps the warm cache's bits
    shared_cache.extend_to(2e4)
    path = os.path.join(tmp_path, "cache.csv")
    CheckpointCache(ts=shared_cache.ts[:400], js=shared_cache.js[:400],
                    errs=shared_cache.errs[:400]).save(path)
    loaded = CheckpointCache.load(path)
    rng = random.Random(44)
    targets = [rng.uniform(0.0, shared_cache.js[399]) for _ in range(100)]
    want = [(U.hex(), j.hex()) for U, j in shared_cache.invert(targets)]
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    assert [(U.hex(), j.hex()) for U, j in loaded.invert(targets)] == want
    filled = sum(loaded._knot_run(i) is not None for i in range(len(loaded.ts)))
    assert filled > 80 and max(sizes) <= integral._GROUP_NODES
    assert len(sizes) <= math.ceil(sum(sizes) / integral._GROUP_NODES) + 1, sizes


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
    # the loaded cache filled its cells in the shuffled order of the reads,
    # into the same cache-wide knot arrays, and holds the same knots per cell
    assert loaded._kt != cache._kt
    for i in range(len(cache.ts)):
        assert _knots(loaded, i) == _knots(cache, i), i


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
    # nodes, each panel evaluated once, so no Z batch, and no memory,
    # grows with T
    sizes = []
    z_array = integral.z_array

    def counting(t):
        sizes.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    res = hl_integral(5e3)
    assert len(sizes) > 1 and max(sizes) <= integral._GROUP_NODES
    assert res.node_count == sum(sizes)
    # each group but the last build group (then the read's panel) is full
    # to within one cell, at 12 nodes a panel
    cell = max(_first_nodes(a, a + DEFAULT_STRIDE) for a in np.arange(0.0, 5e3, DEFAULT_STRIDE))
    assert all(n > integral._GROUP_NODES - cell for n in sizes[:-2]), sizes

    # nor does a warm-cache invert batch grow with the number of targets
    shared_cache.extend_to(2e4)
    rng = random.Random(26)
    targets = [rng.uniform(0.0, shared_cache.js[-1]) for _ in range(2000)]
    sizes.clear()
    roots = shared_cache.invert(targets)
    assert all(abs(j - target) <= 1e-9 * target for target, (_, j) in zip(targets, roots))
    assert len(sizes) > 2 and max(sizes) <= integral._GROUP_NODES


def _build_state(cache):
    knots = {i: tuple(a.tobytes() for a in _knots(cache, i)) for i in range(len(cache.ts))}
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

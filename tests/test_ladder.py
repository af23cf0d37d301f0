import math
import random

import pytest
from hypothesis import given, strategies as st

from ladderlab import gram, integral, ladder
from ladderlab.constants import T_FLOOR
from ladderlab.errors import BracketError, DomainError, InfeasibleError, ToleranceError
from ladderlab.fermat import FUNCTIONAL_IDS, enumerate_fermat_rationals, evaluate_equivalent
from ladderlab.gammalab import ln_gamma
from ladderlab.integral import DEFAULT_STRIDE, CheckpointCache, hl_integral, hl_representation
from ladderlab.ladder import ascend, ascend_all, build_tower, descend


def test_roundtrip_at_1000(shared_cache, calibration):
    up = ascend(1000.0, cache=shared_cache)
    assert up == pytest.approx(calibration["ladder"]["ascend_1000"], rel=1e-9)
    back = descend(up, cache=shared_cache)
    assert abs(back - 1000.0) <= 2e-6


def test_descend_same_bits_with_or_without_cache(shared_cache):
    assert descend(1000.0) == descend(1000.0, cache=shared_cache)
    assert descend(1000.0) == descend(1000.0, cache=CheckpointCache())


def test_descend_matches_calibration(shared_cache, calibration):
    assert descend(100.0, cache=shared_cache) == pytest.approx(
        calibration["ladder"]["descend_100"], rel=1e-9)
    assert descend(1000.0, cache=shared_cache) == pytest.approx(
        calibration["ladder"]["descend_1000"], rel=1e-9)


def test_ascent_defining_equation(shared_cache):
    # J at the ascent equals the closed-form representation at the base
    T = 700.0
    up = ascend(T, cache=shared_cache)
    j_up = hl_integral(up, cache=shared_cache)
    assert abs(j_up.value - hl_representation(T)) <= 1e-4 + j_up.abs_error_estimate


def test_descent_defining_equation(shared_cache):
    T = 700.0
    phi = descend(T, cache=shared_cache)
    j_t = hl_integral(T, cache=shared_cache)
    assert abs(hl_representation(phi) - j_t.value) <= 1e-4 + j_t.abs_error_estimate


def _log_uniform(seed, n, lo, hi):
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]


def _bisect(f, lo, hi):
    """60 bisection steps on an increasing f with f(lo) < 0 <= f(hi)."""
    assert f(lo) < 0.0 <= f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_ascent_and_descent_are_roots(shared_cache):
    # each solve returns the root of its defining equation, not a point
    # that merely meets the residual tolerance
    for T in _log_uniform(3, 8, 1e2, 5e4):
        target = hl_representation(T)
        root = _bisect(lambda U: hl_integral(U, cache=shared_cache).value - target,
                       T, T + 1.5 * T / math.log(T))
        assert ascend(T, cache=shared_cache) == pytest.approx(root, rel=1e-12, abs=0.0)
        j_t = hl_integral(T, cache=shared_cache).value
        root = _bisect(lambda phi: hl_representation(phi) - j_t, 2.0, T)
        assert descend(T, cache=shared_cache) == pytest.approx(root, rel=1e-12, abs=0.0)


def test_ascent_residuals_stay_far_below_their_bound(shared_cache):
    # an ascent solves on the integral of p^2, p the degree-20 interpolant
    # of Z on the root's 7 pi panel, and J(U) is read off the same model:
    # these 300 log-uniform roots read 1.2e-9 at most, and the 2,400
    # uniform ones 1.7e-9, against the certified 1e-5 (4.0e-9 and 5.5e-9
    # when J(U) was a K21 tail from the knot below U; an interpolant of
    # Z^2 itself gave 1.1e-7 on the 300)
    shared_cache.extend_to(6e4)
    rng = random.Random(31)
    for Ts in (_log_uniform(29, 300, 1e2, 5e4), [rng.uniform(1e2, 5e4) for _ in range(2400)]):
        res = ascend_all(Ts, shared_cache)
        assert max(abs(r[1]) for r in res) <= 1e-8


def test_row_z_call_budget(shared_cache, monkeypatch):
    # on a warm cache a row's rungs are all ascended together in one Z
    # call, on the one panel above every root's knot: invert() solves on
    # its model and reads the certifying J(U) off the same model, so at
    # most 21 Z nodes per rung
    shared_cache.extend_to(5.5e4)
    calls, nodes, rungs = [], [], []
    z_array = integral.z_array
    invert = CheckpointCache.invert

    def counting(t):
        calls[-1] += 1
        nodes[-1] += len(t)
        return z_array(t)

    def counting_invert(self, targets):
        rungs[-1] += len(targets)
        return invert(self, targets)

    monkeypatch.setattr(integral, "z_array", counting)
    monkeypatch.setattr(CheckpointCache, "invert", counting_invert)
    for q in enumerate_fermat_rationals(3, 6)[::7]:
        calls.append(0)
        nodes.append(0)
        rungs.append(0)
        row = evaluate_equivalent("gamma", q, cache=shared_cache)
        assert row.tau_max is not None
    assert calls == [1] * len(calls), calls
    assert all(n <= integral._READ_NODES * r for n, r in zip(nodes, rungs)), (nodes, rungs)


def test_row_reads_and_gram_rungs_share_one_call(shared_cache, monkeypatch):
    # on a warm cache a zeta-* row reads all its J(T) in one Z call, and a
    # t1/t2 row makes two: its ascents, then one Gram solve and one
    # z_array call for all its rungs
    shared_cache.extend_to(5.5e4)
    calls, solves = [], []
    for mod in (integral, gram):
        f = mod.z_array
        monkeypatch.setattr(mod, "z_array", lambda t, f=f: calls.append(t.size) or f(t))
    solve = gram._solve_theta_equals
    monkeypatch.setattr(gram, "_solve_theta_equals", lambda x: solves.append(x.size) or solve(x))
    rows = 0
    for fid in FUNCTIONAL_IDS:
        if not fid.startswith(("zeta", "t1", "t2")):
            continue
        for q in enumerate_fermat_rationals(3, 6)[::7]:
            calls.clear()
            solves.clear()
            row = evaluate_equivalent(fid, q, cache=shared_cache)
            if row.tau_max is None:
                continue
            rows += 1
            assert (len(calls), len(solves)) == ((1, 0) if fid.startswith("zeta") else (2, 1)), (
                fid, q, calls, solves)
    assert rows >= 20


def _reference_rungs(Ts, cache):
    """(U, J(U) - representation(T)) by one ascend and one plain J read per T."""
    out = []
    for T in Ts:
        U = ascend(T, cache=cache)
        out.append((U.hex(), (hl_integral(U, cache=cache).value - hl_representation(T)).hex()))
    return out


def _hexes(results):
    return [r if isinstance(r, Exception) else (r[0].hex(), r[1].hex()) for r in results]


def test_ascend_all_same_bits_as_one_at_a_time(shared_cache, tmp_path):
    # a batch in any order gives each T the bits of its own ascent and of
    # a plain J(U) read, on a warm cache, on a loaded one that must fill
    # knots and extend past its last row, and on a fresh one
    Ts = _log_uniform(17, 20, 1e2, 5e4)
    shared_cache.extend_to(5.5e4)
    want = _reference_rungs(Ts, shared_cache)
    path = str(tmp_path / "j.csv")
    rows = 400  # through T = 2e4
    CheckpointCache(ts=shared_cache.ts[:rows], js=shared_cache.js[:rows],
                    errs=shared_cache.errs[:rows]).save(path)
    for cache in (shared_cache, CheckpointCache.load(path), CheckpointCache()):
        assert _hexes(ascend_all(Ts, cache)) == want


def test_ascend_all_keeps_each_error_in_its_slot(shared_cache):
    # a T whose rung passes T_MAX and one below the floor fail alone
    Ts = _log_uniform(19, 6, 1e2, 5e4)
    shared_cache.extend_to(5.5e4)
    want = _reference_rungs(Ts, shared_cache)
    got = ascend_all(Ts[:2] + [9.9e4] + Ts[2:4] + [99.0] + Ts[4:], shared_cache)
    for k, T, exc_type in ((5, 99.0, DomainError), (2, 9.9e4, InfeasibleError)):
        bad = got.pop(k)
        with pytest.raises(exc_type) as one:
            ascend(T, cache=shared_cache)
        assert type(bad) is exc_type and str(bad) == str(one.value)
    assert _hexes(got) == want


def test_ascent_past_t_max_refused_before_any_build(shared_cache):
    # representation(9.9e4) exceeds the mean value of J just past T_MAX,
    # so the ascent is refused before the cache grows by a cell
    shared_cache.extend_to(5.5e4)
    rows = len(shared_cache.ts)
    with pytest.raises(InfeasibleError, match="past T_MAX"):
        ascend(9.9e4, cache=shared_cache)
    assert len(shared_cache.ts) == rows


def test_ascend_same_bits_on_any_cache(shared_cache, tmp_path):
    # the root depends only on T: a loaded cache (no knots until a read
    # fills the root's cell) and a fresh one give the bits of a warm one
    path = str(tmp_path / "j.csv")
    shared_cache.extend_to(2.5e4)
    shared_cache.save(path)
    loaded = CheckpointCache.load(path)
    fresh = CheckpointCache()
    for T in sorted(_log_uniform(11, 3, 1e2, 2e4)):
        U = ascend(T, cache=shared_cache)
        assert ascend(T, cache=loaded).hex() == U.hex()
        assert ascend(T, cache=fresh).hex() == U.hex()
        # the fresh cache was extended only through the root's stride cell
        assert fresh.ts[-1] - DEFAULT_STRIDE < U <= fresh.ts[-1]


@given(st.floats(min_value=150.0, max_value=4e3))
def test_ascend_strictly_above(shared_cache, T):
    assert ascend(T, cache=shared_cache) > T


@given(st.floats(min_value=150.0, max_value=4e3))
def test_descend_strictly_below(shared_cache, T):
    assert descend(T, cache=shared_cache) < T


def test_floor_enforced(shared_cache):
    for fn in (ascend, descend):
        with pytest.raises(DomainError):
            fn(99.0, cache=shared_cache)


def test_non_finite_ordinate_refused_before_any_build():
    cache = CheckpointCache()
    for bad in (math.nan, math.inf):
        for call in (ascend, descend, lambda T, cache: build_tower(T, 1, cache=cache)):
            with pytest.raises(DomainError, match=f"T >= {T_FLOOR}, got T={bad}"):
                call(bad, cache=cache)
        (res,) = ascend_all([bad], cache)
        assert type(res) is DomainError and f"T >= {T_FLOOR}, got T={bad}" in str(res)
    assert len(cache.ts) == 0


def test_tower_structure(shared_cache, calibration):
    tower = build_tower(5000.0, 3, cache=shared_cache)
    assert tower.k == 3
    assert len(tower.iterates) == 4
    assert tower.iterates[0] == 5000.0
    ref = calibration["ladder"]["tower_5000_k3"]
    for got, want in zip(tower.iterates, ref):
        assert got == pytest.approx(want, rel=1e-9)
    its = tower.iterates
    assert all(b > a for a, b in zip(its, its[1:]))
    assert len(tower.residuals) == 3
    assert all(abs(r) <= 1e-5 for r in tower.residuals)


def test_tower_tolerance_error_keeps_best_estimate(shared_cache, monkeypatch):
    root = ascend(1000.0, cache=shared_cache)
    # the residual bound is fixed at 10 * DEFAULT_RESIDUAL_TOL; tighten it
    # past what any ascent meets
    monkeypatch.setattr(ladder, "DEFAULT_RESIDUAL_TOL", 1e-14)
    with pytest.raises(ToleranceError, match="^rung 1: ascend residual") as exc:
        build_tower(1000.0, 1, cache=shared_cache)
    err, cause = exc.value, exc.value.__cause__
    assert isinstance(cause, ToleranceError)
    assert (err.best_value, err.best_error) == (cause.best_value, cause.best_error)
    assert err.best_value == pytest.approx(root, rel=1e-9)
    assert err.best_error > 1e-13


def test_root_not_above_t_is_a_bracket_error(monkeypatch):
    # an invert that returns U = T: ascend_all turns it into a BracketError
    # in its slot, and build_tower re-raises it as rung 1's
    monkeypatch.setattr(CheckpointCache, "invert",
                        lambda self, targets: [(1000.0, t) for t in targets])
    (res,) = ascend_all([1000.0], CheckpointCache())
    assert type(res) is BracketError and "inconsistent engine state" in str(res)
    with pytest.raises(BracketError, match="^rung 1: J\\(T\\) > representation\\(T\\)"):
        build_tower(1000.0, 2, cache=CheckpointCache())


def test_tower_k_validation(shared_cache):
    # a non-integral k raised a TypeError out of range()
    for bad in (0, 1.5, math.nan, "2"):
        with pytest.raises(DomainError):
            build_tower(1000.0, bad, cache=shared_cache)


def test_lngamma_increment_pair(shared_cache):
    # J is read off the cache, as every library read of J is
    lo, hi = build_tower(1000.0, 1, cache=shared_cache).iterates
    lg_inc = ln_gamma(hi) - ln_gamma(lo)
    rung = hl_integral(hi, cache=shared_cache).value - hl_integral(lo, cache=shared_cache).value
    # both sides are increments over the same rung; same scale, same sign
    assert lg_inc > 0.0 and rung > 0.0
    assert 0.3 <= lg_inc / rung <= 3.0

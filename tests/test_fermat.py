import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import numpy as np

from ladderlab import fermat
from ladderlab.arith import divisor_count
from ladderlab.constants import EULER_GAMMA, T_FLOOR
from ladderlab.errors import DomainError, InfeasibleError
from ladderlab.fermat import (
    DEFAULT_T_CAP,
    DEFAULT_TAU_GRID,
    FUNCTIONAL_IDS,
    FermatRational,
    enumerate_fermat_rationals,
    evaluate_equivalent,
    exhaustive_exact_check,
    scan,
)
from ladderlab.gammalab import ln_gamma, pi_via_gamma, verify_chain, verify_factorization_D
from ladderlab.integral import CheckpointCache
from ladderlab.ladder import ascend, build_tower


def test_rational_exact_arithmetic():
    q = FermatRational(6, 8, 9, 3)
    assert q.numerator == 728
    assert q.fraction == Fraction(728, 729)
    assert q.value == 728 / 729


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6), st.integers(3, 60))
@example(10**6, 1, 1, 60)  # 1e360 overflows
@example(1, 1, 10**6, 60)  # 2e-360 underflows to 0
def test_rational_value_is_the_fraction_rounded(x, y, z, n):
    q = FermatRational(x, y, z, n)
    try:
        want = float(q.fraction)
    except OverflowError:
        with pytest.raises(InfeasibleError, match="does not fit a float"):
            q.value
    else:
        assert q.value == want


def test_rational_validation():
    # a fractional entry is refused, not served as q = 4.375; an integral
    # float is stored as an int, so q keeps exact integer arithmetic
    for bad in ((0, 1, 1, 3), (1, 1, 1, 2), (1.5, 1, 1, 3), (1, 1, 2, 3.5), (1, 1, math.nan, 3),
                ("1", 1, 1, 3)):
        with pytest.raises(DomainError):
            FermatRational(*bad)
    q = FermatRational(1.0, 2, 2.0, 3.0)
    assert q == FermatRational(1, 2, 2, 3) and type(q.z) is int and q.fraction == Fraction(9, 8)


def _enumeration_reference(n, max_xyz, window=None):
    """(|q - 1|, x, y, z) of each distinct q, its least witness, sorted:
    every triple with x <= y, visited in descending order, so the least
    witness is found by min() and not by visit order."""
    witnesses = {}
    for x, y, z in itertools.product(range(max_xyz, 0, -1), repeat=3):
        q = Fraction(x ** n + y ** n, z ** n)
        if x <= y and (window is None or window[0] < q < window[1]):
            witnesses.setdefault(q, []).append((x, y, z))
    return sorted((abs(q - 1), *min(ws)) for q, ws in witnesses.items())


def _enumeration_keys(rs):
    return [(abs(r.fraction - 1), r.x, r.y, r.z) for r in rs]


def test_enumeration_small():
    rs = enumerate_fermat_rationals(3, 2)
    vals = sorted(float(r.fraction) for r in rs)
    assert vals == [0.25, 1.125, 2.0, 9.0, 16.0]
    # sorted by distance from 1, witness triples lexicographically minimal
    assert [r.fraction for r in rs] == [
        Fraction(9, 8), Fraction(1, 4), Fraction(2), Fraction(9), Fraction(16)]
    assert (rs[0].x, rs[0].y, rs[0].z) == (1, 2, 2)
    for n in (3, 4, 5):
        for max_xyz in (1, 2, 7, 13):
            rs = enumerate_fermat_rationals(n, max_xyz)
            assert all(r.n == n for r in rs)
            assert _enumeration_keys(rs) == _enumeration_reference(n, max_xyz)


def test_enumeration_window():
    rs = enumerate_fermat_rationals(3, 12, window=(0.99, 1.01))
    assert Fraction(728, 729) in {r.fraction for r in rs}
    assert all(0.99 < float(r.fraction) < 1.01 for r in rs)
    assert all(abs(a.fraction - 1) <= abs(b.fraction - 1)
               for a, b in zip(rs, rs[1:]))
    for n in (3, 4, 5):
        for window in ((0.99, 1.01), (0.5, 1.5), (1.0, 2.0)):
            rs = enumerate_fermat_rationals(n, 12, window=window)
            assert rs and all(r.n == n for r in rs)
            assert _enumeration_keys(rs) == _enumeration_reference(n, 12, window)


def test_enumeration_dedupes_scaled_triples():
    rs = enumerate_fermat_rationals(3, 4)
    # (1,1,1) and (2,2,2) both give q = 2; only one row survives
    twos = [r for r in rs if r.fraction == 2]
    assert len(twos) == 1
    assert (twos[0].x, twos[0].y, twos[0].z) == (1, 1, 1)


def test_enumeration_validation():
    # a non-integral n or max_xyz raised a bare TypeError
    for n, max_xyz in ((2, 5), (3, 0), (3, 3.5), (3.5, 3)):
        with pytest.raises(DomainError):
            enumerate_fermat_rationals(n, max_xyz)
    assert enumerate_fermat_rationals(3.0, 4.0) == enumerate_fermat_rationals(3, 4)


def test_bool_count_refused(shared_cache):
    # True was taken as 1: build_tower(1000.0, True) served a one-rung
    # tower and enumerate_fermat_rationals(3, True) enumerated max_xyz = 1
    for call in (lambda b: FermatRational(b, 1, 1, 3), lambda b: FermatRational(1, 1, 1, b),
                 lambda b: enumerate_fermat_rationals(3, b),
                 lambda b: enumerate_fermat_rationals(b, 3),
                 lambda b: exhaustive_exact_check((3,), b), lambda b: divisor_count(b),
                 lambda b: build_tower(1000.0, b, cache=shared_cache),
                 lambda b: pi_via_gamma(1000.0, b, cache=shared_cache),
                 lambda b: verify_chain(1000.0, b, cache=shared_cache)):
        for bad in (True, False, np.True_):
            with pytest.raises(DomainError):
                call(bad)
    # numpy integers stay counts
    q = FermatRational(np.int64(6), np.int32(8), np.uint8(9), np.int64(3))
    assert q == FermatRational(6, 8, 9, 3)
    assert enumerate_fermat_rationals(np.int64(3), np.int64(4)) == enumerate_fermat_rationals(3, 4)
    tower = build_tower(1000.0, np.int64(2), cache=shared_cache)
    assert tower == build_tower(1000.0, 2, cache=shared_cache)


def test_exact_check_counts():
    assert exhaustive_exact_check((3,), 10) == 10 * (10 * 11 // 2)
    for n_values, max_xyz in (((2,), 5), ((3,), 2.5), ((3.5,), 2)):
        with pytest.raises(DomainError):
            exhaustive_exact_check(n_values, max_xyz)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30), st.integers(min_value=3, max_value=6))
def test_no_exact_solutions_property(x, y, z, n):
    assert x ** n + y ** n != z ** n


def test_unknown_functional_rejected():
    q = FermatRational(1, 1, 1, 3)
    with pytest.raises(DomainError):
        evaluate_equivalent("nonsense", q)
    with pytest.raises(DomainError):
        scan(["nonsense"], n=3, max_xyz=2)


def test_row_schema_and_statuses(shared_cache):
    q2 = FermatRational(1, 1, 1, 3)
    row = evaluate_equivalent("zeta-segment", q2, cache=shared_cache, t_cap=1e4)
    d = row.to_dict()
    assert set(d) == {"functional", "x", "y", "z", "n", "q", "tau_max",
                      "value", "target", "forbidden", "distance",
                      "est_error", "status", "note"}
    assert row.status == "resolved"
    assert row.distance > row.est_error
    assert row.forbidden == 1.0 and row.target == 2.0


def test_exp_scale_guard(shared_cache):
    # tau^16 cannot stay inside the engine range: hard infeasibility
    q16 = FermatRational(2, 2, 1, 3)
    row = evaluate_equivalent("zeta-log", q16, cache=shared_cache, t_cap=1e4)
    assert row.status == "infeasible"
    assert row.value is None and row.distance is None
    assert "no feasible tau" in row.note
    # q = 1/864: 100**864 overflows float64, so no tau reaches the floor
    tiny = FermatRational(1, 1, 12, 3)
    for fid in ("zeta-log", "d-log"):
        row = evaluate_equivalent(fid, tiny, cache=shared_cache, t_cap=1e4)
        assert row.status == "infeasible"
        assert "no feasible tau" in row.note


def test_linear_scale_cap_is_unresolved(shared_cache):
    # huge q pushes every rung past the engine cap; flagged, not fatal
    q_big = FermatRational(12, 12, 1, 3)
    row = evaluate_equivalent("gamma", q_big, cache=shared_cache, t_cap=1e4)
    assert row.status == "unresolved at desk scale"
    assert row.value is None


def test_gamma_exp_overflow_guard(shared_cache):
    big = FermatRational(12, 12, 1, 3)  # q = 3456, e^q overflows
    row = evaluate_equivalent("gamma-exp", big, cache=shared_cache, t_cap=1e4)
    assert row.status == "infeasible"
    assert row.target is None


def test_t1_t2_forbidden_constants(shared_cache):
    q2 = FermatRational(1, 1, 1, 3)
    r1 = evaluate_equivalent("t1", q2, cache=shared_cache, t_cap=1e4)
    assert r1.forbidden == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert r1.target == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_scan_report_shape(shared_cache):
    rep = scan(["zeta-segment", "gamma"], n=3, max_xyz=2,
               cache=shared_cache, t_cap=1e4)
    assert len(rep.rows) == 10
    # all functional ids grouped, rationals ordered by |q - 1| within
    assert [r.functional for r in rep.rows[:5]] == ["zeta-segment"] * 5
    parsed = json.loads(rep.to_json())
    assert parsed["n"] == 3 and parsed["max_xyz"] == 2
    assert len(parsed["rows"]) == 10
    assert parsed["metadata"]["t_cap"] == 1e4


def test_scan_window_passthrough(shared_cache):
    rep = scan(["gamma"], n=3, max_xyz=9, window=(0.99, 1.01),
               cache=shared_cache, t_cap=1e4)
    assert all(0.99 < r.q < 1.01 for r in rep.rows)
    assert any((r.x, r.y, r.z) == (6, 8, 9) for r in rep.rows)
    parsed = json.loads(rep.to_json())
    assert parsed["window"] == [0.99, 1.01]


def test_bad_window_refused_before_any_row(monkeypatch):
    # a non-finite edge would reach the serializer only after every row
    cache = CheckpointCache()
    monkeypatch.setattr(fermat, "evaluate_equivalent", lambda *a: pytest.fail("row built"))
    for window in ((math.nan, 2.0), (0.5, math.inf), (-math.inf, 1.5), (1.0,), (0.5, 1.0, 1.5),
                   (2.0, 1.0), (1.0, 1.0), ("a", "b"), 1.5):
        with pytest.raises(DomainError, match="window must be two finite numbers lo < hi"):
            enumerate_fermat_rationals(3, 3, window)
        with pytest.raises(DomainError, match="window must be two finite numbers lo < hi"):
            scan(["gamma"], 3, 2, (1e2, 1e3), window, cache=cache)
    assert len(cache.ts) == 0


def test_non_finite_tau_grid_refused_before_any_row():
    # refused before any row, not after every row by the serializer; a
    # repeated tau would make the error bar divide by zero, and a
    # descending grid would take drift and extrapolation out of tau order
    cache = CheckpointCache()
    for grid in ([math.nan], [1e2, math.inf], [1e4, 1e4], [3e3, 3e2]):
        with pytest.raises(DomainError, match="tau_grid must be finite"):
            scan(["gamma"], n=3, max_xyz=3, tau_grid=grid, cache=cache)
    assert len(cache.ts) == 0
    # a row refuses it too, as an error rather than an unresolved row
    for grid in ((1e4, 1e4), (3e3, 3e2), (1e2, math.nan)):
        with pytest.raises(DomainError, match="strictly ascending"):
            evaluate_equivalent("gamma", FermatRational(1, 1, 1, 3), grid, cache)
    assert len(cache.ts) == 0


def test_rational_past_float_range_is_a_labeled_row(shared_cache):
    # the row derives q, its target and multipliers inside its guard: q =
    # 2/2^1100 rounds to 0 and raised ZeroDivisionError out of the tau
    # window, a z^n past float64 raised OverflowError out of a ratio's
    # multipliers, and a q past it raised InfeasibleError before the row
    row = evaluate_equivalent("gamma", FermatRational(2, 2, 1, 1100), cache=shared_cache)
    assert (row.q, row.target, row.value, row.est_error) == (None, None, None, None)
    assert row.status == "unresolved at desk scale" and "does not fit a float" in row.note
    ids = ["gamma", "zeta-ratio", "zeta-log-ratio", "gamma-exp", "d-log"]
    rep = scan(ids, n=1100, max_xyz=2, cache=shared_cache)
    rows = {(r.functional, r.x, r.y, r.z): r for r in rep.rows}
    assert len(rows) == len(rep.rows) == 5 * len(ids)
    hard = {"zeta-log-ratio", "gamma-exp", "d-log"}
    for f in ids:
        tiny = rows[f, 1, 1, 2]
        assert tiny.q == 0.0 and tiny.value is None and "rounds to 0" in tiny.note
        for x in (1, 2):
            assert rows[f, x, 2, 1].q is None and "does not fit a float" in rows[f, x, 2, 1].note
        for key in ((f, 1, 1, 2), (f, 1, 2, 1), (f, 2, 2, 1)):
            assert rows[key].status == ("infeasible" if f in hard else "unresolved at desk scale")
        assert rows[f, 1, 1, 1].status == "resolved"
    # q = 1 + 2^-1100 is served as 1.0, but x^n and z^n fit no float
    near_one = rows["zeta-ratio", 1, 2, 2]
    assert near_one.q == 1.0 and "does not fit a float" in near_one.note
    assert json.loads(rep.to_json())["rows"][0]["functional"] == "gamma"


def test_row_refuses_the_t_caps_scan_refuses(shared_cache):
    # a row refuses what scan refuses, as an error rather than a row: a
    # non-finite cap would be a solver row, one below T_FLOOR a row with
    # no feasible tau, one past T_MAX's reach a row missing its J target
    shared_cache.extend_to(2e3)
    rows = len(shared_cache.ts)
    q = FermatRational(1, 1, 1, 3)
    for t_cap, error, what in ((math.nan, DomainError, "finite"), (math.inf, DomainError, "finite"),
                               (50.0, DomainError, "T_FLOOR"), (-1.0, DomainError, "T_FLOOR"),
                               (1e9, InfeasibleError, "T_MAX"), (9e4, InfeasibleError, "T_MAX")):
        for call in (lambda: evaluate_equivalent("gamma", q, cache=shared_cache, t_cap=t_cap),
                     lambda: scan(["gamma"], n=3, max_xyz=3, cache=shared_cache, t_cap=t_cap)):
            with pytest.raises(error, match=what):
                call()
    assert len(shared_cache.ts) == rows


def test_scan_matches_calibration(shared_cache, calibration):
    q2 = FermatRational(1, 1, 1, 3)
    row = evaluate_equivalent("gamma", q2, cache=shared_cache)
    ref = calibration["scan_rows"]["gamma_q2"]
    assert row.value == pytest.approx(ref["value"], rel=1e-9)
    assert row.est_error == pytest.approx(ref["est_error"], rel=1e-9)
    assert row.status == ref["status"]


def test_all_functional_ids_run(shared_cache):
    q = FermatRational(1, 2, 2, 3)  # q = 9/8
    for fid in FUNCTIONAL_IDS:
        row = evaluate_equivalent(fid, q, cache=shared_cache, t_cap=1e4)
        assert row.functional == fid
        assert row.status in ("resolved", "unresolved at desk scale", "infeasible")
        if row.value is not None:
            assert math.isfinite(row.value)


@pytest.mark.parametrize("T", [50_000.0, 1234.5])
def test_d_rung_closes_its_lower_end(shared_cache, T):
    # the scan's d rows and verify_factorization_D sum d(n) over T <= n <= U
    U = ascend(T, shared_cache)
    want = sum(divisor_count(n) for n in range(math.ceil(T), math.floor(U) + 1))
    (inc, _), = fermat._FUNCTIONALS["d-linear"].increment([T], shared_cache)
    assert inc == want
    (value,) = verify_factorization_D([T], shared_cache).values
    assert value == want / (ln_gamma(U) - ln_gamma(T))


def test_log_window_lower_edge_reaches_floor(shared_cache):
    # (1e6) ** (1/3) rounds to 99.99999999999997 < T_FLOOR; the window
    # must not hand the ascent solver such a point
    row = evaluate_equivalent("d-log", FermatRational(1, 2, 3, 3),
                              cache=shared_cache, t_cap=1e4)
    assert not row.note.startswith("solver:")
    assert row.value is not None


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.sampled_from([1e4, DEFAULT_T_CAP]))
def test_row_grid_maps_into_served_range(x, y, z, t_cap):
    q = FermatRational(x, y, z, 3)
    reach = t_cap * (1.0 + 5.0 * (1.0 - EULER_GAMMA) / math.log(t_cap))
    for fid, f in fermat._FUNCTIONALS.items():
        mults = f.multipliers(q, q.value)
        try:
            grid = fermat._row_grid(fid, f, q.value, mults, DEFAULT_TAU_GRID, t_cap)
        except InfeasibleError:
            continue
        for tau in grid:
            for a in mults:
                assert T_FLOOR <= f.t_of(tau, a) <= reach, (fid, tau, a)


def test_default_grid_is_sane():
    assert list(DEFAULT_TAU_GRID) == sorted(DEFAULT_TAU_GRID)
    assert DEFAULT_TAU_GRID[0] >= 20.0

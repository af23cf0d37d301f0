import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from ladderlab import gammalab, gram, integral, ladder
from ladderlab.constants import EULER_GAMMA, T_FLOOR
from ladderlab.errors import DomainError
from ladderlab.gammalab import (
    FunctionalReport,
    gamma_functional,
    ln_gamma,
    pi_via_gamma,
    verify_chain,
    verify_factorization_D,
    verify_factorization_T1,
    verify_factorization_T2,
    verify_legendre_factorization,
    verify_shifted_ratio,
)
from ladderlab.integral import CheckpointCache


def test_ln_gamma_against_stdlib():
    for x in (0.5, 1.0, 2.0, 10.0, 123.456, 1e4, 9.9e4):
        assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-10)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ln_gamma(bad)


@given(st.floats(min_value=0.5, max_value=1e5))
def test_ln_gamma_matches_everywhere(x):
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(x))
    assert abs(ln_gamma(x) - want) <= 2e-15 * max(abs(want), 1.0)


def test_ln_gamma_against_mpmath():
    rng = random.Random(2024)
    xs = [0.5, 1.0, 1.5, 2.0, 100.0, 5e4]
    xs += [math.exp(rng.uniform(math.log(0.5), math.log(9e4))) for _ in range(400)]
    with mpmath.workdps(40):
        for x in xs:
            want = float(mpmath.loggamma(x))
            # relative, or absolute near the zeros of ln Gamma at 1 and 2
            assert abs(ln_gamma(x) - want) <= 2e-15 * max(abs(want), 1.0), x
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ln_gamma(bad)
    # ln Gamma passes the largest float64 near x = 2.56e305: inf, not OverflowError
    assert ln_gamma(2.6e305) == math.inf
    assert ln_gamma(1e308) == math.inf


def test_report_validation():
    with pytest.raises(DomainError):
        FunctionalReport(functional="x", parameter=1.0, target=1.0,
                         tau_grid=[1.0, 2.0], values=[1.0], metadata={})
    with pytest.raises(DomainError):
        FunctionalReport(functional="x", parameter=1.0, target=1.0,
                         tau_grid=[2.0, 1.0], values=[1.0, 1.0], metadata={})
    with pytest.raises(DomainError):
        FunctionalReport(functional="x", parameter=1.0, target=1.0,
                         tau_grid=[1.0], values=[math.nan], metadata={})


def test_report_refuses_a_non_finite_tau():
    # accepted before, and its to_json then raised a bare ValueError
    for grid in ([1.0, math.inf], [math.nan, 2.0], [1.0, 1.0]):
        with pytest.raises(DomainError, match="tau_grid must be finite and strictly ascending"):
            FunctionalReport(functional="x", parameter=1.0, target=1.0,
                             tau_grid=grid, values=[1.0, 1.0])


def test_factorizations_refuse_a_bad_grid_before_any_ascent(shared_cache, monkeypatch):
    # a descending grid was refused by the report only after every ascent,
    # a cold build among them
    with monkeypatch.context() as m:
        m.setattr(gammalab, "ascend_all", lambda *a: pytest.fail("ascended"))
        for fn in (verify_factorization_D, verify_factorization_T1, verify_factorization_T2):
            for grid in ([1e4, 1e3], [1e3, 1e3], [1e2, math.nan], [math.inf]):
                cache = CheckpointCache()
                with pytest.raises(DomainError, match="finite and strictly ascending"):
                    fn(grid, cache=cache)
                assert len(cache.ts) == 0
    # an ascending grid ascends and raises its first error in tau order:
    # 50 sits below the floor and 1e6 past T_MAX
    with pytest.raises(DomainError, match=f"T >= {T_FLOOR}"):
        verify_factorization_D([50.0, 200.0, 1e6], cache=shared_cache)


def test_gamma_functional_refuses_finite_taus_out_of_order_before_any_ascent(monkeypatch):
    # a descending grid was refused by the report only after its ascents, a
    # cold build among them; a tau that is not finite is still skipped
    monkeypatch.setattr(gammalab, "ascend_all", lambda *a: pytest.fail("ascended"))
    for grid in ([1e4, 1e3], [1e3, 1e3], [1e4, math.nan, 1e3], [math.inf, 1e3, 1e2]):
        cache = CheckpointCache()
        with pytest.raises(DomainError, match="finite and strictly ascending"):
            gamma_functional(1.0, grid, cache=cache)
        assert len(cache.ts) == 0


def test_report_serialization(shared_cache):
    rep = gamma_functional(1.0, [200.0, 400.0], cache=shared_cache)
    js = rep.to_json()
    assert '"functional"' in js and '"c0_convention"' in js
    assert len(rep.abs_errors()) == 2


def test_gamma_functional_matches_calibration(shared_cache, calibration):
    for x_key, by_tau in calibration["gamma_functional"].items():
        x = float(x_key)
        taus = sorted(float(t) for t in by_tau)
        rep = gamma_functional(x, taus, cache=shared_cache)
        for tau, value in zip(rep.tau_grid, rep.values):
            assert value == pytest.approx(by_tau[f"{tau:.17g}"], rel=1e-9)


def test_gamma_functional_skips_below_floor(shared_cache):
    # the floor binds on T = x*tau/(1-c), so tau=30 at x=1 sits below it
    rep = gamma_functional(1.0, [30.0, 300.0], cache=shared_cache)
    assert len(rep.tau_grid) == 1
    assert "skipped" in rep.metadata and "30" in str(rep.metadata["skipped"])
    # a NaN tau is skipped with the error of its refused ascent, which
    # names the T it refused
    rep = gamma_functional(1.0, [math.nan, 300.0], cache=shared_cache)
    assert list(rep.metadata["skipped"]) == ["nan"] and rep.tau_grid == [300.0]
    note = rep.metadata["skipped"]["nan"]
    assert f"T >= {T_FLOOR}, got T=nan" in note and "below ladder floor" not in note
    for x in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gamma_functional(x, [300.0], cache=shared_cache)


def test_non_finite_tau_refused_before_any_build():
    cache = CheckpointCache()
    for bad in (math.nan, math.inf):
        for report in (verify_shifted_ratio, verify_legendre_factorization,
                       lambda tau, cache: verify_chain(tau, 2, cache=cache),
                       lambda tau, cache: pi_via_gamma(tau, 2, cache=cache)):
            with pytest.raises(DomainError, match=f">= {T_FLOOR}"):
                report(bad, cache=cache)
    assert len(cache.ts) == 0


def test_factorization_ratios_match_calibration(shared_cache, calibration):
    for key, fn in (("d_ratio", verify_factorization_D),
                    ("t1_ratio", verify_factorization_T1),
                    ("t2_ratio", verify_factorization_T2)):
        frozen = calibration[key]
        taus = sorted(float(t) for t in frozen)
        rep = fn(taus, cache=shared_cache)
        for tau, value in zip(rep.tau_grid, rep.values):
            assert value == pytest.approx(frozen[f"{tau:.17g}"], rel=1e-9), key


def test_chain_additivity(shared_cache, calibration):
    chain = verify_chain(1e3, 3, cache=shared_cache)
    assert len(chain.rung_ratios) == 3
    assert chain.additivity_defect <= 1e-9
    ref = calibration["chain_1000_k3"]
    assert chain.total_ratio == pytest.approx(ref["total_ratio"], rel=1e-9)
    for got, want in zip(chain.rung_ratios, ref["rung_ratios"]):
        assert got == pytest.approx(want, rel=1e-9)
    assert '"rung_ratios"' in chain.to_json()


def test_pi_surrogate(shared_cache, calibration):
    ref = calibration["pi_gamma"]
    val = pi_via_gamma(ref["tau"], int(ref["k"]), cache=shared_cache)
    assert val == pytest.approx(ref["value"], rel=1e-9)
    # the surrogate approximates the true prime count at desk scale
    assert abs(val / ref["prime_pi"] - 1.0) <= 0.05
    with pytest.raises(DomainError):
        pi_via_gamma(1e3, 0, cache=shared_cache)


def test_tower_reports_refuse_non_integral_k(shared_cache):
    # a TypeError out of build_tower, or an iterate index, before
    for fn in (pi_via_gamma, verify_chain):
        for bad in (1.5, 2.5):
            with pytest.raises(DomainError):
                fn(1000.0, bad, cache=shared_cache)
    assert verify_chain(1000.0, 2.0, cache=shared_cache) == verify_chain(1000.0, 2, cache=shared_cache)


def test_shifted_ratio(shared_cache, calibration):
    sh = verify_shifted_ratio(1e3, cache=shared_cache)
    ref = calibration["shifted_1000"]
    assert sh.lhs_log == pytest.approx(ref["lhs_log"], rel=1e-9)
    assert sh.rhs_log == pytest.approx(ref["rhs_log"], rel=1e-9)
    assert sh.count_in_unit == int(ref["count_in_unit"])
    assert sh.count_target == pytest.approx(math.log(1e3) / (2.0 * math.pi), rel=1e-12)
    assert '"count_in_unit"' in sh.to_json()
    with pytest.raises(DomainError):
        verify_shifted_ratio(50.0, cache=shared_cache)


def test_legendre_metadata(shared_cache, calibration):
    lg = verify_legendre_factorization(500.0, cache=shared_cache)
    ref = calibration["legendre_500"]
    assert lg.log_lhs == pytest.approx(ref["log_lhs"], rel=1e-9)
    assert lg.log_rhs == pytest.approx(ref["log_rhs"], rel=1e-9)
    assert lg.metadata["exponent_convention"] == "2**(2*tau-1)"
    assert "exponent_variant_seen" in lg.metadata
    assert '"log_difference"' in lg.to_json()


def _one_ascent_per_call(Ts, cache=None):
    return [ladder.ascend_all([T], cache)[0] for T in Ts]


def test_reports_same_bytes_as_one_ascent_at_a_time(shared_cache, monkeypatch):
    # one ascend_all call per report gives the bytes, the skipped entries
    # and the first error of ascending one T at a time; tau = 6e4 puts its
    # T past T_MAX and tau = 30 below the floor
    reports = (
        lambda: gamma_functional(1.0, [30.0, 150.0, 700.0, 4e3, 6e4], cache=shared_cache),
        lambda: verify_factorization_D([200.0, 900.0, 3e3], cache=shared_cache),
        lambda: verify_factorization_T2([300.0, 2e3], cache=shared_cache),
        lambda: verify_shifted_ratio(700.0, cache=shared_cache),
        lambda: verify_legendre_factorization(300.0, cache=shared_cache),
    )
    failing = (
        lambda: verify_factorization_D([200.0, 50.0, 1e6], cache=shared_cache),
        lambda: verify_shifted_ratio(9.9e4, cache=shared_cache),
        lambda: verify_legendre_factorization(5e4, cache=shared_cache),
    )

    def run():
        out = [f().to_json() for f in reports]
        for f in failing:
            with pytest.raises(Exception) as exc:
                f()
            out.append((type(exc.value), str(exc.value)))
        return out

    batched = run()
    assert "past T_MAX" in batched[0] and f"T >= {T_FLOOR}, got T=70.9" in batched[0]
    monkeypatch.setattr(gammalab, "ascend_all", _one_ascent_per_call)
    assert run() == batched


def test_warm_gamma_functional_makes_one_z_call(shared_cache, monkeypatch):
    # one ascend_all call for the report, one 21-node panel per tau
    taus = [1e2, 3e2, 1e3, 3e3, 1e4]
    want = gamma_functional(1.0, taus, cache=shared_cache).to_json()
    calls = []
    z_array = integral.z_array

    def counting(t):
        calls.append(len(t))
        return z_array(t)

    monkeypatch.setattr(integral, "z_array", counting)
    assert gamma_functional(1.0, taus, cache=shared_cache).to_json() == want
    assert calls == [integral._READ_NODES * len(taus)], calls


def test_warm_gram_reports_make_one_gram_solve_and_one_z_call(shared_cache, monkeypatch):
    # each report folds all its rungs from one t1/t2_increment_all call:
    # one Gram solve and one Gram Z call on a warm cache, with the bytes of
    # fetching its rungs one at a time
    reports = (
        lambda: verify_factorization_T1([300.0, 900.0, 2e3, 5e3, 1e4], cache=shared_cache),
        lambda: verify_factorization_T2([300.0, 2e3, 1e4], cache=shared_cache),
        lambda: verify_chain(1000.0, 3, cache=shared_cache),
        lambda: verify_shifted_ratio(700.0, cache=shared_cache),
        lambda: verify_legendre_factorization(300.0, cache=shared_cache),
    )
    with monkeypatch.context() as m:
        for name in ("t1_increment_all", "t2_increment_all"):
            fn = getattr(gram, name)
            m.setattr(gammalab, name, lambda rungs, fn=fn: [fn([r])[0] for r in rungs],
                      raising=False)
        want = [f().to_json() for f in reports]
    calls = []
    for name in ("_solve_theta_equals", "z_array"):
        fn = getattr(gram, name)
        monkeypatch.setattr(gram, name, lambda t, fn=fn, name=name: calls.append(name) or fn(t))
    for f, js in zip(reports, want):
        calls.clear()
        assert f().to_json() == js
        assert calls == ["_solve_theta_equals", "z_array"], calls

import math

import pytest
from hypothesis import given, strategies as st

from ladderlab.constants import EULER_GAMMA
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


def test_ln_gamma_against_stdlib():
    for x in (0.5, 1.0, 2.0, 10.0, 123.456, 1e4, 9.9e4):
        assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-10)
    with pytest.raises(DomainError):
        ln_gamma(0.0)


@given(st.floats(min_value=0.5, max_value=1e5))
def test_ln_gamma_matches_everywhere(x):
    assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-10, abs=1e-9)


def test_report_validation():
    with pytest.raises(DomainError):
        FunctionalReport(functional_id="x", parameter=1.0, target=1.0,
                         tau_grid=[1.0, 2.0], values=[1.0], metadata={})
    with pytest.raises(DomainError):
        FunctionalReport(functional_id="x", parameter=1.0, target=1.0,
                         tau_grid=[2.0, 1.0], values=[1.0, 1.0], metadata={})
    with pytest.raises(DomainError):
        FunctionalReport(functional_id="x", parameter=1.0, target=1.0,
                         tau_grid=[1.0], values=[math.nan], metadata={})


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
    with pytest.raises(DomainError):
        gamma_functional(-1.0, [300.0], cache=shared_cache)


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

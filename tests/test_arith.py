import math

import pytest
from hypothesis import given, strategies as st

from ladderlab.arith import DIVISOR_LIMIT, dirichlet_D, divisor_count, prime_pi
from ladderlab.errors import DomainError, InfeasibleError

# d(1)..d(12)
_SMALL_D = [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]


def test_divisor_count_small():
    assert [divisor_count(n) for n in range(1, 13)] == _SMALL_D
    with pytest.raises(DomainError):
        divisor_count(0)


def test_non_finite_and_non_integral_refused():
    for bad in (math.nan, math.inf, -math.inf, 2.5):
        with pytest.raises(DomainError):
            divisor_count(bad)
    assert divisor_count(12.0) == 6
    for fn in (dirichlet_D, prime_pi):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                fn(bad)


def test_dirichlet_hyperbola_values():
    assert dirichlet_D(1) == 1
    assert dirichlet_D(10) == 27
    assert dirichlet_D(10.9) == 27  # floor semantics on real arguments
    assert dirichlet_D(0) == 0


def test_dirichlet_matches_direct_sum():
    direct = sum(divisor_count(n) for n in range(1, 10_001))
    assert dirichlet_D(10_000) == direct


@given(st.integers(min_value=1, max_value=50_000),
       st.integers(min_value=0, max_value=500))
def test_dirichlet_monotone(x, d):
    assert dirichlet_D(x + d) >= dirichlet_D(x)


def test_prime_pi_known_values():
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(100) == 25
    assert prime_pi(1000) == 168
    assert prime_pi(10_000) == 1229
    assert prime_pi(1_000_000) == 78_498


def test_divisor_limit():
    # past the limit, an InfeasibleError, not a MemoryError (1e30 asked
    # numpy for 7 PiB) or minutes of trial division
    for fn, x in ((dirichlet_D, 1e30), (dirichlet_D, DIVISOR_LIMIT + 1),
                  (divisor_count, DIVISOR_LIMIT + 1), (divisor_count, 10**18 + 9)):
        with pytest.raises(InfeasibleError):
            fn(x)
    assert divisor_count(DIVISOR_LIMIT) == 169  # 2^12 5^12
    assert dirichlet_D(DIVISOR_LIMIT) > dirichlet_D(DIVISOR_LIMIT - 1)


def test_prime_pi_limit():
    with pytest.raises(InfeasibleError):
        prime_pi(2e8)


@given(st.integers(min_value=2, max_value=100_000))
def test_prime_pi_counts_by_one(x):
    step = prime_pi(x) - prime_pi(x - 1)
    assert step in (0, 1)

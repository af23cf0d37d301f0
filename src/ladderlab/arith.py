"""Integer-side counting functions.

Divisor counts d(n), their summatory function via the hyperbola method,
and exact prime counting by segmented sieve. Everything here is exact
64-bit integer arithmetic; the analytic side of the package only meets
these through ratio reports.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InfeasibleError, require_int

PRIME_PI_LIMIT = 100_000_000
# divisor_count and dirichlet_D are served to here (InfeasibleError past
# it). Every scan and report rung ends below about 1.05e5 at T_MAX; at
# the limit dirichlet_D takes 9 ms and divisor_count 63 ms on the prime
# 999,999,999,989 (one x86-64 core), where 1e30 asked numpy for 7 PiB.
DIVISOR_LIMIT = 10**12
_SEGMENT = 1 << 20


def divisor_count(n: int) -> int:
    """Number of positive divisors, by trial-division factorization, for
    n <= DIVISOR_LIMIT."""
    n = require_int(n, 1, "divisor_count n")
    if n > DIVISOR_LIMIT:
        raise InfeasibleError(f"divisor_count supported only to {DIVISOR_LIMIT:.0e}, got {n}")
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out *= e + 1
        p += 1 if p == 2 else 2
    if m > 1:
        out *= 2
    return out


def dirichlet_D(x: float) -> int:
    """Summatory divisor function sum_{n<=x} d(n), hyperbola method.

    Exact in O(sqrt x); constant on [N, N+1) by construction; served for
    x <= DIVISOR_LIMIT.
    """
    if not 0 <= x < math.inf:
        raise DomainError(f"dirichlet_D requires finite x >= 0, got {x}")
    if x > DIVISOR_LIMIT:
        raise InfeasibleError(f"dirichlet_D supported only to {DIVISOR_LIMIT:.0e}, got {x}")
    N = int(math.floor(x))
    if N < 1:
        return 0
    r = math.isqrt(N)
    ns = np.arange(1, r + 1, dtype=np.int64)
    return int(2 * np.sum(N // ns) - r * r)


def _base_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve)


def prime_pi(x: float) -> int:
    """Exact count of primes <= x, segmented sieve, supported to 1e8."""
    if not 0 <= x < math.inf:
        raise DomainError(f"prime_pi requires finite x >= 0, got {x}")
    if x > PRIME_PI_LIMIT:
        raise InfeasibleError(f"prime_pi supported only to {PRIME_PI_LIMIT:.0e}")
    N = int(math.floor(x))
    if N < 2:
        return 0
    base = _base_primes(math.isqrt(N))
    count = 0
    lo = 2
    while lo <= N:
        hi = min(lo + _SEGMENT, N + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo:: p] = False
        if lo <= 1:
            seg[: 2 - lo] = False
        count += int(np.count_nonzero(seg))
        lo = hi
    return count

"""Gram sequence and the discrete Z-sums over it.

Gram ordinates solve theta(t_nu) = (nu - 1) pi, indexed so nu = 1 is
the classical first point near 17.8456. Solving is vectorized Newton on
the strictly increasing theta, seeded by a Lambert-type inversion of
its leading term, for a fixed NEWTON_STEPS steps; every returned point
carries a residual certificate. A fixed count gives every element the
same operations, so t_nu depends on nu alone, not on its batch.

The two discrete sums fold the real numbers
zeta(1/2 + i t_nu) = (-1)^(nu-1) Z(t_nu): the values themselves (T1)
and the products of neighbors (T2). Sums are exact compensated folds
(math.fsum), so batch shape cannot change results.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .constants import T_MIN, TWO_PI
from .errors import BracketError, DomainError
from .zeta import theta, z_array

GRAM_RESIDUAL_TOL = 1e-9
# Newton steps from the Lambert seed: a seventh moves no t_nu in
# [T_MIN, T_MAX] by more than 4 ulp (tests/test_gram.py).
NEWTON_STEPS = 6
FIRST_GRAM = 17.8455995404108608  # theta root at index nu = 1

# The summand reading, recorded in every report: measured Gram-point
# means of these values land on the constants 2 and 2(1+c) that the
# factorization checks need.
DEFAULT_STRATEGY = "zeta-values"


@dataclass(frozen=True)
class GramSlice:
    """Gram points with ascending indices and attached Z values.

    rows() yields (nus[i], ts[i], zs[i]), the i-th point's index,
    ordinate and Z value.
    """

    nus: np.ndarray
    ts: np.ndarray
    zs: np.ndarray

    def __len__(self) -> int:
        return self.ts.size

    def rows(self):
        for nu, t, z in zip(self.nus, self.ts, self.zs):
            yield int(nu), float(t), float(z)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("nu,t,z\n")
        for nu, t, z in self.rows():
            buf.write(f"{nu},{t:.17g},{z:.17g}\n")
        return buf.getvalue()


def _theta_prime(t: np.ndarray) -> np.ndarray:
    return 0.5 * np.log(t / TWO_PI)


def _lambert_w(x: np.ndarray) -> np.ndarray:
    """Principal branch for x > 0, Newton on w e^w = x."""
    w = np.log1p(x)
    for _ in range(8):  # <= 1 ulp from step 7 on the seed's range
        ew = np.exp(w)
        w = w - (w * ew - x) / (ew * (w + 1.0))
    return w


def _solve_theta_equals(targets: np.ndarray) -> np.ndarray:
    """Ordinates where theta hits the given values (each >= -pi/8).

    Runs NEWTON_STEPS steps and no residual stop: above t ~ 1e4, theta
    exceeds 3e4 and a converged residual is a few ulps of theta
    (1.1e-11 at 1e4, 5.8e-11 at 5e4), so a stop far below
    GRAM_RESIDUAL_TOL is never met, while t settles within 3 steps.
    The same step count for every element keeps each t_nu independent
    of its batch.
    """
    # leading-term inversion: theta ~ (t/2) ln(t/2pi) - t/2 - pi/8
    g = (targets + np.pi / 8.0) / np.pi + 0.875
    t = TWO_PI * g / _lambert_w(np.maximum(g, 0.9) / math.e)
    t = np.maximum(t, T_MIN + 1.0)
    for _ in range(NEWTON_STEPS):
        t = np.maximum(t - (theta(t) - targets) / _theta_prime(t), T_MIN)
    resid = np.abs(theta(t) - targets)
    if resid.size and np.max(resid) > GRAM_RESIDUAL_TOL:
        bad = int(np.argmax(resid))
        raise BracketError(f"Gram solve stalled at target index {bad}: residual {resid[bad]:g}")
    return t


def gram_index_range(frm: float, to: float) -> tuple[int, int]:
    """Indices nu of Gram points inside (frm, to]: [lo, hi] inclusive."""
    th_a = theta(frm) / math.pi
    th_b = theta(to) / math.pi
    n_lo = int(math.floor(th_a)) + 1  # smallest integer n with n*pi > theta(frm)
    n_hi = int(math.floor(th_b))  # largest with n*pi <= theta(to)
    return n_lo + 1, n_hi + 1  # nu = n + 1


def gram_points(frm: float, to: float, extra: int = 0) -> GramSlice:
    """All Gram points with ordinate in (frm, to], plus `extra` beyond.

    Requires T_MIN <= frm < to. The extras let pair sums fetch the
    nu+1 neighbor of the last in-range point without a second solve.
    """
    if not (frm >= T_MIN and to > frm):
        raise DomainError(f"gram_points requires {T_MIN} <= from < to")
    nu_lo, nu_hi = gram_index_range(frm, to)
    nu_hi += extra
    if nu_hi < nu_lo:
        return GramSlice(nus=np.empty(0, dtype=np.int64), ts=np.empty(0), zs=np.empty(0))
    nus = np.arange(nu_lo, nu_hi + 1, dtype=np.int64)
    targets = (nus - 1).astype(float) * math.pi
    ts = _solve_theta_equals(targets)
    return GramSlice(nus=nus, ts=ts, zs=z_array(ts))


def _pair_values(slice_: GramSlice, in_range: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z at nu, Z at nu+1) for the first in_range points of the slice."""
    if slice_.ts.size < in_range + 1:
        raise DomainError("pair sum needs one extra Gram point beyond the range")
    return slice_.zs[:in_range], slice_.zs[1: in_range + 1]


def _gram_sign(nus: np.ndarray) -> np.ndarray:
    """(-1)^(nu-1), the rotation e^{i theta} = +-1 at Gram points."""
    return np.where((nus - 1) % 2 == 0, 1.0, -1.0)


def t1_increment(a: float, b: float) -> float:
    """(-1)^(nu-1) Z(t_nu) folded over Gram points in (a, b]."""
    if not a < b:
        raise DomainError("t1_increment requires a < b")
    sl = gram_points(a, b)
    if len(sl) == 0:
        return 0.0
    return math.fsum(_gram_sign(sl.nus) * sl.zs)


def t2_increment(a: float, b: float) -> float:
    """zeta_nu * zeta_{nu+1} = -Z(t_nu) Z(t_{nu+1}) folded over t_nu in (a, b].

    The neighbors carry opposite rotation signs. The nu+1 neighbor is
    fetched even when it lies beyond b.
    """
    if not a < b:
        raise DomainError("t2_increment requires a < b")
    sl = gram_points(a, b, extra=1)
    n_in = int(np.count_nonzero(sl.ts <= b))
    if n_in == 0:
        return 0.0
    z, z_next = _pair_values(sl, n_in)
    return math.fsum(-(z * z_next))


def spacing_ratios(slice_: GramSlice, reference: str = "log_t") -> np.ndarray:
    """Consecutive Gram gaps divided by 2pi/ref, ref = ln t or ln(t/2pi).

    reference="log_t" is the documented band check; "log_t_over_2pi"
    matches the true asymptotic spacing and is the diagnostic companion.
    """
    if slice_.ts.size < 2:
        return np.empty(0)
    gaps = np.diff(slice_.ts)
    t = slice_.ts[:-1]
    if reference == "log_t":
        return gaps * np.log(t) / TWO_PI
    if reference == "log_t_over_2pi":
        return gaps * np.log(t / TWO_PI) / TWO_PI
    raise DomainError(f"unknown spacing reference {reference!r}")

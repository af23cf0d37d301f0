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

Ranges are served in batches (_gram_slices): the indices of all ranges
come from one theta call, and their distinct indices from one solve and
one z_array call; each range then takes its own slice, certified on its
own residuals. t1_increment_all and t2_increment_all fold a scan row's
rungs this way, in one pass; gram_points, t1_increment and t2_increment
are the one-range case.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .constants import T_MIN, TWO_PI
from .errors import BracketError, DomainError, LadderLabError, attempt, unwrap
from .zeta import _check_range, _theta_series, theta, z_array

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
    of its batch. Each step takes theta and theta' from one log(t/2pi),
    with the bits of theta(t) and _theta_prime(t). The residuals are
    certified by the caller (_gram_slices), per requested range.
    """
    # leading-term inversion: theta ~ (t/2) ln(t/2pi) - t/2 - pi/8
    g = (targets + np.pi / 8.0) / np.pi + 0.875
    t = TWO_PI * g / _lambert_w(np.maximum(g, 0.9) / math.e)
    t = np.maximum(t, T_MIN + 1.0)
    for _ in range(NEWTON_STEPS):
        lt = np.log(t / TWO_PI)
        t = np.maximum(t - (_theta_series(t, lt) - targets) / (0.5 * lt), T_MIN)
    return t


def _index_ranges(frm: np.ndarray, to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gram_index_range for each (frm[k], to[k]), from one theta call."""
    th = np.floor(theta(np.concatenate((frm, to))) / math.pi).astype(np.int64)
    # nu = n + 1 for the smallest n with n*pi > theta(frm), the largest
    # with n*pi <= theta(to)
    return th[:frm.size] + 2, th[frm.size:] + 1


def gram_index_range(frm: float, to: float) -> tuple[int, int]:
    """Indices nu of Gram points inside (frm, to]: [lo, hi] inclusive;
    refuses the spans gram_points refuses (_check_span)."""
    _check_span(frm, to)
    lo, hi = _index_ranges(np.array([frm]), np.array([to]))
    return int(lo[0]), int(hi[0])


def _check_span(frm: float, to: float) -> None:
    """Refuse a span (frm, to] unless finite T_MIN <= frm < to (DomainError)
    and to <= T_MAX (_check_range, InfeasibleError), before any theta call
    or solve: every Gram entry point calls it first."""
    if not (T_MIN <= frm < to < math.inf):
        raise DomainError(f"gram_points requires finite {T_MIN} <= from < to")
    _check_range(frm, to)


def _certified(ts: np.ndarray, resid: np.ndarray) -> None:
    """Refuse one range's Gram points by their theta residuals, and by
    the ordinates z_array refuses (z_array needs no other check)."""
    if resid.size and np.max(resid) > GRAM_RESIDUAL_TOL:
        bad = int(np.argmax(resid))
        raise BracketError(f"Gram solve stalled at target index {bad}: residual {resid[bad]:g}")
    if ts.size:
        _check_range(ts[0], ts[-1])  # ts ascend


def _gram_slices(spans, extra: int = 0) -> list[GramSlice | LadderLabError]:
    """gram_points(frm, to) for each (frm, to) of spans, plus `extra`
    points beyond to, or the LadderLabError it met. An extra lets a pair
    sum fetch the nu+1 neighbor of the last in-range point without a
    second solve.

    The indices of every range come from one theta call, the distinct
    indices of all ranges from one Gram solve and one z_array call, and
    each range then takes its own slice, certified on its own residuals
    and ordinates (_certified), so a range has the bits and the error of
    a call for it alone."""
    out: list = [attempt(_check_span, frm, to) for frm, to in spans]
    ok = [k for k, x in enumerate(out) if not isinstance(x, LadderLabError)]
    los, his = _index_ranges(np.array([spans[k][0] for k in ok]),
                             np.array([spans[k][1] for k in ok]))
    his += extra
    merged: list[list[int]] = []  # the union of the index ranges, ascending
    for lo, hi in sorted(zip(los.tolist(), his.tolist())):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        elif lo <= hi:
            merged.append([lo, hi])
    nus = np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in merged]
                         or [np.empty(0, dtype=np.int64)])
    targets = (nus - 1).astype(float) * math.pi
    ts = _solve_theta_equals(targets)
    resid = np.abs(theta(ts) - targets)
    cuts = list(zip(np.searchsorted(nus, los).tolist(),
                    np.searchsorted(nus, his, "right").tolist()))
    need = np.zeros(nus.size, dtype=bool)  # the points of the certified ranges
    for k, (i, j) in zip(ok, cuts):
        out[k] = attempt(_certified, ts[i:j], resid[i:j])
        need[i:j] |= out[k] is None
    zs = np.full(nus.size, np.nan)
    if need.any():
        zs[need] = z_array(ts[need])
    for k, (i, j) in zip(ok, cuts):
        if out[k] is None:
            out[k] = GramSlice(nus=nus[i:j], ts=ts[i:j], zs=zs[i:j])
    return out


def gram_points(frm: float, to: float) -> GramSlice:
    """All Gram points with ordinate in (frm, to]; requires finite
    T_MIN <= frm < to <= T_MAX (_check_span). _gram_slices for one range."""
    return unwrap(_gram_slices([(frm, to)])[0])


def _gram_sign(nus: np.ndarray) -> np.ndarray:
    """(-1)^(nu-1), the rotation e^{i theta} = +-1 at Gram points."""
    return np.where((nus - 1) % 2 == 0, 1.0, -1.0)


def _one_point_sum(sl: GramSlice, b: float) -> float:
    return math.fsum(_gram_sign(sl.nus) * sl.zs)  # 0.0 on no point


def _pair_sum(sl: GramSlice, b: float) -> float:
    n_in = int(np.count_nonzero(sl.ts <= b))
    if n_in == 0:
        return 0.0
    if sl.ts.size < n_in + 1:
        raise DomainError("pair sum needs one extra Gram point beyond the range")
    return math.fsum(-(sl.zs[:n_in] * sl.zs[1:n_in + 1]))


def _increments(fold, extra: int, rungs) -> list[float | LadderLabError]:
    """fold(_gram_slices([(a, b)], extra)[0], b) for each rung (a, b), or
    the LadderLabError it met, all rungs from one _gram_slices call."""
    return [sl if isinstance(sl, LadderLabError) else attempt(fold, sl, b)
            for sl, (_, b) in zip(_gram_slices(rungs, extra), rungs)]


def t1_increment_all(rungs) -> list[float | LadderLabError]:
    """t1_increment(a, b) for each rung (a, b), or the LadderLabError it
    met, from one Gram solve and one z_array call (_gram_slices); each
    rung folds its own points, so it has the bits of a call for it alone."""
    return _increments(_one_point_sum, 0, rungs)


def t2_increment_all(rungs) -> list[float | LadderLabError]:
    """t2_increment(a, b) for each rung (a, b), or the LadderLabError it
    met, as t1_increment_all: one Gram solve and one z_array call."""
    return _increments(_pair_sum, 1, rungs)


def t1_increment(a: float, b: float) -> float:
    """(-1)^(nu-1) Z(t_nu) folded over Gram points in (a, b];
    t1_increment_all for one rung."""
    return unwrap(t1_increment_all([(a, b)])[0])


def t2_increment(a: float, b: float) -> float:
    """zeta_nu * zeta_{nu+1} = -Z(t_nu) Z(t_{nu+1}) folded over t_nu in (a, b];
    t2_increment_all for one rung.

    The neighbors carry opposite rotation signs. The nu+1 neighbor is
    fetched even when it lies beyond b.
    """
    return unwrap(t2_increment_all([(a, b)])[0])


def spacing_ratios(slice_: GramSlice, reference: str = "log_t") -> np.ndarray:
    """Consecutive Gram gaps divided by 2pi/ref, ref = ln t or ln(t/2pi).

    reference="log_t" is the documented band check; "log_t_over_2pi"
    matches the true asymptotic spacing and is the diagnostic companion.
    """
    if reference not in ("log_t", "log_t_over_2pi"):
        raise DomainError(f"unknown spacing reference {reference!r}")
    if slice_.ts.size < 2:
        return np.empty(0)
    t = slice_.ts[:-1]
    ref = np.log(t) if reference == "log_t" else np.log(t / TWO_PI)
    return np.diff(slice_.ts) * ref / TWO_PI

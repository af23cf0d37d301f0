"""Second moment of zeta on the critical line, with checkpointing.

J(T) = integral of |zeta(1/2+it)|^2 over [0, T], evaluated by panelized
Gauss-Kronrod (10, 21) quadrature on Z(t)^2. Panels never exceed
7 pi/ln t from RS_SEAM on, 2.9 wavelengths 2 pi/ln(t/2 pi) of Z^2's
fastest component at t = 5.8e4, and 4 pi/ln max(t, 20) below it; the
10-point Gauss rule on every other Kronrod node gives the error estimate
from the same 21 Z values. Against a 40-node Gauss-Legendre reference on
200 seeded full-width panels near each of t = 1e2, 1e3, 1e4, 3e4 and
5.8e4, |K21 - GL40| is at most 0.0015 of the panel's estimate and
3.8e-9 abs at 5.8e4, no stride cell up to T_MAX needs a refinement
round (the worst cell's estimate is 0.22 of CELL_TOL), and the cells of
the mpmath J oracle above 1e4 lie within their estimates. Fewer, wider
panels are what pays: a Z node's cost is the cosines of its
Riemann-Siegel sum, and a cold build to the scan reach evaluates 582,414
of them. The engine's Z error bound is folded into the estimate via
Cauchy-Schwarz on each panel. Each panel's Kronrod and Gauss values are
summed node after node, so a panel's bits do not depend on the batch it
is evaluated in. Every segment, stride cell and tail meets one absolute
tolerance, AUTO_TOL_RATE per unit of width (at least one unit); a panel
is bisected only where its estimate misses its share, which no stride
cell up to T_MAX needs.

J is expensive enough that ladder solves want checkpoints: a
CheckpointCache holds J at every DEFAULT_STRIDE multiple, and in memory
also J at a knot on every final panel edge inside each stride cell,
taken from the panel values the cell's quadrature already produced. Any
J(T) then costs one lookup plus a tail of at most one panel.
One generator, _quad, integrates every span (a segment, a build's stride
cells, both passes of invert) in one Z call per group of consecutive
spans, up to 2^14 first-panel nodes; panel values do not depend on
their batch, so the grouping moves no bit. A cell from load() gets its
knots (CheckpointCache._fill) from the first read that lands in it.
CheckpointCache.invert solves J(U) = target on the integral of p^2, p
the degree-20 interpolant of Z on the target's panel, and reads J(U)
from the stored point nearest below U through _quad as well, so J(U)
is hl_integral(U) by construction.
"""

from __future__ import annotations

import bisect
import io
import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .constants import EULER_GAMMA, LN_TWO_PI, T_MAX
from .errors import (CacheCorruptionError, DomainError, InfeasibleError, LadderLabError,
                     ToleranceError, attempt, unwrap)
from .zeta import RS_SEAM, z_array, z_error_bound

# The Gauss-Kronrod (10, 21) pair as QUADPACK qk21 tabulates it (Piessens
# et al. 1983): the Kronrod abscissae from 1 down to the centre, their
# weights, and the weights of the 10-point Gauss rule, whose abscissae are
# the 2nd, 4th, ..., 10th Kronrod abscissae.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG_HALF = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
            0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
# Ascending on [-1, 1]; the Gauss nodes are _XK[1::2], and the centre is not one.
_XK = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WK = np.array(_WGK + _WGK[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[::-1])
_NODES_PER_PANEL = _XK.size
# invert() solves on P(x), the integral from -1 of p^2, p the degree-20
# interpolant of the Z values z at the 21 Kronrod nodes. _Z_MAP @ z holds
# the 21 Legendre coefficients of p, then p at 41 Chebyshev points, which
# fix p^2 (degree 40); _SQ_MAP @ p(those points)^2 holds the 42 Legendre
# coefficients of P, then P on _GRID. Z has half the bandwidth of Z^2, so
# p^2 follows Z^2 between the nodes closer than an interpolant of Z^2.
_LEG = np.linalg.inv(np.polynomial.legendre.legvander(_XK, _NODES_PER_PANEL - 1))
_CHEB = np.cos(np.pi * (np.arange(2 * _NODES_PER_PANEL - 1) + 0.5) / (2 * _NODES_PER_PANEL - 1))
_Z_MAP = np.vstack([_LEG, np.polynomial.legendre.legvander(_CHEB, _NODES_PER_PANEL - 1) @ _LEG])
_PRIM_SQ = np.polynomial.legendre.legint(
    np.linalg.inv(np.polynomial.legendre.legvander(_CHEB, _CHEB.size - 1)), lbnd=-1.0)
_GRID = np.linspace(-1.0, 1.0, 65).tolist()
_SQ_MAP = np.vstack([_PRIM_SQ, np.polynomial.legendre.legvander(_GRID, _CHEB.size) @ _PRIM_SQ])
# The Clenshaw steps of numpy's legval on up to 42 coefficients, P's
# count: (coefficient folded in, (nd - 1)/nd, (2 nd - 1)/nd) for nd = 41
# down to 2.
_CLENSHAW = [(nd - 2, (nd - 1) / nd, (2 * nd - 1) / nd) for nd in range(_CHEB.size, 1, -1)]

# Widest panel starting at t is _PANEL_CAP / ln t from RS_SEAM on, and
# _LOW_PANEL_CAP / ln max(t, 20) below it, so the Euler-Maclaurin cells
# [0, 50] and [50, 100], whose estimates a 6 pi cap would take to 0.79 of
# CELL_TOL, keep their panels. At t = 5.8e4, 7 pi / ln t is 2.9
# wavelengths 2 pi / ln(t / 2 pi), |K21 - GL40| stays below 0.0015 of the
# estimate (module docstring), and a cold build to the scan reach
# evaluates 582,414 Z nodes. The cap stops at 7 pi: the worst stride cell
# to T_MAX reads 0.22 of CELL_TOL there, 0.77 at 7.5 pi, and from
# 7.75 pi cells refine and a build evaluates more nodes than at 7 pi.
_PANEL_CAP = 7.0 * math.pi
_LOW_PANEL_CAP = 4.0 * math.pi

# Bump on every change that moves Z values or saved checkpoints: load()
# rejects other versions. Knots are never saved, so moving them does not.
ENGINE_VERSION = "7"
# The one quadrature tolerance, absolute per unit of integration length
# (_refine). The engine's own error bound contributes ~6e-6 per unit in
# the worst band, so this is the tightest rate that cannot trip the
# engine-floor guard.
AUTO_TOL_RATE = 3e-5
DEFAULT_STRIDE = 50.0
# That tolerance on one stride cell, recorded in the cache header.
CELL_TOL = AUTO_TOL_RATE * DEFAULT_STRIDE
# First line of every cache file; load() accepts no other.
_VERSION_TAG = "# ladderlab cache v"
_HEADER = f"{_VERSION_TAG}{ENGINE_VERSION} stride={DEFAULT_STRIDE:.17g} tol={CELL_TOL:.17g}"
# Most Z nodes in one grouped call of _quad, a build's or invert's (a
# stride cell has 231 to 567 from the seam to T_MAX); larger groups cost
# peak RSS.
_GROUP_NODES = 2**14
# The mean value J(t) ~ t ln(t / 2 pi) + (2c - 1) t has slope ln t + _MV_SLOPE
# and is 0 at _MV_ZERO.
_MV_SLOPE = 2.0 * EULER_GAMMA - LN_TWO_PI
_MV_ZERO = math.exp(1.0 - _MV_SLOPE)


def _mean_value(t: float) -> float:
    return t * (math.log(t) + _MV_SLOPE - 1.0)


# J(T_MAX) = 982,908.4 lies about 1,120 below this (|J - mean value| is at
# most 229 at every checkpoint to T_MAX), so a target above it has its
# root past T_MAX.
_TARGET_CEILING = _mean_value(T_MAX + 2.0 * DEFAULT_STRIDE)


def _check_t_max(T: float) -> None:
    if T > T_MAX:
        raise InfeasibleError(f"T={T:g} exceeds the served range T <= T_MAX={T_MAX:g}")


@dataclass(frozen=True)
class IntegralResult:
    """One evaluated segment of the second moment."""

    a: float
    b: float
    value: float
    abs_error_estimate: float
    node_count: int


def safeguarded_newton(fdf, lo: float, hi: float, x: float) -> float:
    """Root of an increasing f on [lo, hi], f(lo) <= 0 <= f(hi), from x;
    fdf(x) returns (f(x), f'(x)).

    Newton steps that leave the shrinking bracket, or meet a slope <= 0,
    are replaced by bisection; stops at a Newton step of a few ulps or a
    bracket that narrow.
    """
    for _ in range(200):
        fx, d = fdf(x)
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        step = fx / d if d > 0.0 else math.inf
        if abs(step) <= 4.0 * math.ulp(x):
            return min(max(x - step, lo), hi)
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(x):
            return x
    return x


def _panel_edges(a: float, b: float) -> np.ndarray:
    """Greedy left-to-right panel boundaries with the oscillation cap.

    Boundaries depend only on a (and the cap rule), so subdividing a
    fixed range is deterministic regardless of how callers batch work.
    """
    edges = [a]
    add, log = edges.append, math.log
    cur = a
    while cur < b:
        cap = _PANEL_CAP if cur >= RS_SEAM else _LOW_PANEL_CAP
        cur += cap / log(cur if cur > 20.0 else 20.0)
        if cur > b:
            cur = b
        add(cur)
    return np.array(edges)


def _eval_panels(
        lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Z at the 21 Kronrod nodes of each panel, (P, 21), from one z_array
    call, with the Kronrod and embedded Gauss panel values (vk, vg) of
    their squares and the engine error, for a batch of panels; no call
    for a batch of no panel.

    Each panel's weighted values are added node after node (a running
    sum along the row, not BLAS and not numpy's pairwise sum), so a
    panel's values do not depend on the other panels in the batch."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    z = (z_array(t) if t.size else t).reshape(-1, _XK.size)
    f = z**2
    vk = np.add.accumulate(f * _WK, axis=1)[:, -1] * half
    vg = np.add.accumulate(f[:, 1::2] * _WG, axis=1)[:, -1] * half
    # engine contribution: |d integral| <= 2 int |Z| eps <= 2 eps sqrt(I w)
    eng = 2.0 * z_error_bound(mid) * np.sqrt(np.maximum(vk, 0.0) * (hi - lo))
    return z, vk, vg, eng


def _refine(a: float, b: float, lo: np.ndarray, hi: np.ndarray, z: np.ndarray,
            vk: np.ndarray, vg: np.ndarray, eng: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Final panels of [a, b] from its first panels (lo, hi) and their
    _eval_panels values: (lo, z, vk, err, nodes).

    lo are the left panel edges, z the (P, 21) Z values at each panel's
    Kronrod nodes, vk the Kronrod panel values, err the per-panel estimate
    |vk - vg| + engine error (vg the Gauss values), and nodes every Z node
    evaluated. The tolerance is the one quadrature rule,
    AUTO_TOL_RATE * max(b - a, 1): CELL_TOL on a stride cell. Panels
    whose embedded-rule discrepancy exceeds their share of it are
    bisected, and only the new halves evaluated, up to a fixed
    refinement budget; exhaustion raises with the best result attached.
    The engine-bound part of the estimate is a floor no refinement can
    cross, so a tolerance below it fails fast.
    """
    tol = AUTO_TOL_RATE * max(b - a, 1.0)
    nodes = lo.size * _NODES_PER_PANEL
    for _ in range(24):
        quad_err = np.abs(vk - vg)
        err = quad_err + eng
        if float(np.sum(err)) <= tol:
            return lo, z, vk, err, nodes
        if float(np.sum(eng)) > 0.5 * tol:
            raise ToleranceError(
                f"engine error floor exceeds tol={tol:g} on [{a},{b}]",
                best_value=math.fsum(vk),
                best_error=float(np.sum(err)),
            )
        bad = quad_err > 0.25 * tol * (hi - lo) / (b - a)
        if not bad.any():
            bad = quad_err >= np.max(quad_err)
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new = (new_lo, new_hi, *_eval_panels(new_lo, new_hi))
        merged = [np.concatenate([old[~bad], n]) for old, n in zip((lo, hi, z, vk, vg, eng), new)]
        order = np.argsort(merged[0], kind="stable")
        lo, hi, z, vk, vg, eng = (m[order] for m in merged)
        nodes += new_lo.size * _NODES_PER_PANEL
    raise ToleranceError(
        f"refinement budget exhausted on [{a},{b}] at tol={tol:g}",
        best_value=math.fsum(vk),
        best_error=float(np.sum(np.abs(vk - vg) + eng)),
    )


def _quad(spans: list[tuple[float, float]]) -> Iterator[tuple | LadderLabError]:
    """For each [a, b] of spans in order, its final panels as _refine
    returns them, (lo, z, vk, err, nodes), or the LadderLabError it met.

    Consecutive spans whose first panels (_panel_edges; a zero-width span
    has none) hold at most _GROUP_NODES nodes, and at least one span,
    share one _eval_panels call; each span then refines on its own."""
    edges = [_panel_edges(a, b) for a, b in spans]
    start = 0
    while start < len(spans):
        stop, size = start + 1, edges[start].size - 1
        while stop < len(spans) and (
                size + edges[stop].size - 1) * _NODES_PER_PANEL <= _GROUP_NODES:
            size += edges[stop].size - 1
            stop += 1
        group = edges[start:stop]
        if len(group) == 1:  # a segment's one span: no copies, no slices
            lo, hi = group[0][:-1], group[0][1:]
            yield attempt(_refine, *spans[start], lo, hi, *_eval_panels(lo, hi))
        else:
            lo = np.concatenate([e[:-1] for e in group])
            hi = np.concatenate([e[1:] for e in group])
            first = (lo, hi, *_eval_panels(lo, hi))
            p = 0
            for (a, b), e in zip(spans[start:stop], group):
                q = p + e.size - 1
                yield attempt(_refine, a, b, *[x[p:q] for x in first])
                p = q
        start = stop


def _legval_pair(x: float, c: list[float], d: list[float]) -> tuple[float, float]:
    """(legval(x, c), legval(x, d)) of np.polynomial.legendre, for
    3 <= len(d) <= len(c) <= 42, on Python floats in one loop.

    The same Clenshaw recurrences with the same IEEE operations in the
    same order, so the same bits, at a fraction of the cost of two numpy
    scalar calls."""
    steps = _CLENSHAW[len(_CLENSHAW) + 2 - len(c):]
    c0, c1 = c[-2], c[-1]
    for i, p, q in steps[:len(c) - len(d)]:
        c0, c1 = c[i] - c1 * p, c0 + c1 * x * q
    d0, d1 = d[-2], d[-1]
    for i, p, q in steps[len(c) - len(d):]:
        c0, c1 = c[i] - c1 * p, c0 + c1 * x * q
        d0, d1 = d[i] - d1 * p, d0 + d1 * x * q
    return c0 + c1 * x, d0 + d1 * x


def _square_model(z: np.ndarray, half: float) -> tuple[list[float], list[float], list[float]]:
    """(p, P, P on _GRID) for one panel's 21 Z values z: the Legendre
    coefficients of p, the degree-20 interpolant of z, and of P, the
    integral of p^2 from -1, scaled by the panel's half-width; P(-1) is
    exactly 0."""
    pz = _Z_MAP @ z
    prim = (_SQ_MAP @ pz[_NODES_PER_PANEL:] ** 2 * half).tolist()
    grid = prim[_PRIM_SQ.shape[0]:]
    grid[0] = 0.0
    return pz[:_NODES_PER_PANEL].tolist(), prim[:_PRIM_SQ.shape[0]], grid


def _solve_in_panels(need: float, end: float, lo: np.ndarray, z: np.ndarray,
                     vk: np.ndarray) -> float:
    """The u in [lo[0], end] whose integral from lo[0] is need, over the
    final panels (lo, z, vk) of [lo[0], end] as _refine returns them.

    Picks the panel whose cumulative Kronrod value passes need, and solves
    in it on P, the integral of p^2 (_square_model), with no Z call:
    Newton, safeguarded by bisection, in the _GRID cell whose P values
    bracket need, from the linear interpolant. P over a whole panel
    differs from its Kronrod value by rounding and model error (up to
    ~5e-13 on full panels), so a need past P's total returns the panel's
    end, and one of at most 0 its start.
    """
    m = 0
    for v in vk.tolist()[:-1]:
        if need < v:
            break
        need -= v
        m += 1
    a, b = float(lo[m]), float(lo[m + 1]) if m + 1 < lo.size else end
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    coef, prim, grid = _square_model(z[m], half)
    k = bisect.bisect_left(grid, need)
    if k == 0 or k == len(grid):
        return a if k == 0 else b
    g0, g1 = grid[k - 1], grid[k]
    u0, u1 = max(a, mid + half * _GRID[k - 1]), min(b, mid + half * _GRID[k])

    def fdf(u):
        v, p = _legval_pair((u - mid) / half, prim, coef)
        return v - need, p * p

    return safeguarded_newton(fdf, u0, u1, u0 + (u1 - u0) * (need - g0) / (g1 - g0))


def integrate_segment(a: float, b: float) -> IntegralResult:
    """Quadrature of Z^2 over [a, b], with |error| <= estimate <=
    AUTO_TOL_RATE * max(b - a, 1).

    Raises ToleranceError when refinement cannot meet that tolerance, and
    InfeasibleError when b exceeds T_MAX.
    """
    if not 0.0 <= a <= b < math.inf:
        raise DomainError("integrate_segment requires finite 0 <= a <= b")
    _check_t_max(b)
    _, _, vk, err, nodes = unwrap(next(_quad([(a, b)])))
    return IntegralResult(
        a=a,
        b=b,
        value=math.fsum(vk),
        abs_error_estimate=float(np.sum(err)),
        node_count=nodes,
    )


@dataclass
class CheckpointCache:
    """Ordered checkpoints T -> (J(T), error estimate), strictly monotone.

    Row i is the checkpoint at (i + 1) * DEFAULT_STRIDE, the right end of
    stride cell i. The cache only grows by appending, and each checkpoint
    value is independent of evaluation order (every stride cell
    integrates the same fixed interval). Not safe for concurrent writers.

    Every stride cell is integrated at CELL_TOL; load() rejects a file
    written with another stride or tolerance, or with a row off the
    stride grid.

    Each stride cell also holds knots (t, J(t), err(t)) at every inner
    edge of its final panel list, so adjacent stored points are one
    panel apart; in memory only and keyed by cell: save() never writes
    them and equality ignores them.
    extend_to() stores the knots of the cells it integrates, with one Z
    call per group of cells; a cell from load() gets them on the first
    hl_integral read that lands in it, from the same panels at the same
    tol, so every read sees the same knots whatever the cache's history.
    """

    ts: list[float] = field(default_factory=list)
    js: list[float] = field(default_factory=list)
    errs: list[float] = field(default_factory=list)
    # cell index -> the (t, J, err) arrays of that cell's knots, each
    # built from a list so that it is exactly sized
    _knots: dict[int, tuple[array, array, array]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def _validate(self, start: int = 0) -> None:
        for i in range(max(start, 1), len(self.ts)):
            if not (self.ts[i] > self.ts[i - 1] and self.js[i] > self.js[i - 1]):
                raise CacheCorruptionError(
                    f"cache not strictly increasing at row {i}: "
                    f"T {self.ts[i-1]}->{self.ts[i]}, J {self.js[i-1]}->{self.js[i]}"
                )
        for i in range(start, len(self.ts)):
            if self.ts[i] != (i + 1) * DEFAULT_STRIDE:
                raise CacheCorruptionError(
                    f"cache row {i} at T={self.ts[i]!r} is off the stride grid, "
                    f"expected T={(i + 1) * DEFAULT_STRIDE:g}")
        if any(e < 0 for e in self.errs[start:]):
            raise CacheCorruptionError("negative error estimate in cache")

    def nearest_below(self, T: float) -> tuple[float, float, float]:
        """Largest stored point (T0, J0, err0) with T0 <= T, checkpoint or
        knot; (0,0,0) if none."""
        i = bisect.bisect_right(self.ts, T)
        if i in self._knots:
            kt, kj, ke = self._knots[i]
            k = bisect.bisect_right(kt, T)
            if k:
                return (kt[k - 1], kj[k - 1], ke[k - 1])
        if i == 0:
            return (0.0, 0.0, 0.0)
        return (self.ts[i - 1], self.js[i - 1], self.errs[i - 1])

    def _cells(self, i: int, stop: int) -> int:
        """Integrate stride cells i .. stop - 1 at CELL_TOL (_quad), store
        their knots and append the checkpoints not yet held; returns the Z
        nodes."""
        nodes = 0
        spans = [(k * DEFAULT_STRIDE, (k + 1) * DEFAULT_STRIDE) for k in range(i, stop)]
        for i, ((_, b), refined) in enumerate(zip(spans, _quad(spans)), i):
            clo, _, vk, err, n = unwrap(refined)
            j0, e0 = (self.js[i - 1], self.errs[i - 1]) if i else (0.0, 0.0)
            vals = vk.tolist()
            self._knots[i] = (
                array("d", clo[1:].tolist()),
                array("d", [j0 + math.fsum(vals[:m]) for m in range(1, clo.size)]),
                array("d", (e0 + np.cumsum(err)[:-1]).tolist()),
            )
            if i == len(self.ts):
                self.ts.append(b)
                self.js.append(j0 + math.fsum(vals))
                self.errs.append(e0 + float(np.sum(err)))
            nodes += n
        return nodes

    def _fill(self, i: int) -> int:
        """Store the knots of stride cell i unless it holds them already,
        as a cell from load() does not; returns the Z nodes evaluated."""
        return 0 if i in self._knots else self._cells(i, i + 1)

    def extend_to(self, T: float) -> int:
        """Add checkpoints at stride multiples up to T, with their cells'
        knots; returns the Z nodes evaluated."""
        if not math.isfinite(T):
            raise DomainError(f"extend_to requires finite T, got {T}")
        _check_t_max(T)
        start = len(self.ts)
        nodes = self._cells(start, max(start, int(T // DEFAULT_STRIDE)))
        self._validate(start)
        return nodes

    def _knot_span(self, target: float) -> tuple[float, float, float]:
        """(t0, J(t0), t1): the adjacent knots or checkpoints whose J values
        bracket target, with J(t0) <= target < J(t1).

        Extends the cache in one grouped build to two cells below the
        mean-value inverse of target, then cell by cell through target's
        cell, and fills the knots of that cell if it came from load().
        A NaN or negative target (DomainError) and one above
        _TARGET_CEILING (InfeasibleError) are refused before any extension.
        Adjacent knots are one final panel apart.
        """
        if not target >= 0.0:
            raise DomainError(f"J target must be >= 0, got {target}")
        if target > _TARGET_CEILING:
            raise InfeasibleError(
                f"J target {target:g} exceeds the mean value {_TARGET_CEILING:g} at "
                f"T={T_MAX + 2.0 * DEFAULT_STRIDE:g}, so its root is past T_MAX={T_MAX:g}")
        if not self.js or self.js[-1] <= target:
            # |J - mean value| <= 205 below 6e4 puts the root within 23
            # units of this inverse, so a cold cache stops at the root's cell
            self.extend_to(safeguarded_newton(
                lambda t: (_mean_value(t) - target, math.log(t) + _MV_SLOPE),
                _MV_ZERO, T_MAX, T_MAX) - 2.0 * DEFAULT_STRIDE)
        while not self.js or self.js[-1] <= target:
            self.extend_to((len(self.ts) + 1) * DEFAULT_STRIDE)
        i = bisect.bisect_right(self.js, target)
        self._fill(i)
        kt, kj, _ = self._knots[i]
        k = bisect.bisect_right(kj, target)
        t0, j0 = (kt[k - 1], kj[k - 1]) if k else (
            (self.ts[i - 1], self.js[i - 1]) if i else (0.0, 0.0))
        return t0, j0, kt[k] if k < len(kt) else self.ts[i]

    def invert(self, targets: list[float]) -> list[tuple[float, float] | LadderLabError]:
        """(U, J(U)) with J(U) = target for each target, read off the stored
        prefix of J; a target that fails holds the LadderLabError it met.

        Each target's knot interval [t0, t1] comes from _knot_span, in
        input order, and is one panel; the intervals go through _quad
        together. U is solved in [t0, t1], in the panel whose cumulative
        value passes target, on the integral of p^2, p the degree-20
        interpolant of the panel's 21 Z values (_solve_in_panels). J(U) is
        hl_integral(U, self).value, bit for bit: its tail [nearest_below(U),
        U] is at most one panel, and the tails go through _quad together,
        as integrate_segment's span does. A U on a knot or checkpoint has a
        tail of no panel. Panel values do not depend on their batch, so U
        and J(U) depend only on target and the history-independent knots.
        """
        out: list = [attempt(self._knot_span, target) for target in targets]
        ok = [k for k, span in enumerate(out) if not isinstance(span, LadderLabError)]
        for k, refined in zip(ok, _quad([(out[k][0], out[k][2]) for k in ok])):
            if not isinstance(refined, LadderLabError):
                _, j0, t1 = out[k]
                U = _solve_in_panels(targets[k] - j0, t1, *refined[:3])
                refined = (*self.nearest_below(U)[:2], U)
            out[k] = refined
        ok = [k for k in ok if not isinstance(out[k], LadderLabError)]
        for k, refined in zip(ok, _quad([(out[k][0], out[k][2]) for k in ok])):
            out[k] = refined if isinstance(refined, LadderLabError) else (
                out[k][2], out[k][1] + math.fsum(refined[2]))
        return out

    def save(self, path: str) -> None:
        buf = io.StringIO()
        buf.write(_HEADER + "\n")
        buf.write("T,J,abs_err\n")
        for t, j, e in zip(self.ts, self.js, self.errs):
            buf.write(f"{t:.17g},{j:.17g},{e:.17g}\n")
        with open(path, "w", newline="\n") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path: str) -> "CheckpointCache":
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines:
            raise CacheCorruptionError(f"empty cache file {path}")
        header = lines.pop(0) if lines[0].startswith("#") else ""
        if not lines or lines[0] != "T,J,abs_err":
            raise CacheCorruptionError(f"bad cache header in {path}")
        if header != _HEADER:
            version = header[len(_VERSION_TAG):].partition(" ")[0] if header.startswith(_VERSION_TAG) else ""
            if version != ENGINE_VERSION:
                raise CacheCorruptionError(
                    f"stale cache {path}: engine version {version or 'missing'}, expected "
                    f"{ENGINE_VERSION}; delete it and rebuild with `ladderlab cache`")
            raise CacheCorruptionError(
                f"cache {path} has header {header!r}, expected {_HEADER!r}; "
                "delete it and rebuild with `ladderlab cache`")
        cache = cls()
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 3:
                raise CacheCorruptionError(f"bad cache row {ln!r} in {path}")
            cache.ts.append(float(parts[0]))
            cache.js.append(float(parts[1]))
            cache.errs.append(float(parts[2]))
        cache._validate()
        return cache


def hl_integral(T: float, cache: CheckpointCache | None = None) -> IntegralResult:
    """J(T): nearest cached checkpoint or knot plus a fresh tail segment,
    at most one panel wide.

    The checkpoints through the stride cell holding T and that cell's
    knots are computed on the way, and memoized in the cache; without
    one, the read goes through a fresh cache, so J(T) has the same bits
    either way. node_count counts those cells' nodes as well as the
    tail's.
    """
    if not 0.0 <= T < math.inf:
        raise DomainError("hl_integral requires finite T >= 0")
    _check_t_max(T)
    cache = cache if cache is not None else CheckpointCache()
    nodes = cache.extend_to(math.ceil(T / DEFAULT_STRIDE) * DEFAULT_STRIDE)
    if T % DEFAULT_STRIDE:
        nodes += cache._fill(int(T // DEFAULT_STRIDE))
    t0, j0, e0 = cache.nearest_below(T)
    tail = integrate_segment(t0, T)
    return IntegralResult(
        a=0.0, b=T, value=j0 + tail.value,
        abs_error_estimate=e0 + tail.abs_error_estimate,
        node_count=nodes + tail.node_count,
    )


def hl_representation(phi: float) -> float:
    """The almost-exact closed form phi*ln(phi) + (c - ln 2pi)*phi.

    Strictly increasing for phi >= 2; equals J at the descended
    ordinate by construction of the ladder. The integration constant of
    the underlying representation is fixed at 0 (recorded in report
    metadata as c0_convention).
    """
    if not 1.0 < phi < math.inf:
        raise DomainError("hl_representation requires finite phi > 1")
    return phi * math.log(phi) + (EULER_GAMMA - LN_TWO_PI) * phi


def default_cache_path() -> str | None:
    """Cache file from the HL_CACHE environment variable, if set."""
    return os.environ.get("HL_CACHE") or None

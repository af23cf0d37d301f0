"""Second moment of zeta on the critical line, with checkpointing.

J(T) = integral of |zeta(1/2+it)|^2 over [0, T], evaluated by panelized
quadrature on Z(t)^2. Panels are 0.8 wide below t = 8 and never exceed
7 pi/ln max(t, 20) from there on, 2.9 wavelengths 2 pi/ln(t/2 pi) of
Z^2's fastest component at t = 5.8e4. Every panel, from t = 0, takes the
12-point Gauss-Legendre rule, and its estimate is an a-priori bound
(_gauss_bound: Trefethen's Gauss bound with the approximate functional
equation's |Z(t + iy)| model, checked against mpmath in
tests/fixtures/z_strip.json and z_strip_low.json); below t = 8 each
ellipse stays under y = 0.45, clear of the singularities at t = +-i/2.
Against 40-node Gauss-Legendre on each half of seeded full-width panels
from t = 0 to 9.99e4, the rule misses by at most 0.006 of the panel's
estimate, and by at most 1/530 of it on the panels of [0, 100]; the
worst stride cell's estimate up to T_MAX is 0.39 of CELL_TOL, and the
mpmath J oracle lies within the estimates. Fewer nodes are what pays: a
Z node's cost is the cosines of its Riemann-Siegel sum, and a cold build
to the scan reach evaluates 332,760 of them. The engine's Z error bound
is folded into the estimate via Cauchy-Schwarz on each panel. Each
panel's weighted values are summed node after node, so a panel's bits do
not depend on the batch it is evaluated in. Every segment and stride
cell meets one absolute tolerance, AUTO_TOL_RATE per unit of width (at
least one unit), on its panels as they are, or raises ToleranceError;
every final panel of the stride cells to T_MAX meets that tolerance on
its own (the worst at 0.52 of it).

J is expensive enough that ladder solves want checkpoints: a
CheckpointCache holds J at every DEFAULT_STRIDE multiple, and in memory
also J at a knot on every final panel edge inside each stride cell,
taken from the panel values the cell's quadrature already produced, so
adjacent stored points t0 < t1 are one panel apart. Between them J(T)
is J(t0) + P(T), P the integral from t0 of p^2, p the degree-20
interpolant of Z at the panel's 21 Kronrod nodes (_read_in_panel); its
estimate is the one stored at t1, J(t0)'s plus the panel's. The panel is
one its stride cell already accepted, so a read evaluates Z at its 21
Kronrod nodes (_panel_z) and integrates nothing: one lookup plus one Z
call, and a stored point none. CheckpointCache.invert solves
J(U) = target on the same model of the same panel (_solve_in_panel) and
reads J(U) off it, so J(U) is hl_integral(U) by construction and a warm
ascent makes one Z call of 21 nodes and nothing else.
One generator, _quad, integrates every span, a segment or a build's
stride cells: it cuts the panels of all its spans, in order, into groups
of up to 2^14 nodes, one Z call each, and evaluates them ahead of the
span it checks, side by side on the usable CPUs (_in_order, on
Executor.map); panel values do not depend on their batch, so the cut
and the threads move no bit. A span that misses its tolerance raises
ToleranceError out of _quad, after the spans before it, with the pool
shut down; these groups are all the work that runs on a thread, and no
read starts one. The knots of all filled cells are one run sorted by t.
A cell from load() gets its knots (_stored_read), spliced into that
run, from the first read that lands in it; invert fills its targets'
cells in one grouped pass, and builds nothing on a warm cache.
hl_integral_all reads many T with one Z call per 780 panels, so one on a
warm cache; hl_integral is its one-T case.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from array import array
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .constants import EULER_GAMMA, LN_TWO_PI, T_MAX
from .errors import (CacheCorruptionError, DomainError, InfeasibleError, LadderLabError,
                     ToleranceError, attempt, unwrap)
from .zeta import _check_range, z_array, z_error_bound

# The read model's nodes: the 21 Gauss-Kronrod abscissae of QUADPACK qk21
# (Piessens et al. 1983) from 1 down to the centre; no panel is integrated
# on them.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
# Ascending on [-1, 1].
_XK = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_READ_NODES = _XK.size
# The 12-point Gauss-Legendre rule of every panel from t = 0 on: its
# abscissae from 1 down to the centre and their weights, at 33 digits
# (mpmath gauss_quadrature at 40).
_XGL_HALF = (0.981560634246719250690549090149281, 0.904117256370474856678465866119096,
             0.769902674194304687036893833212818, 0.587317954286617447296702418940534,
             0.367831498998180193752691536643718, 0.125233408511468915472441369463853)
_WGL_HALF = (0.0471753363865118271946159614850171, 0.106939325995318430960254718193996,
             0.160078328543346226334652529543359, 0.203167426723065921749064455809798,
             0.233492536538354808760849898924878, 0.249147045813402785000562436042951)
_XGL = np.array([-x for x in _XGL_HALF] + list(_XGL_HALF[::-1]))
_WGL = np.array(_WGL_HALF + _WGL_HALF[::-1])
_GAUSS_NODES = _XGL.size
# Its a-priori estimate (_gauss_bound) takes Z^2 on a Bernstein ellipse
# of each panel through t +- iy, y at most this; the strip model behind
# it is checked against mpmath up to here (tests/fixtures/z_strip.json
# and z_strip_low.json).
_STRIP_Y = 3.0
# Panels starting below _NEAR_ZERO are _NEAR_ZERO_WIDTH wide and their
# ellipses at most _NEAR_ZERO_Y high, clear of the singularity of theta
# at t = i/2 and of zeta's pole at t = -i/2.
_NEAR_ZERO = 8.0
_NEAR_ZERO_WIDTH = 0.8
_NEAR_ZERO_Y = 0.45
# invert() solves on P(x), the integral from -1 of p^2, p the degree-20
# interpolant of the Z values z at the 21 Kronrod nodes. _Z_MAP @ z holds
# the 21 Legendre coefficients of p, then p at 41 Chebyshev points, which
# fix p^2 (degree 40); _SQ_MAP @ p(those points)^2 holds the 42 Legendre
# coefficients of P, then P on _GRID. Z has half the bandwidth of Z^2, so
# p^2 follows Z^2 between the nodes closer than an interpolant of Z^2.
_LEG = np.linalg.inv(np.polynomial.legendre.legvander(_XK, _READ_NODES - 1))
_CHEB = np.cos(np.pi * (np.arange(2 * _READ_NODES - 1) + 0.5) / (2 * _READ_NODES - 1))
_Z_MAP = np.vstack([_LEG, np.polynomial.legendre.legvander(_CHEB, _READ_NODES - 1) @ _LEG])
_PRIM_SQ = np.polynomial.legendre.legint(
    np.linalg.inv(np.polynomial.legendre.legvander(_CHEB, _CHEB.size - 1)), lbnd=-1.0)
_GRID = np.linspace(-1.0, 1.0, 65).tolist()
_SQ_MAP = np.vstack([_PRIM_SQ, np.polynomial.legendre.legvander(_GRID, _CHEB.size) @ _PRIM_SQ])
# The Clenshaw steps of numpy's legval on up to 42 coefficients, P's
# count: (coefficient folded in, (nd - 1)/nd, (2 nd - 1)/nd) for nd = 41
# down to 2.
_CLENSHAW = [(nd - 2, (nd - 1) / nd, (2 * nd - 1) / nd) for nd in range(_CHEB.size, 1, -1)]

# A panel starting at t >= _NEAR_ZERO is _PANEL_CAP / ln max(t, 20) wide
# (or cut at its span's end): one cap from t = 8 on, below the seam as
# above it. At t = 5.8e4, 7 pi / ln t is 2.9
# wavelengths 2 pi / ln(t / 2 pi). The read model sets the cap, not the
# estimate: a J read between stored points, and an ascent, solve on the
# integral of p^2, p the interpolant of Z at the panel's 21 Kronrod nodes
# (_square_model), which misreads J by 1.3e-11 to 1.5e-9 on 7 pi panels
# and by 4e-5 to 5e-4 on panels of 17 pi to 40 pi, the widths the Gauss
# bound would allow.
_PANEL_CAP = 7.0 * math.pi

# Bump on every change that moves Z values, saved checkpoints or the
# cache file's layout: load() rejects other versions. Knots are never
# saved, so moving them does not.
ENGINE_VERSION = "10"
# The one quadrature tolerance, absolute per unit of integration length
# (_check). The engine's own error bound contributes ~6e-6 per unit in
# the worst band, so this is the tightest rate that cannot trip the
# engine-floor guard.
AUTO_TOL_RATE = 3e-5
DEFAULT_STRIDE = 50.0
# That tolerance on one stride cell, recorded in the cache header.
CELL_TOL = AUTO_TOL_RATE * DEFAULT_STRIDE
# First line of every cache file but its row count; load() accepts no other.
_VERSION_TAG = "# ladderlab cache v"
_HEADER = (f"{_VERSION_TAG}{ENGINE_VERSION} stride={DEFAULT_STRIDE:.17g} tol={CELL_TOL:.17g}"
           " T,J,abs_err <f8")
# Most Z nodes in one z_array call: a group of _quad's panels or of
# _panel_z's. _in_order queues all of _quad's groups and runs one per CPU
# at a time, so peak RSS grows with the group, and a smaller one pays
# more Python per node in the kernel. On 2 vCPUs, as a share of the old
# z_array split's cold-build seconds (fresh processes, 10-20 rounds), and
# cache-build peak_rss_mb at equal pass counts: 2^13 0.98-1.06x,
# +1.0-1.6 MB; 3 * 2^12 0.86-1.01x, +1.9-2.3 MB; 2^14 0.88-0.92x (0.86x
# in one process, 3 * 2^12 0.90x), +2.3-2.6 MB; 2^15 0.89-0.91x,
# +5.8-6.9 MB.
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
        if cur < _NEAR_ZERO:
            cur += _NEAR_ZERO_WIDTH
        else:
            cur += _PANEL_CAP / log(cur if cur > 20.0 else 20.0)
        if cur > b:
            cur = b
        add(cur)
    return np.array(edges)


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(half, t): the half-widths of the panels [lo, hi] and their nodes
    at the abscissae x of a rule on [-1, 1], (P, x.size), for
    _eval_panels and _panel_z alike."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * x[None, :]


def _gauss_bound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A-priori bound on the 12-point Gauss error for Z^2 on each panel
    [lo, hi] (Trefethen, SIAM Rev. 2008, Thm 4.5): with h the half-width,
    f = Z^2 analytic in the Bernstein ellipse E_rho through t +- i y and
    |f| <= M there,
        |I - I_n| <= h (64/15) M rho^(-2n) / (rho^2 - 1),
    rho = y/h + sqrt(1 + (y/h)^2), and M = 16 N e^(y |L|) is the square of
    the approximate functional equation's |Z(t + iy)| <= 4 sqrt(N) e^(|y| |L| / 2),
    N = floor(sqrt(t / 2 pi)) at the panel's right end, at least 1, and
    |L| = |ln(t / 2 pi)| at the end where it is larger: the right end from
    2 pi on, the left one below it, each end taken at t >= 1. y = 2n/|L|, which
    minimizes e^(y |L|) rho^(-2n) for rho ~ 2y/h, up to _STRIP_Y, and up
    to _NEAR_ZERO_Y on a panel starting below _NEAR_ZERO."""
    half = 0.5 * (hi - lo)
    x = np.maximum(hi, 1.0) / (2.0 * math.pi)
    log_x = np.maximum(np.log(x), -np.log(np.maximum(lo, 1.0) / (2.0 * math.pi)))
    y = np.minimum(2.0 * _GAUSS_NODES / log_x, np.where(lo < _NEAR_ZERO, _NEAR_ZERO_Y, _STRIP_Y))
    # s at most 1e100, so a sliver of a panel has bound 0 with no overflow
    s = y / np.maximum(half, 1e-100 * y)
    rho = s + np.sqrt(1.0 + s * s)
    m = 16.0 * np.maximum(np.floor(np.sqrt(x)), 1.0) * np.exp(y * log_x)
    return half * (64.0 / 15.0) * m * rho ** (-2.0 * _GAUSS_NODES) / (rho * rho - 1.0)


def _eval_panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, est, eng) for a batch of panels [lo, hi], from one z_array call
    (none for a batch of no panel): each panel's 12-point Gauss value of
    the integral of Z^2, its a-priori rule error bound (_gauss_bound), and
    the engine error.

    Each panel's weighted values are added node after node (a running sum
    along the row, not BLAS and not numpy's pairwise sum), so a panel's
    values do not depend on the other panels in the batch."""
    half, t = _panel_nodes(lo, hi, _XGL)
    f = z_array(t.ravel()).reshape(t.shape) ** 2 if t.size else t
    v = np.add.accumulate(f * _WGL, axis=1)[:, -1] * half
    # engine contribution: |d integral| <= 2 int |Z| eps <= 2 eps sqrt(I w)
    eng = 2.0 * z_error_bound(0.5 * (lo + hi)) * np.sqrt(np.maximum(v, 0.0) * (hi - lo))
    return v, _gauss_bound(lo, hi), eng


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(groups: list[tuple[np.ndarray, np.ndarray]]) -> Iterator:
    """_eval_panels(lo, hi) for each panel group (lo, hi) of _quad's, in
    order: inline, starting no thread, for one group or one usable CPU;
    else queued at once on a pool of one worker thread per usable CPU, at
    most one per group (Executor.map). A group's exception is raised at
    its turn. Closing the generator, or an exception, cancels the groups
    not yet started, waits for the running ones and shuts the pool down."""
    if len(groups) < 2 or _usable_cpus() < 2:
        yield from itertools.starmap(_eval_panels, groups)
        return
    # imported here, not with the module: concurrent.futures imports
    # logging, about 7 ms that a process with no pooled call need not pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_usable_cpus(), len(groups))) as pool:
        yield from pool.map(_eval_panels, *zip(*groups))


def _panel_z(spans: list[tuple[float, float]]) -> Iterator[np.ndarray]:
    """Z at the 21 Kronrod read nodes of each panel [t0, t1] of spans in
    order, from one z_array call per _GROUP_NODES nodes (780 panels) in
    the calling thread; no call for no panel. These are the panels between
    adjacent stored points, which their stride cells already accepted."""
    t = _panel_nodes(*np.array(spans, dtype=float).reshape(-1, 2).T, _XK)[1]
    per = _GROUP_NODES // _READ_NODES
    for k in range(0, len(t), per):
        yield from z_array(t[k:k + per].ravel()).reshape(-1, _READ_NODES)


def _check(a: float, b: float, v: np.ndarray, est: np.ndarray, eng: np.ndarray) -> np.ndarray:
    """err, the per-panel estimate (rule bound + engine error), of [a, b]
    from its panels' _eval_panels values, once the estimates meet the one
    quadrature tolerance AUTO_TOL_RATE * max(b - a, 1), CELL_TOL on a
    stride cell.

    A total estimate over the tolerance raises ToleranceError with the
    value and estimate attached; one whose engine part alone exceeds half
    the tolerance is named as the engine floor, which no narrower panel
    could cross."""
    tol = AUTO_TOL_RATE * max(b - a, 1.0)
    err = est + eng
    if float(np.sum(err)) <= tol:
        return err
    what = "engine error floor" if float(np.sum(eng)) > 0.5 * tol else "panel error bound"
    raise ToleranceError(
        f"{what} exceeds tol={tol:g} on [{a},{b}]",
        best_value=math.fsum(v),
        best_error=float(np.sum(err)),
    )


def _quad(spans: list[tuple[float, float]]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each [a, b] of spans in order, (lo, v, err): its panels' left
    edges, Gauss values and estimates (_check), over _GAUSS_NODES * lo.size
    Z nodes: a segment, or the stride cells of a build. A span that
    misses its tolerance raises _check's ToleranceError here, after the
    spans before it are yielded and with the pool shut down.

    The panels of all spans (_panel_edges; a zero-width span has none)
    are cut, in order, into groups of _GROUP_NODES // _GAUSS_NODES, so a
    group may end inside a span and a long span takes many groups. The
    groups are evaluated (_eval_panels) by _in_order, ahead of the span
    being checked here."""
    edges = [_panel_edges(a, b) for a, b in spans]
    per = _GROUP_NODES // _GAUSS_NODES
    lo = np.concatenate([np.empty(0), *(e[:-1] for e in edges)])
    hi = np.concatenate([np.empty(0), *(e[1:] for e in edges)])
    groups = [(lo[k:k + per], hi[k:k + per]) for k in range(0, lo.size, per)]
    # closed on the way out, a ToleranceError's too: its traceback can
    # hold this frame, and with it the pool, past the generator's end
    with closing(_in_order(groups)) as results:
        vals = [np.empty(0)] * 3  # (v, est, eng) of the evaluated panels not yet checked
        for (a, b), e in zip(spans, edges):
            n = e.size - 1
            while vals[0].size < n:
                vals = [np.concatenate(x) for x in zip(vals, next(results))]
            yield e[:-1], vals[0][:n], _check(a, b, *[x[:n] for x in vals])
            vals = [x[n:] for x in vals]


def _legval_pair(x: float, c: list[float], d: list[float]) -> tuple[float, float]:
    """(legval(x, c), legval(x, d)) of np.polynomial.legendre, for
    2 <= len(d) <= len(c) <= 42, on Python floats in one loop.

    The same Clenshaw recurrences with the same IEEE operations in the
    same order, so the same bits, at a fraction of the cost of two numpy
    scalar calls. With len(d) = 2 every step folds c alone, so
    _legval_pair(x, c, (0.0, 0.0))[0] is legval(x, c) with the operations
    of c's loop and no more."""
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
    prim = (_SQ_MAP @ pz[_READ_NODES:] ** 2 * half).tolist()
    grid = prim[_PRIM_SQ.shape[0]:]
    grid[0] = 0.0
    return pz[:_READ_NODES].tolist(), prim[:_PRIM_SQ.shape[0]], grid


def _solve_in_panel(need: float, t0: float, t1: float, z: np.ndarray) -> tuple[float, list[float]]:
    """(u, P): the u in [t0, t1] whose integral from t0 is need, over the
    panel [t0, t1] with Z values z at its 21 Kronrod nodes, and the
    Legendre coefficients of P, the integral of p^2 (_square_model), which
    _read_in_panel reads J(u) from.

    Solves on P with no Z call: Newton, safeguarded by bisection, in the
    _GRID cell whose P values bracket need, from the linear interpolant.
    P over the whole panel differs from the panel's stored quadrature
    value by rule and model error (up to 6.8e-8 on the panels to T_MAX,
    4e-11 on those below t = 100), so a need past P's total returns t1,
    and one of at most 0 t0.
    """
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    coef, prim, grid = _square_model(z, half)
    k = bisect.bisect_left(grid, need)
    if k == 0 or k == len(grid):
        return (t0 if k == 0 else t1), prim
    g0, g1 = grid[k - 1], grid[k]
    u0, u1 = max(t0, mid + half * _GRID[k - 1]), min(t1, mid + half * _GRID[k])

    def fdf(u):
        v, p = _legval_pair((u - mid) / half, prim, coef)
        return v - need, p * p

    return safeguarded_newton(fdf, u0, u1, u0 + (u1 - u0) * (need - g0) / (g1 - g0)), prim


def _read_in_panel(T: float, j0: float, t0: float, t1: float, prim: list[float]) -> float:
    """J(T) = J(t0) + P(T) for t0 <= T <= t1, j0 = J(t0) and P the
    integral from t0 of p^2 over the panel [t0, t1], from P's Legendre
    coefficients prim (_square_model)."""
    return j0 + _legval_pair((T - 0.5 * (t0 + t1)) / (0.5 * (t1 - t0)), prim, (0.0, 0.0))[0]


def integrate_segment(a: float, b: float) -> IntegralResult:
    """Quadrature of Z^2 over [a, b] on its panels, each evaluated once at
    the 12-point Gauss rule, with |error| <= estimate <=
    AUTO_TOL_RATE * max(b - a, 1).

    Raises ToleranceError when the panels' bounds miss that tolerance
    (no segment to T_MAX does), and InfeasibleError when b exceeds T_MAX
    (_check_range), before any quadrature.
    """
    if not 0.0 <= a <= b < math.inf:
        raise DomainError("integrate_segment requires finite 0 <= a <= b")
    _check_range(a, b)
    [(lo, v, err)] = _quad([(a, b)])
    return IntegralResult(
        a=a,
        b=b,
        value=math.fsum(v),
        abs_error_estimate=float(np.sum(err)),
        node_count=_GAUSS_NODES * lo.size,
    )


@dataclass
class CheckpointCache:
    """Ordered checkpoints T -> (J(T), error estimate), strictly monotone.

    Row i is the checkpoint at (i + 1) * DEFAULT_STRIDE, the right end of
    stride cell i. The cache only grows by appending, and each checkpoint
    value is independent of evaluation order (every stride cell
    integrates the same fixed interval). Not safe for concurrent writers.

    Every stride cell is integrated at CELL_TOL; load() rejects a file
    written with another stride or tolerance, and the constructor, which
    load() calls, refuses the rows load() refuses (_validate): a
    non-finite value, a row off the stride grid, T or J not strictly
    increasing, a negative error.

    Each stride cell also holds knots (t, J(t), err(t)) at every inner
    edge of its final panel list, so adjacent stored points are one
    panel apart; in memory only: save() never writes them and equality
    ignores them. J between two adjacent stored points is read off the
    model of the one panel between them (hl_integral), which the cell's
    quadrature already accepted, so a read evaluates Z on it and
    integrates nothing.
    extend_to() stores the knots of the cells it integrates, with one Z
    call per group of cells; a cell from load() gets them on the first
    hl_integral read that lands in it, or in invert's one grouped fill
    of its targets' cells, from the same panels at the same tol, so every
    read sees the same knots whatever the cache's history.

    Checkpoints are held in array('d'); lists passed to the constructor
    are copied into arrays, and columns of unequal length are refused
    (CacheCorruptionError) before the rows are. Knots are held in three cache-wide arrays,
    t, J and err, one run sorted by t, and so by J, whatever order the
    cells were filled in: a build appends a cell's knots, and a cell from
    load() splices them in. _bracket bisects the checkpoints and the
    knots and takes the nearer point on each side.
    """

    ts: array = field(default_factory=lambda: array("d"))
    js: array = field(default_factory=lambda: array("d"))
    errs: array = field(default_factory=lambda: array("d"))

    def __post_init__(self) -> None:
        self.ts, self.js, self.errs = (array("d", v) for v in (self.ts, self.js, self.errs))
        if not len(self.ts) == len(self.js) == len(self.errs):
            raise CacheCorruptionError(
                f"cache columns of unequal length: {len(self.ts)} T, {len(self.js)} J, "
                f"{len(self.errs)} abs_err")
        self._validate()
        # the knots of every filled cell, one run sorted by t, and so by J
        self._kt, self._kj, self._ke = array("d"), array("d"), array("d")

    def _validate(self, start: int = 0) -> None:
        """Refuse (CacheCorruptionError) the first row from start on that
        holds a non-finite value, is not strictly above the row before it
        in both T and J, is off the stride grid or has a negative error."""
        # row 0 has no row before it
        t0, j0 = (self.ts[start - 1], self.js[start - 1]) if start else (-math.inf, -math.inf)
        finite = math.isfinite
        for i, t, j, e in zip(range(start, len(self.ts)), self.ts[start:], self.js[start:],
                              self.errs[start:]):
            if not (finite(t) and finite(j) and finite(e)):
                raise CacheCorruptionError(
                    f"cache row {i} holds a non-finite value: T={t!r}, J={j!r}, abs_err={e!r}")
            if not (t > t0 and j > j0):
                raise CacheCorruptionError(
                    f"cache not strictly increasing at row {i}: T {t0}->{t}, J {j0}->{j}")
            if t != (i + 1) * DEFAULT_STRIDE:
                raise CacheCorruptionError(
                    f"cache row {i} at T={t!r} is off the stride grid, "
                    f"expected T={(i + 1) * DEFAULT_STRIDE:g}")
            if e < 0:
                raise CacheCorruptionError(f"cache row {i} holds a negative error estimate: "
                                           f"abs_err={e!r}")
            t0, j0 = t, j

    def nearest_below(self, T: float) -> tuple[float, float, float]:
        """Largest stored point (T0, J0, err0) with T0 <= T, checkpoint or
        knot; (0,0,0) if none."""
        return self._bracket(T)[0]

    def _point(self, i: int) -> tuple[float, float, float]:
        """Checkpoint row i as (T, J, err), the origin (0, 0, 0) for i = -1."""
        return (self.ts[i], self.js[i], self.errs[i]) if i >= 0 else (0.0, 0.0, 0.0)

    def _holds_knots(self, i: int) -> bool:
        """Whether stride cell i holds its knots: it has at least 6 inner
        panel edges, so a filled cell has a knot inside it."""
        k = bisect.bisect_right(self._kt, i * DEFAULT_STRIDE)
        return k < len(self._kt) and self._kt[k] < (i + 1) * DEFAULT_STRIDE

    def _bracket(self, x: float, key: int = 0) -> tuple[tuple, tuple | None]:
        """Adjacent stored points (t, J, err) around x, by t (key 0) or by
        J (key 1): the last whose key is <= x, a checkpoint, a knot or the
        origin, and the next one, None past the last checkpoint.

        Bisects the checkpoints and the knots and takes the nearer point
        on each side; a cell from load() without its knots brackets x by
        its checkpoints."""
        i = bisect.bisect_right((self.ts, self.js)[key], x)
        kt, kj, ke = self._kt, self._kj, self._ke
        k = bisect.bisect_right((kt, kj)[key], x)
        below = self._point(i - 1)
        if k and kt[k - 1] > below[0]:
            below = (kt[k - 1], kj[k - 1], ke[k - 1])
        # a knot above x lies below the last checkpoint, so i is a row
        if k < len(kt) and kt[k] < self.ts[i]:
            return below, (kt[k], kj[k], ke[k])
        return below, self._point(i) if i < len(self.ts) else None

    def _cells(self, cells) -> int:
        """Integrate the stride cells numbered in cells, ascending, at
        CELL_TOL (_quad) in one grouped pass, store their knots and append
        the checkpoints not yet held (a cell past the last checkpoint
        follows it in order); returns the Z nodes."""
        nodes = 0
        spans = [(k * DEFAULT_STRIDE, (k + 1) * DEFAULT_STRIDE) for k in cells]
        # _quad first, so the loop drives it to its end
        for (clo, v, err), i, (_, b) in zip(_quad(spans), cells, spans):
            j0, e0 = (self.js[i - 1], self.errs[i - 1]) if i else (0.0, 0.0)
            vals = v.tolist()
            # after every knot below b: a build appends, a loaded cell splices
            k = bisect.bisect_right(self._kt, b)
            self._kt[k:k] = array("d", clo[1:].tolist())
            self._kj[k:k] = array("d", [j0 + math.fsum(vals[:m]) for m in range(1, clo.size)])
            self._ke[k:k] = array("d", (e0 + np.cumsum(err)[:-1]).tolist())
            if i == len(self.ts):
                self.ts.append(b)
                self.js.append(j0 + math.fsum(vals))
                self.errs.append(e0 + float(np.sum(err)))
            nodes += _GAUSS_NODES * clo.size
        return nodes

    def extend_to(self, T: float) -> int:
        """Add checkpoints at stride multiples up to T, with their cells'
        knots; returns the Z nodes evaluated. A negative T adds nothing, one
        past T_MAX is refused (_check_range on [0, T])."""
        if not math.isfinite(T):
            raise DomainError(f"extend_to requires finite T, got {T}")
        _check_range(0.0, T)
        start, stop = len(self.ts), int(T // DEFAULT_STRIDE)
        if stop <= start:
            return 0
        nodes = self._cells(range(start, stop))
        self._validate(start)
        return nodes

    def _target_cell(self, target: float) -> int:
        """The stride cell i whose checkpoint J values bracket target,
        J(i * DEFAULT_STRIDE) <= target < J((i + 1) * DEFAULT_STRIDE).

        Extends the cache in one grouped build to two cells below the
        mean-value inverse of target, then cell by cell through target's
        cell; it does not fill the knots of a cell from load(). A NaN or
        negative target (DomainError) and one above _TARGET_CEILING
        (InfeasibleError) are refused before any extension.
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
        return bisect.bisect_right(self.js, target)

    def invert(self, targets: list[float]) -> list[tuple[float, float] | LadderLabError]:
        """(U, J(U)) with J(U) = target for each target, read off the stored
        prefix of J; a target that fails holds the LadderLabError it met.

        Each target's stride cell comes from _target_cell, in input order;
        the cells from load() that lack their knots are then filled in one
        grouped pass (_cells), none on a warm cache. The adjacent stored
        points t0 < t1 whose J values bracket the target, J(t0) <= target <
        J(t1), are one panel apart, a panel its stride cell already
        accepted, so nothing is integrated: on a warm cache, one Z call of
        21 nodes per target in the calling thread, for up to 780 targets
        (_panel_z). U is solved in [t0, t1] on the integral of p^2, p the
        degree-20 interpolant of the panel's 21 Z values (_solve_in_panel),
        and J(U) is read off that same model (_read_in_panel), or is the
        stored J when U is t0 or t1. So J(U) is hl_integral(U, self).value,
        bit for bit. Z values do not depend on their batch, so U and J(U)
        depend only on target and the history-independent knots.
        """
        out: list = [attempt(self._target_cell, target) for target in targets]
        bare = sorted({i for i in out
                       if not isinstance(i, LadderLabError) and not self._holds_knots(i)})
        filled = attempt(self._cells, bare) if bare else None
        for k, i in enumerate(out):
            if not isinstance(i, LadderLabError):
                out[k] = self._bracket(targets[k], 1) if self._holds_knots(i) else filled
        ok = [k for k, span in enumerate(out) if not isinstance(span, LadderLabError)]
        for k, z in zip(ok, _panel_z([(out[k][0][0], out[k][1][0]) for k in ok])):
            (t0, j0, _), (t1, j1, _) = out[k]
            U, prim = _solve_in_panel(targets[k] - j0, t0, t1, z)
            out[k] = (U, j0 if U == t0 else j1 if U == t1 else _read_in_panel(U, j0, t0, t1, prim))
        return out

    def save(self, path: str) -> None:
        """Write the header line, with the row count, then the T, J and
        abs_err columns as raw little-endian float64; knots are never
        written."""
        with open(path, "wb") as fh:
            fh.write(f"{_HEADER} rows={len(self.ts)}\n".encode())
            for col in (self.ts, self.js, self.errs):
                fh.write(np.asarray(col, "<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "CheckpointCache":
        """The cache a file from save() holds, without knots; refuses
        (CacheCorruptionError) another header (a stale engine version, or
        another stride or tol), a body that is not rows x 24 bytes, and
        the first row _validate refuses."""
        with open(path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
        header, _, rows = head.decode(errors="replace").partition(" rows=")
        if header != _HEADER:
            version = header[len(_VERSION_TAG):].partition(" ")[0] if header.startswith(_VERSION_TAG) else ""
            if version != ENGINE_VERSION:
                raise CacheCorruptionError(
                    f"stale cache {path}: engine version {version or 'missing'}, expected "
                    f"{ENGINE_VERSION}; delete it and rebuild with `ladderlab cache`")
            raise CacheCorruptionError(
                f"cache {path} has header {header!r}, expected {_HEADER!r}; "
                "delete it and rebuild with `ladderlab cache`")
        if len(body) % 24 or rows != str(len(body) // 24):
            raise CacheCorruptionError(
                f"bad cache body in {path}: {len(body)} bytes, expected 24 a row for rows={rows!r}")
        return cls(*np.frombuffer(body, "<f8").reshape(3, -1).tolist())


def _stored_read(T: float, cache: CheckpointCache) -> tuple:
    """((t0, J0, err0), the stored point above or None, Z nodes) for a read
    of J(T): the adjacent stored points around T, after the checkpoints
    through T's stride cell and that cell's knots are computed."""
    if not 0.0 <= T < math.inf:
        raise DomainError("hl_integral requires finite T >= 0")
    _check_range(0.0, T)
    nodes = cache.extend_to(math.ceil(T / DEFAULT_STRIDE) * DEFAULT_STRIDE)
    i = int(T // DEFAULT_STRIDE)
    if T % DEFAULT_STRIDE and not cache._holds_knots(i):  # a cell from load()
        nodes += cache._cells([i])
    return (*cache._bracket(T), nodes)


def hl_integral_all(Ts, cache: CheckpointCache | None = None
                    ) -> list[IntegralResult | LadderLabError]:
    """hl_integral(T, cache) for each T, or the LadderLabError its read met.

    The cache is extended and filled for each T in input order, so each
    slot's node_count is that of a read after the ones before it; then Z
    is evaluated on the panels of all reads between stored points
    (_panel_z), one Z call of 21 nodes per read on a warm cache for up to
    780 of them (2^14 nodes), in the calling thread. Z values do not
    depend on their batch, so each slot has the bits of a one-T call.
    """
    cache = cache if cache is not None else CheckpointCache()
    out: list = [attempt(_stored_read, T, cache) for T in Ts]
    reads = []
    for k, (T, res) in enumerate(zip(Ts, out)):
        if not isinstance(res, LadderLabError):
            (t0, j0, e0), _, nodes = res
            if T == t0:
                out[k] = IntegralResult(a=0.0, b=T, value=j0, abs_error_estimate=e0,
                                        node_count=nodes)
            else:
                reads.append(k)
    for k, z in zip(reads, _panel_z([(out[k][0][0], out[k][1][0]) for k in reads])):
        (t0, j0, _), (t1, _, e1), nodes = out[k]
        prim = _square_model(z, 0.5 * (t1 - t0))[1]
        out[k] = IntegralResult(a=0.0, b=Ts[k], value=_read_in_panel(Ts[k], j0, t0, t1, prim),
                                abs_error_estimate=e1, node_count=nodes + _READ_NODES)
    return out


def hl_integral(T: float, cache: CheckpointCache | None = None) -> IntegralResult:
    """J(T): the stored J of a checkpoint, knot or the origin at T, with no
    Z call, or else J(t0) + P(T) between the adjacent stored points
    t0 < T < t1, P the integral from t0 of p^2, p the degree-20
    interpolant of Z at the 21 Kronrod nodes of the panel [t0, t1]
    (_read_in_panel, after one Z call on that panel's nodes; the stride
    cell already accepted the panel, so nothing is integrated). The
    estimate is the one stored at t1: J(t0)'s plus the
    panel's rule estimate and engine term.

    The checkpoints through the stride cell holding T and that cell's
    knots are computed on the way, and memoized in the cache; without
    one, the read goes through a fresh cache, so J(T) has the same bits
    either way. node_count counts those cells' nodes as well as the
    panel's. hl_integral_all for one T. integrate_segment is a separate
    route to J: a quadrature of any [a, b] on the same rules, with no
    cache.
    """
    return unwrap(hl_integral_all([T], cache)[0])


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

"""Critical-line sampling engine.

Evaluates the Riemann-Siegel theta function and the real rotation
Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t) in float64, fast enough to feed
oscillatory quadrature with millions of nodes.

Two branches, stitched at ``RS_SEAM``:

* t >= RS_SEAM: Riemann-Siegel main sum plus the first four correction
  terms C0..C3, one table of polynomials built from derivatives of the
  entire function (Gabcke 1979)

      Psi(p) = cos(2*pi*(p^2 - p - 1/16)) / cos(2*pi*p)

  whose Taylor coefficients about p = 1/2 are recovered once, at import,
  by an FFT over a circle of radius 1.5 (all apparent poles of Psi are
  removable, so the series converges on the whole unit interval).

* t < RS_SEAM: direct Euler-Maclaurin evaluation of zeta(1/2 + i*t),
  rotated by a theta value computed from a shifted Stirling expansion of
  log Gamma(1/4 + i*t/2). This branch is machine precision for the small
  t it serves.

Error model: ``z_error_bound`` is a step bound over the error measured
against a 50-digit oracle up to t = 9.9e3 and a 30-digit one on
[9.9e3, 1e5] (tests/fixtures): 5e-13 below RS_SEAM, 1e-6 on
[RS_SEAM, 1e3), 5e-8 on [1e3, 1e4) and 1e-8 on [1e4, T_MAX]. Between
the oracle points the bound rests on the t^(-9/4) decay of the
remainder. Ordinates above T_MAX
(and NaN) are refused with InfeasibleError rather than served unvouched,
negative ones with DomainError.

All evaluation paths are pure: equal inputs give bitwise-equal outputs
regardless of how calls are batched, within one numpy build on one SIMD
target (numpy's exp, log and power round their last bits differently on
other targets; across hosts, tests/fixtures/calibration.json at rel 1e-9
is the contract). Every batch is sorted by one stable argsort and
scattered back. Each form serves traffic that needs it: a small batch
within one doubling of N(t) is one Riemann-Siegel term array (warm J
reads' 21-node panels); a small batch spread wider
is cut into one term array per column block wherever N(t) more than
doubles (a scan row's batches span t = 1e2-5e4); small batches run the
correction polynomials on one flat vector; large ones loop over n
(cold cache builds, Gram batches) and broadcast each Horner step over
the four polynomials; the Euler-Maclaurin sum always loops over n. One
rule covers every form: each element sees the same IEEE operations in
the same order, with no BLAS or pairwise reduction across elements.
Sums therefore reduce over axis 0 of an array with two or more columns
(numpy adds its rows one after another) or by accumulate, never along
a contiguous run, by `@` or by einsum. Every call runs in the calling
thread; the cold build runs its panel groups side by side
(integral._in_order), which moves no bit either.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import B2K, T_MAX, T_MIN, TWO_PI
from .errors import DomainError, InfeasibleError

# Seam between the Euler-Maclaurin and Riemann-Siegel branches. Chosen
# from the measured error curve: the four-term remainder is not reliable
# to 1e-6 below ~100, while Euler-Maclaurin stays cheap there.
RS_SEAM = 100.0

# Largest batch, in terms, that is summed as one array: t.size * N(t_max)
# for the Riemann-Siegel main sum, t.size * _RS_C.size for the correction
# polynomials. Above it a loop touches less memory; below it the per-step
# Python overhead dominates.
SMALL_BATCH_TERMS = 2 ** 15

# n, log n and n^(-1/2) for every n the Riemann-Siegel main sum reaches:
# n <= N(T_MAX) = 126, and _check_range refuses t above T_MAX.
_N = np.arange(1.0, math.floor(math.sqrt(T_MAX / TWO_PI)) + 1.0)
_LOGN = np.log(_N)
_ISQN = 1.0 / np.sqrt(_N)


def _psi_taylor() -> np.ndarray:
    """The first 44 Taylor coefficients of Psi about p = 1/2, by a Cauchy
    integral: a 4096-point FFT on the circle of radius 1.5.

    The contour radius must avoid the removable singularities at
    p = (2k+1)/4, which sit at distances {0.25, 0.75, 1.25, ...} from
    the center; 1.5 clears them and keeps the FFT well conditioned.
    """
    k = np.arange(4096)
    zs = 0.5 + 1.5 * np.exp(2j * np.pi * k / 4096)
    vals = np.cos(TWO_PI * (zs * zs - zs - 1.0 / 16.0)) / np.cos(TWO_PI * zs)
    coeff = (np.fft.fft(vals) / 4096)[:44] / 1.5 ** np.arange(44)
    return coeff.real


def _rs_correction_table() -> np.ndarray:
    """C0..C3 of the Riemann-Siegel remainder from Psi derivatives (Gabcke 1979).

    C0 and C2 are even in x = p - 1/2, C1 and C3 odd, so row k holds the
    coefficients of C_k / x^(k mod 2) in powers of x^2, zero-padded to
    one width. Psi is even, so the parity slice also drops the FFT noise
    in its odd coefficients.
    """
    psi = np.polynomial.Polynomial(_psi_taylor())
    d = psi.deriv
    pi2 = math.pi ** 2
    cs = (
        psi,
        -d(3) / (96.0 * pi2),
        d(2) / (64.0 * pi2) + d(6) / (18432.0 * pi2 ** 2),
        -(d(1) / (64.0 * pi2) + d(5) / (3840.0 * pi2 ** 2) + d(9) / (5308416.0 * pi2 ** 3)),
    )
    rows = [c.coef[k % 2::2] for k, c in enumerate(cs)]
    width = max(r.size for r in rows)
    return np.array([np.pad(r, (0, width - r.size)) for r in rows])


_RS_C = _rs_correction_table()
# Horner order, highest power first: one (4,) column per step
_RS_COLS = np.ascontiguousarray(_RS_C.T[::-1])


def _theta_series(t: np.ndarray, lt: np.ndarray | None = None) -> np.ndarray:
    """theta(t) by its asymptotic series; lt = log(t / 2pi), when the
    caller holds it already (a Newton step on theta also needs theta')."""
    if lt is None:
        lt = np.log(t / TWO_PI)
    return (
        (t / 2.0) * lt - t / 2.0 - np.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t ** 3)
        + 31.0 / (80640.0 * t ** 5)
        + 127.0 / (430080.0 * t ** 7)
    )


def _lngamma_quarter(t: np.ndarray) -> np.ndarray:
    """Im log Gamma(1/4 + i*t/2) by Stirling, shifting small arguments up."""
    z = 0.25 + 0.5j * t
    small = t < 26.0
    w = z + np.where(small, 13, 0)
    res = (w - 0.5) * np.log(w) - w
    for k in range(1, 9):
        res = res + B2K[k - 1] / ((2 * k) * (2 * k - 1) * w ** (2 * k - 1))
    im = res.imag
    if small.any():
        for j in range(13):
            im = im - np.where(small, np.angle(z + j), 0.0)
    return im


def _theta_low(t: np.ndarray) -> np.ndarray:
    return _lngamma_quarter(t) - 0.5 * t * math.log(math.pi)


def theta(t):
    """Riemann-Siegel theta. Domain finite t >= T_MIN; absolute error <= 1e-9.

    Accepts a float or an array, returns the matching shape. Strictly
    increasing on its domain (theta' = log(t/2pi)/2 > 0 for t > 2pi).
    """
    arr = np.asarray(t, dtype=float)
    if arr.size and not T_MIN <= np.min(arr) <= np.max(arr) < math.inf:
        raise DomainError(f"theta requires finite t >= {T_MIN}")
    out = _theta_series(arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _term_array_sum(t: np.ndarray, th: np.ndarray, trunc: np.ndarray) -> np.ndarray:
    """_rs_main_sum as one (N(t_max), t.size) term array, the terms past
    each element's own N(t) set to 0."""
    nmax = int(trunc[-1])
    terms = np.multiply.outer(_LOGN[:nmax], t)
    np.subtract(th, terms, out=terms)
    np.cos(terms, out=terms)
    terms *= _ISQN[:nmax, None]
    terms[_N[:nmax, None] > trunc] = 0.0
    if t.size > 1:
        return np.add.reduce(terms, axis=0)
    # one column is contiguous along axis 0, and numpy sums a
    # contiguous run pairwise; accumulate stays sequential
    return np.add.accumulate(terms[:, 0])[-1:]


def _rs_main_sum(t: np.ndarray, th: np.ndarray, trunc: np.ndarray) -> np.ndarray:
    """Sum over n <= N(t) of n^(-1/2) cos(theta(t) - t ln n), t ascending.

    A small batch is cut into column blocks wherever N(t) more than
    doubles, each summed as its own term array (_term_array_sum), so a
    batch spread over many t-bands computes few of the terms it masks;
    each column keeps its own terms in order, followed by zeros, so the
    cut moves no bit. A large batch loops over n.
    """
    nmax = int(trunc[-1])
    if t.size * nmax <= SMALL_BATCH_TERMS:
        if nmax <= 2 * trunc[0]:
            return _term_array_sum(t, th, trunc)
        cuts = [0]
        while cuts[-1] < t.size:
            cuts.append(int(np.searchsorted(trunc, 2 * trunc[cuts[-1]], side="right")))
        return np.concatenate([_term_array_sum(t[i:j], th[i:j], trunc[i:j])
                               for i, j in zip(cuts, cuts[1:])])
    # first index whose truncation length reaches n (trunc is ascending)
    starts = np.searchsorted(trunc, _N[:nmax], side="left").tolist()
    main = np.zeros_like(t)
    buf = np.empty_like(t)
    for i, logn, isqn in zip(starts, _LOGN[:nmax].tolist(), _ISQN[:nmax].tolist()):
        term = buf[i:]
        np.multiply(t[i:], logn, out=term)
        np.subtract(th[i:], term, out=term)
        np.cos(term, out=term)
        term *= isqn
        main[i:] += term
    return main


def _rs_correction(x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """C0..C3 at x = p - 1/2 as a (4, x.size) array, by elementwise Horner.

    Not a BLAS product, which would break batch invariance. Small batches
    run the 22 steps on one (4 * x.size,) vector, large ones on a
    (4, x.size) array in place, each step broadcasting one column of
    _RS_COLS over the rows.
    """
    k = x.size
    if _RS_C.size * k <= SMALL_BATCH_TERMS:
        cols = np.repeat(_RS_COLS, k, axis=1)
        x2s = np.concatenate((x2, x2, x2, x2))
        c = np.zeros(4 * k)
        for col in cols:
            c *= x2s
            c += col
        c = c.reshape(4, k)
    else:
        c = np.zeros((4, k))
        for col in _RS_COLS[:, :, None]:
            c *= x2
            c += col
    c[1::2] *= x
    return c


def _z_riemann_siegel(t: np.ndarray) -> np.ndarray:
    """RS branch. Input ascending, all >= RS_SEAM."""
    # In-place steps keep the live arrays few on a grouped cache build's
    # 16k-node batches; each element sees the same operations in order.
    root = np.sqrt(t / TWO_PI)
    trunc = np.floor(root)
    main = _rs_main_sum(t, _theta_series(t), trunc)
    main *= 2.0
    x = root - trunc
    x -= 0.5
    c = _rs_correction(x, x * x)
    v = np.divide(1.0, root, out=x)  # x is spent
    rem = c[3] * v
    rem += c[2]
    rem *= v
    rem += c[1]
    rem *= v
    rem += c[0]
    rem *= np.where(trunc % 2 == 0, -1.0, 1.0)  # (-1)^(N-1)
    rem *= root ** -0.5
    main += rem
    return main


def _zeta_euler_maclaurin(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + i*t) for ascending t below the seam, with the B_2..B_24
    terms of the Euler-Maclaurin tail."""
    s = 0.5 + 1j * t
    nterms = np.maximum(24, (1.3 * t).astype(np.int64) + 8)
    nmax = int(nterms[-1])
    logn = np.log(np.arange(1, nmax + 1, dtype=float))
    isqn = 1.0 / np.sqrt(np.arange(1, nmax + 1, dtype=float))
    starts = np.searchsorted(nterms, np.arange(1, nmax + 1), side="right")
    # partial sum over n < N(t): element i takes n = 1 .. nterms[i]-1
    total = np.zeros_like(s)
    for n in range(1, nmax):
        i = starts[n - 1]  # first element with nterms > n, i.e. n <= N-1
        phase = t[i:] * logn[n - 1]
        total[i:] += isqn[n - 1] * (np.cos(phase) - 1j * np.sin(phase))
    nf = nterms.astype(float)
    lnN = np.log(nf)
    n_minus_s = np.exp(-s * lnN)
    total += 0.5 * n_minus_s
    total += n_minus_s * nf / (s - 1.0)
    rising = s.copy()  # (s)_{2k-1}, rebuilt incrementally
    for k in range(1, 13):
        if k > 1:
            rising = rising * (s + (2 * k - 3)) * (s + (2 * k - 2))
        total += B2K[k - 1] / math.factorial(2 * k) * rising * n_minus_s * nf ** (1 - 2 * k)
    return total


def _z_low(t: np.ndarray) -> np.ndarray:
    zeta = _zeta_euler_maclaurin(t)
    rot = np.exp(1j * _theta_low(t))
    return (rot * zeta).real


def _check_range(lo: float, hi: float) -> None:
    """Refuse a span or batch of ordinates by its smallest and largest:
    t < 0 with DomainError, and t above T_MAX, which the error model does
    not cover, or NaN (which sorts last, and makes min and max NaN) with
    InfeasibleError. The one T_MAX gate: Z, J reads, quadrature, cache
    extension and Gram spans all refuse their range here, before any
    work."""
    if lo < 0.0 and not math.isnan(hi):
        raise DomainError("Z is served for t >= 0")
    if not hi <= T_MAX:
        raise InfeasibleError(f"t={float(hi)!r} exceeds the served range t <= T_MAX={T_MAX:g}")


def z_array(t) -> np.ndarray:
    """Z(t) for an array of ordinates 0 <= t <= T_MAX, flattened, in its
    order: one stable argsort, the branches on the sorted batch, and a
    scatter back. Z is elementwise, so the order of a batch moves no bit."""
    ts = np.asarray(t, dtype=float).ravel()
    if ts.size == 0:
        return ts.copy()
    order = np.argsort(ts, kind="stable")
    sorted_t = ts[order]
    _check_range(sorted_t[0], sorted_t[-1])
    out_sorted = np.empty_like(sorted_t)
    nlow = int(np.searchsorted(sorted_t, RS_SEAM, side="left"))
    if nlow:
        out_sorted[:nlow] = _z_low(sorted_t[:nlow])
    if nlow < sorted_t.size:
        out_sorted[nlow:] = _z_riemann_siegel(sorted_t[nlow:])
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


# z_error_bound's steps: _Z_BOUNDS[i] holds from _Z_BOUND_EDGES[i - 1] on
_Z_BOUND_EDGES = np.array([RS_SEAM, 1e3, 1e4])
_Z_BOUNDS = np.array([5e-13, 1e-6, 5e-8, 1e-8])


def z_error_bound(t) -> np.ndarray:
    """Documented absolute error bound for Z at ordinate t, in t's shape.

    Step function over the measured error curve, deliberately
    conservative; quadrature folds it into its error estimates. Raises
    DomainError for t < 0 and InfeasibleError above T_MAX, where Z is
    not served.
    """
    arr = np.asarray(t, dtype=float)
    if arr.size:
        _check_range(arr.min(), arr.max())
    step = np.searchsorted(_Z_BOUND_EDGES, arr.ravel(), side="right")
    return _Z_BOUNDS[step].reshape(arr.shape)

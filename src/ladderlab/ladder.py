"""Reparametrization ladder over the second moment.

The almost-exact representation r(phi) = phi ln phi + (c - ln 2pi) phi
matches J at a unique descended ordinate phi < T; inverting J against
r(T) climbs one rung up. Both directions are bracketed root solves on
strictly increasing maps, so every rung carries a certified residual.

Descending is cheap (closed form vs one J evaluation); ascending costs
one J read per solver iteration, which the checkpoint cache serves as a
stored knot plus a tail of at most KNOT_PANELS panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EULER_GAMMA, T_FLOOR
from .errors import BracketError, DomainError, ToleranceError
from .integral import CheckpointCache, hl_integral, hl_representation, integrate_segment

DEFAULT_RESIDUAL_TOL = 1e-6


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float,
           maxiter: int = 120) -> tuple[float, float]:
    """Brent's method on a bracketing pair; returns (root, f(root))."""
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * 2.22e-16 * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise ToleranceError(f"root not bracketed to xtol={xtol:g} in {maxiter} iterations",
                         best_value=b, best_error=abs(fb))


@dataclass(frozen=True)
class LadderTower:
    """Ascending iterates [T = T0 < T1 < ... < Tk] with solve residuals."""

    base: float
    iterates: list[float]
    residuals: list[float]
    k: int


def _require_floor(T: float) -> None:
    if T < T_FLOOR:
        raise DomainError(f"ladder requires T >= {T_FLOOR}; the dropped "
                          "representation terms are not small below that")


def descend(T: float, cache: CheckpointCache | None = None) -> float:
    """The unique phi < T with representation(phi) = J(T).

    DEFAULT_RESIDUAL_TOL bounds the residual of the defining equation,
    not the abscissa.
    """
    _require_floor(T)
    target = hl_integral(T, cache=cache).value
    f = lambda phi: hl_representation(phi) - target
    lo = max(2.0, T * (1.0 - 3.0 * (1.0 - EULER_GAMMA) / math.log(T)))
    hi = T
    flo, fhi = f(lo), f(hi)
    for _ in range(60):
        if flo <= 0.0:
            break
        lo = max(2.0, 0.5 * lo)
        flo = f(lo)
    else:
        raise BracketError(f"descend bracket failed at T={T}")
    if fhi < 0.0:
        raise BracketError(f"representation(T) < J(T) at T={T}; inconsistent engine state")
    # residual slope is ln(phi)+1+c-ln(2pi), bounded below by ~ln(lo)
    xtol = DEFAULT_RESIDUAL_TOL / max(1.0, math.log(lo))
    phi, fphi = _brent(f, lo, hi, flo, fhi, xtol=xtol)
    resid = abs(fphi)
    if resid > DEFAULT_RESIDUAL_TOL:
        raise ToleranceError(f"descend residual {resid:g} > {DEFAULT_RESIDUAL_TOL:g} at T={T}",
                             best_value=phi, best_error=resid)
    return phi


def _ascend(T: float, cache: CheckpointCache | None,
            tol: float) -> tuple[float, float]:
    """ascend() with its residual: (U, J(U) - representation(T))."""
    _require_floor(T)
    target = hl_representation(T)
    cache = cache if cache is not None else CheckpointCache()
    jfun = lambda U: hl_integral(U, cache=cache).value - target
    gap = 2.0 * (1.0 - EULER_GAMMA) * T / math.log(T)
    hi = T + gap
    for _ in range(40):
        fhi = jfun(hi)
        if fhi >= 0.0:
            break
        hi = T + (hi - T) * 2.0
    else:
        raise BracketError(f"ascend bracket failed at T={T}")
    flo = jfun(T)
    if flo > 0.0:
        raise BracketError(f"J(T) > representation(T) at T={T}; inconsistent engine state")
    # J' = Z^2 averages ln(T/2pi) + 2c but has zeros; xtol from the mean slope
    xtol = tol / (math.log(T / (2.0 * math.pi)) + 2.0 * EULER_GAMMA)
    U, fU = _brent(jfun, T, hi, flo, fhi, xtol=xtol)
    resid = abs(fU)
    if resid > 10.0 * tol:
        raise ToleranceError(f"ascend residual {resid:g} > {10*tol:g} at T={T}",
                             best_value=U, best_error=resid)
    return U, fU


def ascend(T: float, cache: CheckpointCache | None = None) -> float:
    """The unique U > T with J(U) = representation(T); one rung up.

    Bracket starts at the expected gap 2(1-c)T/ln T and widens
    geometrically; J is read from the cache's nearest checkpoint or knot
    plus a short tail, so each solver iteration stays cheap. The residual
    is held to 10 * DEFAULT_RESIDUAL_TOL.
    """
    return _ascend(T, cache, DEFAULT_RESIDUAL_TOL)[0]


def build_tower(T: float, k: int, cache: CheckpointCache | None = None,
                tol: float = DEFAULT_RESIDUAL_TOL) -> LadderTower:
    """k ascents from T, each solved as ascend() but to residual tol. k >= 1."""
    if k < 1:
        raise DomainError("build_tower requires k >= 1")
    _require_floor(T)
    cache = cache if cache is not None else CheckpointCache()
    iterates = [float(T)]
    residuals = []
    for r in range(1, k + 1):
        try:
            nxt, f_nxt = _ascend(iterates[-1], cache, tol)
        except ToleranceError as exc:
            raise ToleranceError(f"rung {r}: {exc}", exc.best_value, exc.best_error) from exc
        except BracketError as exc:
            raise BracketError(f"rung {r}: {exc}") from exc
        iterates.append(nxt)
        residuals.append(abs(f_nxt))
        if nxt <= iterates[-2]:
            raise BracketError(f"rung {r} did not increase: {iterates[-2]} -> {nxt}")
    return LadderTower(base=float(T), iterates=iterates, residuals=residuals, k=k)


def lngamma_increment_pair(T: float, r: int,
                           cache: CheckpointCache | None = None) -> tuple[float, float]:
    """(ln Gamma(T^r) - ln Gamma(T^(r-1)), integral of Z^2 over that rung).

    The two sides of the asymptotic fundamental-theorem relation for
    the rung (T^(r-1), T^r]; the caller compares them.
    """
    from .gammalab import ln_gamma

    if r < 1:
        raise DomainError("rung index r must be >= 1")
    tower = build_tower(T, r, cache=cache)
    lo, hi = tower.iterates[r - 1], tower.iterates[r]
    lhs = ln_gamma(hi) - ln_gamma(lo)
    rhs = integrate_segment(lo, hi).value
    return lhs, rhs

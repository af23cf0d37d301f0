"""Reparametrization ladder over the second moment.

The almost-exact representation r(phi) = phi ln phi + (c - ln 2pi) phi
matches J at a unique descended ordinate phi < T; inverting J against
r(T) climbs one rung up. Each direction is defined by its root, which
does not depend on any tolerance, and every rung carries the residual of
its defining equation, certified against a tolerance.

Descending reads J(T) once and solves the convex closed form by Newton.
Ascending reads the root off the checkpoint cache's stored prefix of J
(CheckpointCache.invert: one Z call on a warm cache) and certifies it
with one J(U) read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EULER_GAMMA, LN_TWO_PI, T_FLOOR
from .errors import BracketError, DomainError, ToleranceError
from .integral import CheckpointCache, hl_integral, hl_representation, safeguarded_newton

DEFAULT_RESIDUAL_TOL = 1e-6
# d/dphi representation(phi) = ln(phi) + _REP_SLOPE
_REP_SLOPE = 1.0 + EULER_GAMMA - LN_TWO_PI


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

    One J(T) read, then Newton on the convex, increasing closed form,
    safeguarded by bisection on [2, T] (representation(2) < 0 < J(T)).
    phi is the root itself; DEFAULT_RESIDUAL_TOL only certifies the
    residual of the defining equation.
    """
    _require_floor(T)
    target = hl_integral(T, cache=cache).value
    f = lambda phi: hl_representation(phi) - target
    if f(T) < 0.0:
        raise BracketError(f"representation(T) < J(T) at T={T}; inconsistent engine state")
    phi = safeguarded_newton(f, lambda phi: math.log(phi) + _REP_SLOPE, 2.0, T, T)
    resid = abs(f(phi))
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
    U = cache.invert(target)
    if U <= T:
        raise BracketError(f"J(T) > representation(T) at T={T}; inconsistent engine state")
    fU = hl_integral(U, cache=cache).value - target
    resid = abs(fU)
    if resid > 10.0 * tol:
        raise ToleranceError(f"ascend residual {resid:g} > {10*tol:g} at T={T}",
                             best_value=U, best_error=resid)
    return U, fU


def ascend(T: float, cache: CheckpointCache | None = None) -> float:
    """The unique U > T with J(U) = representation(T); one rung up.

    U is the root read off the cache's stored prefix of J
    (CheckpointCache.invert), with no J(T) read; one J(U) read certifies
    its residual to 10 * DEFAULT_RESIDUAL_TOL, which does not move U.
    """
    return _ascend(T, cache, DEFAULT_RESIDUAL_TOL)[0]


def build_tower(T: float, k: int, cache: CheckpointCache | None = None,
                tol: float = DEFAULT_RESIDUAL_TOL) -> LadderTower:
    """k ascents from T, each as ascend(), with residuals certified to 10 * tol.

    tol bounds only the residuals; the iterates are the roots and do not
    depend on it. k >= 1.
    """
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

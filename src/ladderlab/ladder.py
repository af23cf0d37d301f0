"""Reparametrization ladder over the second moment.

The almost-exact representation r(phi) = phi ln phi + (c - ln 2pi) phi
matches J at a unique descended ordinate phi < T; inverting J against
r(T) climbs one rung up. Each direction is defined by its root, which
does not depend on any tolerance, and every rung carries the residual of
its defining equation, certified against one fixed bound:
DEFAULT_RESIDUAL_TOL for a descent, 10 * DEFAULT_RESIDUAL_TOL for an ascent.

Descending reads J(T) once and solves the convex closed form by Newton.
Ascending reads the root off the checkpoint cache's stored prefix of J,
solving inside the one panel above the root's knot on the integral of
p^2, p the degree-20 interpolant of that panel's 21 Z values, and
certifies it with the J(U) read off the same model, which is
hl_integral(U) (CheckpointCache.invert). ascend_all is the one ascent
path: it climbs from any number of ordinates at once, in one Z call on
a warm cache, of one 21-node panel per ordinate; ascend and build_tower
call it for one ordinate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EULER_GAMMA, LN_TWO_PI, T_FLOOR
from .errors import (BracketError, DomainError, LadderLabError, ToleranceError, attempt,
                     require_int, unwrap)
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
    """The one T_FLOOR gate, of every ladder solve and gammalab tau report."""
    if not T_FLOOR <= T < math.inf:
        raise DomainError(f"ladder requires finite T >= {T_FLOOR}, got T={T}; the dropped "
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
    phi = safeguarded_newton(lambda phi: (f(phi), math.log(phi) + _REP_SLOPE), 2.0, T, T)
    resid = abs(f(phi))
    if resid > DEFAULT_RESIDUAL_TOL:
        raise ToleranceError(f"descend residual {resid:g} > {DEFAULT_RESIDUAL_TOL:g} at T={T}",
                             best_value=phi, best_error=resid)
    return phi


def _target(T: float) -> float:
    _require_floor(T)
    return hl_representation(T)


def ascend_all(Ts, cache: CheckpointCache | None = None
               ) -> list[tuple[float, float] | LadderLabError]:
    """(U, J(U) - representation(T)) for each T, one rung up, or the
    LadderLabError its ascent met.

    U is the unique U > T with J(U) = representation(T), read off the
    cache's stored prefix of J (CheckpointCache.invert) with no J(T)
    read; the J(U) that invert reads off the model U was solved on, and
    which is hl_integral(U), certifies the residual to
    10 * DEFAULT_RESIDUAL_TOL, which does not move U. All Ts are inverted
    together: a warm cache makes one Z call of 21 nodes per T for up to
    780 of them (2^14 nodes), in the calling thread with no quadrature,
    and each slot has the bits of a one-T call. This is the one ascent
    path: ascend and build_tower are ascend_all for one T.
    """
    cache = cache if cache is not None else CheckpointCache()
    tol = 10.0 * DEFAULT_RESIDUAL_TOL
    out = [attempt(_target, T) for T in Ts]
    todo = [k for k, x in enumerate(out) if not isinstance(x, LadderLabError)]
    for k, res in zip(todo, cache.invert([out[k] for k in todo])):
        T = Ts[k]
        if not isinstance(res, LadderLabError):
            U, fU = res[0], res[1] - out[k]
            if U <= T:
                res = BracketError(f"J(T) > representation(T) at T={T}; inconsistent engine state")
            elif abs(fU) > tol:
                res = ToleranceError(f"ascend residual {abs(fU):g} > {tol:g} at T={T}",
                                     best_value=U, best_error=abs(fU))
            else:
                res = (U, fU)
        out[k] = res
    return out


def ascend(T: float, cache: CheckpointCache | None = None) -> float:
    """The unique U > T with J(U) = representation(T); one rung up.

    ascend_all for one T: U is the root read off the cache's stored
    prefix of J, and its residual is certified to 10 * DEFAULT_RESIDUAL_TOL.
    """
    return unwrap(ascend_all([T], cache)[0])[0]


def build_tower(T: float, k: int, cache: CheckpointCache | None = None) -> LadderTower:
    """k ascents from T, each as ascend(), with residuals certified to
    10 * DEFAULT_RESIDUAL_TOL. The bound certifies only the residuals;
    the iterates are the roots and do not depend on it. k >= 1.
    """
    k = require_int(k, 1, "build_tower k")
    cache = cache if cache is not None else CheckpointCache()
    iterates = [float(T)]
    residuals = []
    for r in range(1, k + 1):
        try:
            nxt, f_nxt = unwrap(ascend_all([iterates[-1]], cache)[0])
        except ToleranceError as exc:
            raise ToleranceError(f"rung {r}: {exc}", exc.best_value, exc.best_error) from exc
        except BracketError as exc:
            raise BracketError(f"rung {r}: {exc}") from exc
        iterates.append(nxt)
        residuals.append(abs(f_nxt))
    return LadderTower(base=float(T), iterates=iterates, residuals=residuals, k=k)

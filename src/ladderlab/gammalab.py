"""Gamma-function laboratory.

ln Gamma (the stdlib's math.lgamma behind a domain check), its increment
and the divisor-sum increment over a rung, the ladder Gamma-functional,
and the empirical factorization checks that tie ln Gamma increments over
a rung (tau, tau^1] to divisor sums and Gram-point zeta sums.

Everything runs in log space: a rung at tau = 1e4 is ~500 wide, so the
Gamma ratios themselves overflow float64 astronomically.

Convergence here is O(1/ln tau) slow. Reports therefore carry a whole
tau grid and a target, never a single pass/fail verdict; calibrated
bands live in the test fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import dirichlet_D
from .constants import EULER_GAMMA
from .errors import DomainError, LadderLabError, require_int, unwrap
from .gram import DEFAULT_STRATEGY, gram_index_range, t1_increment_all, t2_increment_all
from .integral import CheckpointCache
from .ladder import DEFAULT_RESIDUAL_TOL, _require_floor, ascend_all, build_tower
from .serialize import field_dict, to_json

C0_CONVENTION = 0.0  # integration constant of the representation, fixed at zero


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0, by math.lgamma.

    Within 1e-15 of mpmath on [0.5, 9e4], relative (absolute where
    |ln Gamma| < 1); inf above x ~ 2.56e305, where ln Gamma(x) passes the
    largest float64.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def ln_gamma_increment_all(rungs) -> list[float]:
    """ln Gamma(hi) - ln Gamma(lo) for each rung (lo, hi]."""
    return [ln_gamma(hi) - ln_gamma(lo) for lo, hi in rungs]


def d_increment_all(rungs) -> list[int]:
    """sum_{lo <= n <= hi} d(n) = D(hi) - D(ceil(lo) - 1) for each rung
    (lo, hi]: the lower end is closed, so an integer lo counts d(lo)."""
    return [dirichlet_D(hi) - dirichlet_D(math.ceil(lo) - 1) for lo, hi in rungs]


def _check_tau_grid(tau_grid) -> None:
    """Refuse (DomainError) a tau grid that is not finite and strictly ascending."""
    if not (all(math.isfinite(t) for t in tau_grid)
            and all(a < b for a, b in zip(tau_grid, tau_grid[1:]))):
        raise DomainError(f"tau_grid must be finite and strictly ascending, got {list(tau_grid)}")


class _FieldReport:
    """to_json for a report whose JSON is its fields, in declaration order."""

    def to_json(self) -> str:
        return to_json(field_dict(self))


@dataclass(frozen=True)
class FunctionalReport(_FieldReport):
    """A functional evaluated along a finite, strictly ascending tau grid
    (_check_tau_grid), with target."""

    functional: str
    parameter: float
    target: float
    tau_grid: list[float]
    values: list[float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.tau_grid) != len(self.values):
            raise DomainError("tau_grid and values must have equal length")
        _check_tau_grid(self.tau_grid)
        bad = [v for v in list(self.values) + [self.target] if not math.isfinite(v)]
        if bad:
            raise DomainError(f"non-finite report values: {bad}")

    def abs_errors(self) -> list[float]:
        return [abs(v - self.target) for v in self.values]


def _base_metadata(**extra) -> dict:
    return {"c0_convention": C0_CONVENTION, "residual_tol": DEFAULT_RESIDUAL_TOL, **extra}


def gamma_functional(x: float, tau_grid: list[float],
                     cache: CheckpointCache | None = None) -> FunctionalReport:
    """(1/tau) * [ln Gamma(ascend(T)) - ln Gamma(T)] at T = x*tau/(1-c).

    The limit along tau is x itself. Grid points whose ascent ascend_all
    refuses (a T below the ladder floor or not finite) or fails are
    dropped and their errors recorded in the metadata; finite tau out of
    order are refused (_check_tau_grid) before any ascent.
    """
    if not 0.0 < x < math.inf:
        raise DomainError("gamma_functional requires finite x > 0")
    _check_tau_grid([tau for tau in tau_grid if math.isfinite(tau)])
    Ts = [x * tau / (1.0 - EULER_GAMMA) for tau in tau_grid]
    taus, values = [], []
    skipped: dict[str, str] = {}
    for tau, T, res in zip(tau_grid, Ts, ascend_all(Ts, cache)):
        if isinstance(res, LadderLabError):
            skipped[f"{tau:.17g}"] = str(res)
            continue
        taus.append(float(tau))
        values.append((ln_gamma(res[0]) - ln_gamma(T)) / tau)
    return FunctionalReport(
        functional="gamma", parameter=x, target=x,
        tau_grid=taus, values=values,
        metadata=_base_metadata(skipped=skipped),
    )


def _factorization(fid: str, parameter: float, tau_grid: list[float],
                   cache: CheckpointCache | None, increment_all, const: float,
                   metadata: dict) -> FunctionalReport:
    """increment / (const * [ln Gamma(ascend(lo)) - ln Gamma(lo)]) along
    tau_grid, target 1, the increments of all rungs (lo, ascend(lo)) from
    one increment_all call; the grid is checked before any ascent
    (_check_tau_grid), and the first error in tau order is raised."""
    _check_tau_grid(tau_grid)
    taus, values = [float(tau) for tau in tau_grid], []
    ups = ascend_all(taus, cache)
    rungs = [(lo, res[0]) for lo, res in zip(taus, ups) if not isinstance(res, LadderLabError)]
    sums, rises = iter(increment_all(rungs)), iter(ln_gamma_increment_all(rungs))
    for res in ups:
        unwrap(res)
        values.append(unwrap(next(sums)) / (const * next(rises)))
    return FunctionalReport(
        functional=fid, parameter=parameter, target=1.0,
        tau_grid=taus, values=values, metadata=metadata,
    )


def verify_factorization_D(tau_grid: list[float],
                           cache: CheckpointCache | None = None) -> FunctionalReport:
    """Divisor-sum factorization: sum d(n) over [tau, tau^1] vs ln Gamma.

    value = sum_{tau <= n <= tau^1} d(n) / (ln Gamma(tau^1) - ln Gamma(tau)),
    target 1. The lower end is closed (d_increment_all), as in the scan's
    d-linear and d-log rows.
    """
    return _factorization("d", 0.0, tau_grid, cache, d_increment_all, 1.0, _base_metadata())


def verify_factorization_T1(tau_grid: list[float],
                            cache: CheckpointCache | None = None) -> FunctionalReport:
    """Gram one-point sum over (tau, tau^1] vs (1/pi) ln Gamma increment."""
    const = 1.0 / math.pi
    return _factorization("t1", const, tau_grid, cache, t1_increment_all, const,
                          _base_metadata(strategy=DEFAULT_STRATEGY, constant=const))


def verify_factorization_T2(tau_grid: list[float],
                            cache: CheckpointCache | None = None) -> FunctionalReport:
    """Gram pair sum over (tau, tau^1] vs ((1+c)/pi) ln Gamma increment."""
    const = (1.0 + EULER_GAMMA) / math.pi
    return _factorization("t2", const, tau_grid, cache, t2_increment_all, const,
                          _base_metadata(strategy=DEFAULT_STRATEGY, constant=const))


@dataclass(frozen=True)
class ChainReport(_FieldReport):
    """Telescoped rung-by-rung Gram sums against one long ln Gamma span."""

    tau: float
    k: int
    strategy: str
    iterates: list[float]
    rung_ratios: list[float]
    total_ratio: float
    additivity_defect: float
    metadata: dict = field(default_factory=dict)


def verify_chain(tau: float, k: int, cache: CheckpointCache | None = None) -> ChainReport:
    """pi * Gram sums along a k-rung tower vs ln Gamma differences.

    rung_ratios[r] compares rung r+1 alone; total_ratio compares the
    whole (tau, tau^k] range. The rung sums partition the total exactly,
    so additivity_defect is pure floating-point fold noise. The rung sums
    and the total come from one t1_increment_all call.
    """
    k = require_int(k, 1, "verify_chain k")
    tower = build_tower(tau, k, cache=cache)
    it = tower.iterates
    rungs = [*zip(it, it[1:]), (it[0], it[k])]
    *rung_sums, total_sum = map(unwrap, t1_increment_all(rungs))
    *rises, total_rise = ln_gamma_increment_all(rungs)
    rung_ratios = [math.pi * s / g for s, g in zip(rung_sums, rises)]
    total_ratio = math.pi * total_sum / total_rise
    defect = abs(math.fsum(rung_sums) - total_sum)
    return ChainReport(
        tau=float(tau), k=k, strategy=DEFAULT_STRATEGY, iterates=list(it),
        rung_ratios=rung_ratios, total_ratio=total_ratio,
        additivity_defect=defect,
        metadata=_base_metadata(),
    )


def pi_via_gamma(tau: float, k: int, cache: CheckpointCache | None = None) -> float:
    """(tau^k - tau) / ((1-c) k), the prime-counting surrogate.

    The defining Gamma-ratio difference collapses exactly through
    Gamma(t+1)/Gamma(t) = t, so no ln_gamma evaluation is needed; the
    ladder tower is the whole computation. Compare against prime_pi.
    """
    k = require_int(k, 1, "pi_via_gamma k")
    tower = build_tower(tau, k, cache=cache)
    return (tower.iterates[k] - tau) / ((1.0 - EULER_GAMMA) * k)


@dataclass(frozen=True)
class ShiftedReport(_FieldReport):
    """Shifted-rung ratio: Gamma at the ascents of tau+1 vs tau."""

    tau: float
    lhs_log: float
    rhs_log: float
    log_difference: float
    count_in_unit: int
    count_target: float
    strategy: str
    metadata: dict = field(default_factory=dict)


def verify_shifted_ratio(tau: float, cache: CheckpointCache | None = None) -> ShiftedReport:
    """Compare Gamma(ascend(tau+1))/Gamma(ascend(tau)) in log space
    against tau * exp(pi * [shifted Gram sum difference]).

    Also counts Gram points in (tau, tau+1], whose expected number is
    ln tau / 2pi, from their index range (gram_index_range) alone. Both
    Gram sums come from one t1_increment_all call.
    """
    _require_floor(tau)
    u_hi, u_lo = (unwrap(res)[0] for res in ascend_all([tau + 1.0, tau], cache))
    lhs_log = ln_gamma(u_hi) - ln_gamma(u_lo)
    s_hi, s_lo = map(unwrap, t1_increment_all([(tau + 1.0, u_hi), (tau, u_lo)]))
    rhs_log = math.log(tau) + math.pi * (s_hi - s_lo)
    nu_lo, nu_hi = gram_index_range(tau, tau + 1.0)
    count = nu_hi - nu_lo + 1
    return ShiftedReport(
        tau=float(tau), lhs_log=lhs_log, rhs_log=rhs_log,
        log_difference=lhs_log - rhs_log,
        count_in_unit=count,
        count_target=math.log(tau) / (2.0 * math.pi),
        strategy=DEFAULT_STRATEGY,
        metadata=_base_metadata(),
    )


@dataclass(frozen=True)
class LegendreReport(_FieldReport):
    """Duplication-formula factorization over three parallel ascents."""

    tau: float
    log_lhs: float
    log_rhs: float
    log_difference: float
    strategy: str
    metadata: dict = field(default_factory=dict)


def verify_legendre_factorization(tau: float,
                                  cache: CheckpointCache | None = None) -> LegendreReport:
    """Duplication formula pushed through the ladder, in log space.

    lhs: ln Gamma at the three ascents of 2 tau, tau, tau + 1/2 combined
    by the duplication identity with exponent 2^(2 tau - 1). rhs: the
    matching combination of pi-weighted Gram sums. Statements of this
    identity circulate with exponent 2^(2 tau + 1), which is inconsistent
    with the duplication formula itself; we use the consistent
    2^(2 tau - 1) and flag the convention in the metadata. The three
    Gram sums come from one t1_increment_all call.
    """
    _require_floor(tau)
    u2, u1, uh = (unwrap(res)[0] for res in ascend_all([2.0 * tau, tau, tau + 0.5], cache))
    log_lhs = (
        ln_gamma(u2)
        - ((2.0 * tau - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
           + ln_gamma(u1) + ln_gamma(uh))
    )
    s2, s1, sh = map(unwrap, t1_increment_all([(2.0 * tau, u2), (tau, u1), (tau + 0.5, uh)]))
    log_rhs = math.pi * (s2 - s1 - sh)
    return LegendreReport(
        tau=float(tau), log_lhs=log_lhs, log_rhs=log_rhs,
        log_difference=log_lhs - log_rhs, strategy=DEFAULT_STRATEGY,
        metadata=_base_metadata(
            exponent_convention="2**(2*tau-1)",
            exponent_variant_seen="2**(2*tau+1)",
        ),
    )

"""Evidence tables for the forbidden-value functionals on Fermat rationals.

Each functional sends q = (x^n + y^n)/z^n through a ladder rung and has
a known limit (q, q/pi, (1+c) q/pi, or e^q); the limit can equal the
functional's forbidden value (1, 1/pi, (1+c)/pi, e) only if q = 1, i.e.
only on a counterexample to the Fermat-Wiles theorem. The scanner
evaluates rows along the largest feasible tau grid, extrapolates a
convergence-aware error bar, and reports whether the distance from the
forbidden value resolves at desk scale. It never claims proof; it
produces tables.

Feasibility is engine-bound: rung ordinates T must sit in
[T_FLOOR, scan_t_cap], far below the 1e7 the exp-scale forms would
want, so many rows are honestly flagged infeasible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .constants import EULER_GAMMA, T_FLOOR, T_MAX
from .errors import DomainError, InfeasibleError, LadderLabError, attempt, require_int, unwrap
from .gammalab import C0_CONVENTION, _check_tau_grid, d_increment_all, ln_gamma_increment_all
from .gram import DEFAULT_STRATEGY, t1_increment_all, t2_increment_all
from .integral import CheckpointCache, hl_integral_all, hl_representation
from .ladder import ascend_all
from .serialize import field_dict, to_json

DEFAULT_TAU_GRID = (1e2, 3e2, 1e3, 3e3, 1e4)
DEFAULT_T_CAP = 5e4
_EXP_Q_CAP = 500.0  # beyond this, e^q and exp(value) overflow float64
_SCALE = 1.0 - EULER_GAMMA
_STATUS_RESOLVED = "resolved"
_STATUS_UNRESOLVED = "unresolved at desk scale"
_STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FermatRational:
    """(x^n + y^n)/z^n with exact integer internals: x, y, z >= 1 and
    n >= 3, integral floats stored as ints (require_int)."""

    x: int
    y: int
    z: int
    n: int

    def __post_init__(self) -> None:
        for name, least in (("x", 1), ("y", 1), ("z", 1), ("n", 3)):
            object.__setattr__(self, name, require_int(getattr(self, name), least, name))

    @property
    def numerator(self) -> int:
        return self.x ** self.n + self.y ** self.n

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.z ** self.n)

    @property
    def value(self) -> float:
        """q as the nearest float: int true division rounds correctly, as
        float(self.fraction) does, with no Fraction built."""
        try:
            return self.numerator / self.z ** self.n
        except OverflowError as exc:
            raise InfeasibleError(f"({self.x},{self.y},{self.z})^{self.n} "
                                  "does not fit a float") from exc


def _check_window(window) -> None:
    """Refuse (DomainError) a window that is not two finite numbers lo < hi."""
    try:
        lo, hi = window
        ok = math.isfinite(lo) and math.isfinite(hi) and lo < hi
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"window must be two finite numbers lo < hi, got {window!r}")


def enumerate_fermat_rationals(n: int, max_xyz: int,
                               window: tuple[float, float] | None = None) -> list[FermatRational]:
    """Distinct Fermat rationals with x, y, z <= max_xyz, by |q - 1|.

    Deduplicated on exact value keeping the first witness triple, which
    is the lexicographically smallest: the loops visit (x, y, z) in that
    order. The optional open window (lo, hi) filters on the value; it must
    be two finite numbers lo < hi (_check_window). Every triple is
    exact-checked against x^n + y^n = z^n first (exhaustive_exact_check).
    """
    n, max_xyz = require_int(n, 3, "exponent n"), require_int(max_xyz, 1, "max_xyz")
    if window is not None:
        _check_window(window)
    exhaustive_exact_check((n,), max_xyz)
    seen: dict[Fraction, FermatRational] = {}
    for x in range(1, max_xyz + 1):
        for y in range(x, max_xyz + 1):  # symmetric in x, y
            num = x ** n + y ** n
            for z in range(1, max_xyz + 1):
                frac = Fraction(num, z ** n)
                if frac not in seen and (window is None or window[0] < frac < window[1]):
                    seen[frac] = FermatRational(x=x, y=y, z=z, n=n)
    out = list(seen.values())
    out.sort(key=lambda r: (abs(r.fraction - 1), r.x, r.y, r.z))
    return out


def exhaustive_exact_check(n_values, max_xyz: int) -> int:
    """Exact x^n + y^n = z^n sweep over x <= y, z <= max_xyz.

    Pure integer arithmetic; returns the number of triples checked.
    A hit raises AssertionError and stops the build.
    """
    max_xyz = require_int(max_xyz, 1, "max_xyz")
    checked = 0
    for n in n_values:
        n = require_int(n, 3, "exponent n")
        powers = [k ** n for k in range(max_xyz + 1)]
        power_set = set(powers)
        for x in range(1, max_xyz + 1):
            for y in range(x, max_xyz + 1):
                s = powers[x] + powers[y]
                assert s not in power_set, (
                    f"exact power identity at x={x} y={y} n={n}")
                checked += max_xyz
    return checked


@dataclass(frozen=True)
class ScanRow:
    functional: str
    x: int
    y: int
    z: int
    n: int
    q: float | None
    tau_max: float | None
    value: float | None
    target: float | None
    forbidden: float
    distance: float | None
    est_error: float | None
    status: str
    note: str = ""

    def to_dict(self) -> dict:
        return field_dict(self)


@dataclass(frozen=True)
class ScanReport:
    functional_ids: list[str]
    n: int
    max_xyz: int
    window: tuple[float, float] | None
    rows: list[ScanRow]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return to_json({
            "functionals": list(self.functional_ids),
            "n": self.n,
            "max_xyz": self.max_xyz,
            "window": list(self.window) if self.window else None,
            "rows": [r.to_dict() for r in self.rows],
            "metadata": self.metadata,
        })


def _rung(T: float, j) -> tuple[float, float]:
    """(integral of Z^2 over (T, T^1], numeric error) via the defining
    identity, from the read j of J(T)."""
    return hl_representation(T) - j.value, j.abs_error_estimate + 1e-6


def _rung_integral(Ts, cache: CheckpointCache) -> list:
    """_rung for each T, or the LadderLabError its J(T) read met; all J(T)
    read together (hl_integral_all)."""
    return [j if isinstance(j, LadderLabError) else attempt(_rung, T, j)
            for T, j in zip(Ts, hl_integral_all(Ts, cache))]


def _over_ascent(deltas: Callable[[list], list], err: float):
    """Increments over the rungs (T, U], U the ascent of T, all ascended
    together and passed to deltas in one call, with a fixed numeric error."""
    def increments(Ts, cache: CheckpointCache) -> list:
        out = ascend_all(Ts, cache)
        ok = [k for k, res in enumerate(out) if not isinstance(res, LadderLabError)]
        for k, d in zip(ok, deltas([(Ts[k], out[k][0]) for k in ok])):
            out[k] = d if isinstance(d, LadderLabError) else (d, err)
        return out
    return increments


_D = _over_ascent(d_increment_all, 2.0)
_LN_GAMMA = _over_ascent(ln_gamma_increment_all, 1e-5)
_T1 = _over_ascent(t1_increment_all, 1e-5)
_T2 = _over_ascent(t2_increment_all, 1e-5)


# Value forms: (tau, one (increment, error) pair per multiplier) -> (value, error).

def _per_tau(tau: float, inc) -> tuple[float, float]:
    d, err = inc
    return d / tau, err / tau


def _log_per_log_tau(tau: float, inc) -> tuple[float, float]:
    d, err = inc
    return math.log(d) / math.log(tau), err / d / math.log(tau)


def _exp_per_tau(tau: float, inc) -> tuple[float, float]:
    d, err = inc
    g = d / tau
    if g > 700.0:
        raise InfeasibleError(f"exp overflow at tau={tau:g}")
    return math.exp(g), math.exp(g) * err / tau


def _ratio(tau: float, num, den) -> tuple[float, float]:
    (a, ea), (b, eb) = num, den
    r = a / b
    return r, abs(r) * (ea / a + eb / b)


def _log_ratio(tau: float, num, den) -> tuple[float, float]:
    (a, ea), (b, eb) = num, den
    r = math.log(a) / math.log(b)
    return r, (ea / a + abs(r) * eb / b) / abs(math.log(b))


@dataclass(frozen=True)
class _Functional:
    """Everything one functional id needs.

    power: the T-map is T = tau^a, else T = a*tau/(1-c).
    ratio: a runs over the numerator and the denominator of q, else a = q.
    increment: (Ts, cache) -> for each T, (rung increment from T, numeric
    error) or the LadderLabError it met.
    value: (tau, increment per a) -> (functional value, numeric error).
    limit: q -> the value's limit; the forbidden value is limit(1).
    """

    power: bool
    ratio: bool
    increment: Callable[[list, CheckpointCache], list]
    value: Callable[..., tuple[float, float]]
    limit: Callable[[float], float]

    @property
    def exp_valued(self) -> bool:
        return self.value is _exp_per_tau

    def multipliers(self, q: FermatRational, v: float) -> tuple[float, ...]:
        """The a of each T(tau, a) for q, of value v; InfeasibleError where
        one rounds to 0 or does not fit a float."""
        try:
            mults = (float(q.numerator), float(q.z ** q.n)) if self.ratio else (v,)
            if min(mults) > 0.0:
                return mults
        except OverflowError:
            pass
        raise InfeasibleError(f"({q.x},{q.y},{q.z})^{q.n}: a multiplier of T(tau, a) "
                              "rounds to 0 or does not fit a float")

    def t_of(self, tau: float, a: float) -> float:
        return _pow(tau, a) if self.power else a * tau / _SCALE

    def tau_of(self, T: float, a: float) -> float:
        return _pow(T, 1.0 / a) if self.power else T * _SCALE / a


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where that overflows float64."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


# The single definition of every functional id; the order is FUNCTIONAL_IDS.
_FUNCTIONALS = {
    #                            power  ratio  increment       value             limit
    "zeta-segment":   _Functional(False, False, _rung_integral, _per_tau,         lambda q: q),
    "zeta-ratio":     _Functional(False, True,  _rung_integral, _ratio,           lambda q: q),
    "zeta-log":       _Functional(True,  False, _rung_integral, _log_per_log_tau, lambda q: q),
    "zeta-log-ratio": _Functional(True,  True,  _rung_integral, _log_ratio,       lambda q: q),
    "d-linear":       _Functional(False, False, _D,             _per_tau,         lambda q: q),
    "d-log":          _Functional(True,  False, _D,             _log_per_log_tau, lambda q: q),
    "t1":             _Functional(False, False, _T1,            _per_tau,         lambda q: q / math.pi),
    "t2":             _Functional(False, False, _T2,            _per_tau,
                                  lambda q: (1.0 + EULER_GAMMA) * q / math.pi),
    "gamma":          _Functional(False, False, _LN_GAMMA,      _per_tau,         lambda q: q),
    "gamma-exp":      _Functional(False, False, _LN_GAMMA,      _exp_per_tau,     math.exp),
}
FUNCTIONAL_IDS = tuple(_FUNCTIONALS)


def _lookup(functional: str) -> _Functional:
    f = _FUNCTIONALS.get(functional)
    if f is None:
        raise DomainError(f"unknown functional id {functional!r}")
    return f


def _row_grid(fid: str, f: _Functional, v: float, mults: tuple[float, ...], tau_grid,
              t_cap: float) -> list[float]:
    """Taus in the feasible window, whose every T(tau, a) lies in [T_FLOOR, t_cap],
    for the rational of value v and multipliers mults."""
    a_lo = min(mults)
    lo = max(f.tau_of(T_FLOOR, a_lo), 20.0)  # keep ln(tau) away from 0 for the log forms
    while f.t_of(lo, a_lo) < T_FLOOR:  # the inverse map can round under the floor
        lo = math.nextafter(lo, math.inf)
    hi = min(f.tau_of(t_cap, max(mults)), sys.float_info.max)
    if f.exp_valued and v > _EXP_Q_CAP:
        raise InfeasibleError(f"e^q overflows for q={v:g}")
    if hi <= lo * 1.05:
        raise InfeasibleError(
            f"{fid}: no feasible tau (window [{lo:.3g}, {hi:.3g}], engine cap {t_cap:g})")
    inside = [t for t in tau_grid if lo <= t <= hi]
    if len(inside) >= 2:
        if hi > 1.5 * inside[-1]:
            inside.append(hi)  # always measure at the largest feasible tau
        return inside
    # largest feasible geometric grid when the default grid misses the window
    m = 5
    ratio = (hi / lo) ** (1.0 / (m - 1))
    return [lo * ratio ** i for i in range(m - 1)] + [hi]


def _check_t_cap(t_cap: float) -> None:
    """Refuse a t_cap that is not finite or lies below T_FLOOR
    (DomainError), and one whose reach passes T_MAX (InfeasibleError)."""
    if not (math.isfinite(t_cap) and t_cap >= T_FLOOR):
        raise DomainError(f"t_cap must be finite and >= T_FLOOR={T_FLOOR:g}, got {t_cap:g}")
    # the farthest J read of a row is the cell holding the ascent root of
    # t_cap, a rung of ~(1-c)t_cap/ln(t_cap/2pi) up; the margin is 3-4 rungs
    reach = t_cap * (1.0 + 5.0 * _SCALE / math.log(t_cap))
    if reach > T_MAX:
        raise InfeasibleError(f"t_cap={t_cap:g} needs the cache up to T={reach:.6g}, "
                              f"beyond the served range T <= T_MAX={T_MAX:g}")


def evaluate_equivalent(functional: str, q: FermatRational,
                        tau_grid=DEFAULT_TAU_GRID,
                        cache: CheckpointCache | None = None,
                        t_cap: float = DEFAULT_T_CAP) -> ScanRow:
    """One evidence row: functional value at the largest feasible tau.

    tau_grid must be finite and strictly ascending (_check_tau_grid), and
    t_cap as scan takes it (_check_t_cap); both are refused with an error,
    not a row. A rational whose q or z^n does not fit a float is a
    labeled row, its q null where q itself does not fit.
    A row has at least two taus (_row_grid). est_error sums the last-grid
    drift, a Richardson extrapolation gap in 1/ln(tau) (the convergence
    scale of every limit here), and the propagated numeric error. status
    is resolved only when the distance from the forbidden value exceeds
    est_error.
    """
    f = _lookup(functional)
    _check_tau_grid(tau_grid)
    _check_t_cap(t_cap)
    forbidden = f.limit(1.0)
    v = target = tau_last = v_last = distance = est = None
    note = ""
    try:
        v = q.value
        target = None if f.exp_valued and v > _EXP_Q_CAP else f.limit(v)
        mults = f.multipliers(q, v)
        grid = _row_grid(functional, f, v, mults, tau_grid, t_cap)
        incs = f.increment([f.t_of(tau, a) for tau in grid for a in mults], cache)
        values = []
        for k, tau in enumerate(grid):
            row = [unwrap(inc) for inc in incs[k * len(mults):(k + 1) * len(mults)]]
            values.append((tau, *f.value(tau, *row)))
    except LadderLabError as exc:
        # exp-scale forms hit a hard representability guard; linear forms
        # merely ran out of engine range, which is a desk-scale limit
        infeasible = isinstance(exc, InfeasibleError)
        hard = infeasible and (f.power or f.exp_valued)
        status = _STATUS_INFEASIBLE if hard else _STATUS_UNRESOLVED
        note = str(exc) if infeasible else f"solver: {exc}"
    else:
        (tau_prev, v_prev, _), (tau_last, v_last, num_err) = values[-2:]
        drift = abs(v_last - v_prev)
        if len(values) >= 3:
            # a lone drift can cancel by accident; take the worse of two
            drift = max(drift, abs(v_prev - values[-3][1]))
        l_prev, l_last = math.log(tau_prev), math.log(tau_last)
        # v ~ limit + beta/ln(tau): gap to the extrapolated limit
        extrap_gap = drift * (1.0 / l_last) / (1.0 / l_prev - 1.0 / l_last)
        est = drift + extrap_gap + num_err
        distance = abs(v_last - forbidden)
        status = _STATUS_RESOLVED if distance > est else _STATUS_UNRESOLVED
        if not math.isfinite(est):
            est, status = None, _STATUS_UNRESOLVED
    return ScanRow(functional=functional, x=q.x, y=q.y, z=q.z, n=q.n,
                   q=v, tau_max=tau_last, value=v_last, target=target,
                   forbidden=forbidden, distance=distance, est_error=est,
                   status=status, note=note)


def scan(functional_ids, n: int, max_xyz: int,
         tau_grid=DEFAULT_TAU_GRID,
         window: tuple[float, float] | None = None,
         cache: CheckpointCache | None = None,
         t_cap: float = DEFAULT_T_CAP) -> ScanReport:
    """Cross product of enumerated rationals and functionals.

    Rows are independent: each J read extends the checkpoint cache
    through its own stride cell, and a cell's values do not depend on
    evaluation order, so the report is the same for any row order.

    t_cap must be finite and >= T_FLOOR, tau_grid finite and strictly
    ascending, a window two finite numbers lo < hi (DomainError), and
    t_cap's reach within T_MAX (InfeasibleError, t_cap <= ~84,290); all
    are checked before any work.
    """
    _check_tau_grid(tau_grid)
    _check_t_cap(t_cap)
    ids = list(functional_ids)
    for f in ids:
        _lookup(f)
    rationals = enumerate_fermat_rationals(n, max_xyz, window=window)
    cache = cache if cache is not None else CheckpointCache()
    rows = [evaluate_equivalent(f, q, tau_grid, cache, t_cap) for f in ids for q in rationals]
    return ScanReport(
        functional_ids=ids, n=n, max_xyz=max_xyz, window=window, rows=rows,
        metadata={
            "tau_grid": [float(t) for t in tau_grid],
            "t_cap": t_cap,
            "strategy": DEFAULT_STRATEGY,
            "c0_convention": C0_CONVENTION,
        },
    )

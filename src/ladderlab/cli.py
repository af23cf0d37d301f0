"""Command line front end.

Exit codes: 0 success, 1 computation or file error, 2 usage error. All
numeric output is printed at full precision so runs can be diffed; scan
reports are rendered by the deterministic serializer.

A checkpoint cache file named by the HL_CACHE environment variable is
loaded (read-only) by the heavy subcommands when it exists; only the
`cache` subcommand writes one.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fermat, gammalab
from .constants import T_MIN
from .errors import LadderLabError
from .gram import gram_points
from .integral import CheckpointCache, default_cache_path, hl_integral, integrate_segment
from .ladder import build_tower
from .zeta import theta, z_array


def _load_cache(path: str | None = None) -> CheckpointCache:
    """The cache in the file at path, HL_CACHE's by default, when it
    exists; else an empty one."""
    path = path or default_cache_path()
    if path and os.path.exists(path):
        return CheckpointCache.load(path)
    return CheckpointCache()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _floats(spec: str) -> list[float]:
    try:
        vals = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {spec!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty float list")
    return vals


def _window_eps(spec: str) -> float:
    try:
        eps = float(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float {spec!r}") from exc
    if not 0.0 < eps < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {spec!r}")
    return eps


def _cmd_zeta(args) -> int:
    # every sample is evaluated before anything is printed, so a refused
    # ordinate leaves stdout empty instead of a truncated table
    lines = ["t,z,z_sq,theta"]
    for t, z in zip(args.t, z_array(args.t).tolist()):
        th = theta(t) if t >= T_MIN else math.nan
        lines.append(f"{t:.17g},{z:.17g},{z * z:.17g},{th:.17g}")
    print("\n".join(lines))
    return 0


def _cmd_integral(args) -> int:
    if args.frm == 0.0:
        res = hl_integral(args.to, cache=_load_cache())
    else:
        res = integrate_segment(args.frm, args.to)
    print(f"value={res.value:.17g}")
    print(f"abs_error_estimate={res.abs_error_estimate:.17g}")
    print(f"node_count={res.node_count}")
    return 0


def _cmd_ladder(args) -> int:
    tower = build_tower(args.T, args.k, cache=_load_cache())
    print("rung,t")
    for r, t in enumerate(tower.iterates):
        print(f"{r},{t:.17g}")
    return 0


def _cmd_gram(args) -> int:
    slc = gram_points(args.frm, args.to)
    _emit(slc.to_csv(), args.out)
    return 0


# functional id -> (args, cache) -> report text
_FUNCTIONALS = {
    "gamma": lambda a, c: gammalab.gamma_functional(a.x, a.tau_grid, cache=c).to_json(),
    "d": lambda a, c: gammalab.verify_factorization_D(a.tau_grid, cache=c).to_json(),
    "t1": lambda a, c: gammalab.verify_factorization_T1(a.tau_grid, cache=c).to_json(),
    "t2": lambda a, c: gammalab.verify_factorization_T2(a.tau_grid, cache=c).to_json(),
    "chain": lambda a, c: gammalab.verify_chain(a.tau, a.k, cache=c).to_json(),
    "shifted": lambda a, c: gammalab.verify_shifted_ratio(a.tau, cache=c).to_json(),
    "legendre": lambda a, c: gammalab.verify_legendre_factorization(a.tau, cache=c).to_json(),
    "pi-gamma": lambda a, c: f"pi_surrogate={gammalab.pi_via_gamma(a.tau, a.k, cache=c):.17g}",
}


def _cmd_functional(args) -> int:
    _emit(_FUNCTIONALS[args.id](args, _load_cache()), args.out)
    return 0


def _cmd_scan(args) -> int:
    eps = args.window_eps
    window = None if eps is None else (1.0 - eps, 1.0 + eps)
    ids = [tok for tok in args.functionals.split(",") if tok.strip()]
    rep = fermat.scan(
        ids, n=args.n, max_xyz=args.max_xyz,
        tau_grid=args.tau_grid or fermat.DEFAULT_TAU_GRID,
        window=window, cache=_load_cache(), t_cap=args.t_cap,
    )
    _emit(rep.to_json(), args.out)
    return 0


def _cmd_cache(args) -> int:
    path = args.path or default_cache_path()
    if not path:
        print("cache: need --path or HL_CACHE", file=sys.stderr)
        return 2
    cache = _load_cache(path)
    cache.extend_to(args.extend_to)
    cache.save(path)
    print(f"checkpoints={len(cache.ts)}")
    print(f"t_max={cache.ts[-1]:.17g}" if cache.ts else "t_max=0")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ladderlab",
                                description="second-moment ladder laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("zeta", help="Z(t), Z(t)^2 and theta(t) at points")
    q.add_argument("--t", type=_floats, required=True, metavar="T1,T2,...")
    q.set_defaults(fn=_cmd_zeta)

    q = sub.add_parser("integral", help="second-moment integral over [from, to]")
    q.add_argument("--from", dest="frm", type=float, required=True)
    q.add_argument("--to", type=float, required=True)
    q.set_defaults(fn=_cmd_integral)

    q = sub.add_parser("ladder", help="k ascents from T")
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(fn=_cmd_ladder)

    q = sub.add_parser("gram", help="Gram points and Z values on [from, to]")
    q.add_argument("--from", dest="frm", type=float, required=True)
    q.add_argument("--to", type=float, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_gram)

    q = sub.add_parser("functional", help="evaluate a verification functional")
    q.add_argument("--id", required=True, choices=tuple(_FUNCTIONALS))
    q.add_argument("--x", type=float, default=1.0)
    q.add_argument("--tau-grid", type=_floats, default=[1e2, 1e3, 1e4], metavar="T1,T2,...")
    q.add_argument("--tau", type=float, default=1e3)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_functional)

    q = sub.add_parser("scan", help="forbidden-value scan over Fermat rationals")
    q.add_argument("--functionals", default="gamma", metavar="ID1,ID2,...")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--max-xyz", type=int, required=True)
    q.add_argument("--tau-grid", type=_floats, default=None, metavar="T1,T2,...",
                   help="finite and strictly ascending taus (default: "
                        + ",".join(f"{t:g}" for t in fermat.DEFAULT_TAU_GRID) + ")")
    q.add_argument("--window-eps", type=_window_eps, default=None, metavar="EPS",
                   help="keep q in (1 - EPS, 1 + EPS), 0 < EPS < 1")
    q.add_argument("--t-cap", type=float, default=fermat.DEFAULT_T_CAP)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_scan)

    q = sub.add_parser("cache", help="extend and save a checkpoint cache file")
    q.add_argument("--path", default=None)
    q.add_argument("--extend-to", type=float, required=True)
    q.set_defaults(fn=_cmd_cache)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LadderLabError, OSError) as exc:
        print(f"ladderlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Numerical laboratory for the critical-line second moment and its ladder.

Layers, bottom up: a Riemann-Siegel / Euler-Maclaurin engine for Z(t),
panelized quadrature of Z^2 with checkpointing, the ladder
reparametrization with ascent/descent solvers, Gram point machinery with
sign-aware partial sums, a log-gamma ladder, and evidence scanners for
the forbidden-value functionals on Fermat rationals.
"""

from .constants import EULER_GAMMA, LN_TWO_PI, T_FLOOR, T_MAX, T_MIN, TWO_PI
from .errors import (
    BracketError,
    CacheCorruptionError,
    DomainError,
    InfeasibleError,
    LadderLabError,
    ToleranceError,
)
from .zeta import theta, z_array, z_error_bound
from .integral import (
    CheckpointCache,
    IntegralResult,
    default_cache_path,
    hl_integral,
    hl_representation,
    integrate_segment,
)
from .ladder import LadderTower, ascend, build_tower, descend
from .arith import dirichlet_D, divisor_count, prime_pi
from .gram import (
    GramSlice,
    gram_index_range,
    gram_points,
    spacing_ratios,
    t1_increment,
    t2_increment,
)
from .gammalab import (
    ChainReport,
    FunctionalReport,
    LegendreReport,
    ShiftedReport,
    gamma_functional,
    ln_gamma,
    pi_via_gamma,
    verify_chain,
    verify_factorization_D,
    verify_factorization_T1,
    verify_factorization_T2,
    verify_legendre_factorization,
    verify_shifted_ratio,
)
from .fermat import (
    FermatRational,
    ScanReport,
    ScanRow,
    enumerate_fermat_rationals,
    evaluate_equivalent,
    exhaustive_exact_check,
    scan,
)
from .serialize import to_json, write_json

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA", "LN_TWO_PI", "TWO_PI", "T_MIN", "T_FLOOR", "T_MAX",
    "LadderLabError", "DomainError", "ToleranceError", "BracketError",
    "CacheCorruptionError", "InfeasibleError",
    "theta", "z_array", "z_error_bound",
    "IntegralResult", "CheckpointCache", "integrate_segment", "hl_integral",
    "hl_representation", "default_cache_path",
    "LadderTower", "ascend", "descend", "build_tower",
    "divisor_count", "dirichlet_D", "prime_pi",
    "GramSlice", "gram_points", "gram_index_range", "spacing_ratios",
    "t1_increment", "t2_increment",
    "FunctionalReport", "ChainReport", "ShiftedReport", "LegendreReport",
    "ln_gamma", "gamma_functional", "pi_via_gamma", "verify_chain",
    "verify_factorization_D", "verify_factorization_T1",
    "verify_factorization_T2", "verify_legendre_factorization",
    "verify_shifted_ratio",
    "FermatRational", "ScanRow", "ScanReport", "enumerate_fermat_rationals",
    "evaluate_equivalent", "exhaustive_exact_check", "scan",
    "to_json", "write_json",
    "__version__",
]

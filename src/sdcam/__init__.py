"""Single-loop prox-penalty solver for composite problems
min f(x) + g(x) + h(c(x)), with built-in problem families, trace
diagnostics, and rate-bound checks."""

from .oracles import (
    SmoothOracle,
    ProxOracle,
    MapOracle,
    Problem,
    CheckReport,
    check_gradient,
    check_vjp,
    objective,
)
from .prox import (
    LpProxParams,
    soft_threshold,
    lp_threshold,
    prox_lp_power,
    prox_lp_box,
    prox_l1_box,
    project_box,
)
from .schedule import ScheduleSpec, beta_at
from .solver import (
    SolverConfig,
    SolverError,
    SolveResult,
    TraceRow,
    RunAnchors,
    solve,
)
from .diagnostics import (
    stationarity_residual,
    select_subsequence,
    suggest_delta,
    RateConstants,
    rate_constants,
    RateBoundReport,
    rate_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "SmoothOracle",
    "ProxOracle",
    "MapOracle",
    "Problem",
    "CheckReport",
    "check_gradient",
    "check_vjp",
    "objective",
    "LpProxParams",
    "soft_threshold",
    "lp_threshold",
    "prox_lp_power",
    "prox_lp_box",
    "prox_l1_box",
    "project_box",
    "ScheduleSpec",
    "beta_at",
    "SolverConfig",
    "SolverError",
    "SolveResult",
    "TraceRow",
    "RunAnchors",
    "solve",
    "stationarity_residual",
    "select_subsequence",
    "suggest_delta",
    "RateConstants",
    "rate_constants",
    "RateBoundReport",
    "rate_bound_check",
    "__version__",
]

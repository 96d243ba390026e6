"""Independent verification oracles: a brute-force scalar prox minimizer,
and batch checks used by the command-line `check` subcommand and the test
suite.  Everything here deliberately avoids reusing the closed-form /
Newton machinery it is meant to validate.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from .oracles import Problem, check_gradient, check_vjp
from .prox import LpProxParams
from .schedule import ScheduleSpec, beta_at

__all__ = [
    "scalar_prox_objective",
    "grid_prox_scalar",
    "ProxComparison",
    "verify_prox_family",
    "verify_problem_oracles",
    "verify_schedule_sandwich",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BOUND_REL_SLACK = 1e-9
_GRID_POINTS = 4001
_GOLDEN_ITERS = 200


def scalar_prox_objective(u: float, z: float, params: LpProxParams) -> float:
    """(1/(2*gamma))*(z-u)^2 + alpha*|u|^p."""
    return 0.5 / params.gamma * (z - u) ** 2 + params.alpha * abs(u) ** params.p


def _golden_refine(a: float, b: float, fn) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERS):
        if b - a < 1e-15 * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def grid_prox_scalar(z: float, params: LpProxParams) -> float:
    """Brute-force minimizer of the scalar prox objective: coarse grid over
    the bracket [0, |z|] (the minimizer has the sign of z and magnitude at
    most |z|), then golden-section refinement inside the best grid cell."""
    if z == 0.0:
        return 0.0
    a = abs(z)
    grid = np.linspace(0.0, a, _GRID_POINTS)
    vals = 0.5 / params.gamma * (a - grid) ** 2 + params.alpha * grid**params.p
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, _GRID_POINTS - 1)]
    u = _golden_refine(lo, hi, lambda t: scalar_prox_objective(t, a, params))
    # the origin is always a candidate (the objective is nonsmooth there)
    if scalar_prox_objective(0.0, a, params) <= scalar_prox_objective(u, a, params):
        u = 0.0
    return math.copysign(u, z) if u != 0.0 else 0.0


@dataclasses.dataclass
class ProxComparison:
    passed: bool
    max_excess: float  # worst (candidate objective - grid objective)
    worst_case: Optional[Tuple[float, float, float, float]]  # (z, p, alpha, gamma)


def verify_prox_family(prox_fn, n_instances: int, seed: int) -> ProxComparison:
    """Check that prox_fn(z, params) never loses to the brute-force grid
    minimizer by more than 1e-8 in objective value, over random scalar
    instances with p in {0.5, 0.8} and gamma log-uniform on [1e-3, 1e3]."""
    if n_instances < 1:
        raise ValueError(f"n_instances must be at least 1, got {n_instances}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    max_excess = -math.inf
    worst = None
    for _ in range(n_instances):
        p = float(rng.choice((0.5, 0.8)))
        gamma = float(10.0 ** rng.uniform(-3.0, 3.0))
        alpha = float(10.0 ** rng.uniform(-2.0, 1.0))
        z = float(rng.uniform(-10.0, 10.0))
        params = LpProxParams(p=p, alpha=alpha, gamma=gamma)
        u_cand = prox_fn(z, params)
        u_grid = grid_prox_scalar(z, params)
        excess = scalar_prox_objective(u_cand, z, params) - scalar_prox_objective(
            u_grid, z, params
        )
        if excess > max_excess:
            max_excess = excess
            worst = (z, p, alpha, gamma)
    return ProxComparison(passed=max_excess <= 1e-8, max_excess=max_excess, worst_case=worst)


def verify_problem_oracles(
    problem: Problem, points: List[np.ndarray], seed: int = 0
) -> List[str]:
    """Run the finite-difference gradient and adjoint-product checks at each
    point, and test the map constants against Jacobians built from pullbacks:
    ||J_c(x)||_2 <= jac_norm_bound where g(x) is finite, and
    ||J_c(x) - J_c(x')||_2 <= jac_lipschitz_bound * ||x - x'|| for each pair of
    consecutive points, each to 1e-9 relative; a constant that is None is
    skipped.  The map's ``jvp_slack``, where set, must be finite and >= 0.
    Where the pullback offers ``jvp``, <w, jvp(d)> must equal <pullback(w), d>
    for a random (w, d), to 1e-9 relative to the sums of the absolute
    products, and, with both constants valid and d = x' - x toward the
    previous point x' with both points in dom g, the computed ||c(x') - c(x)||
    must be at least the computed ||jvp(d)|| - (L_c/2)||d||^2 - jvp_slack, the
    Taylor bound the solver rejects trials with (skipped where L_c fails
    between the two points).  Each point reports at most one jvp failure.
    Returns a list of failure messages (empty means all passed)."""
    failures: List[str] = []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    M_c, L_c, slack = problem.c.jac_norm_bound, problem.c.jac_lipschitz_bound, problem.c.jvp_slack
    slack_ok = slack is not None and math.isfinite(slack) and slack >= 0.0
    if slack is not None and not slack_ok:
        failures.append(f"jvp_slack {slack!r} is not a finite number >= 0")
    J_prev = c_prev = None
    for k, x in enumerate(points):
        rep = check_gradient(problem.f, x, rng=rng)
        if not rep.passed:
            failures.append(f"gradient check failed at point {k}: {rep.message}")
        rep = check_vjp(problem.c, x, rng=rng)
        if not rep.passed:
            failures.append(f"adjoint-product check failed at point {k}: {rep.message}")
        c_x, pullback = problem.c.linearize(x)
        c_x = np.asarray(c_x, dtype=float)
        lipschitz_ok = True  # L_c holds between x and the previous point
        if M_c is not None or L_c is not None:  # J_c(x) costs m pullbacks
            J = np.array([pullback(e) for e in np.eye(problem.m)])  # row i is J_c(x)^T e_i
            if M_c is not None and math.isfinite(problem.g.value(x)):
                norm = float(np.linalg.norm(J, 2))
                if not norm <= M_c * (1.0 + _BOUND_REL_SLACK):
                    failures.append(f"jac_norm_bound {M_c:.6g} < ||J_c(x)||_2 = {norm:.6g} "
                                    f"at point {k}")
            if L_c is not None and J_prev is not None:
                gap = float(np.linalg.norm(J - J_prev, 2))
                dist = float(np.linalg.norm(x - points[k - 1]))
                lipschitz_ok = gap <= L_c * (1.0 + _BOUND_REL_SLACK) * dist
                if not lipschitz_ok:
                    failures.append(f"jac_lipschitz_bound {L_c:.6g} < ||J_c(x) - J_c(x')||_2 / "
                                    f"||x - x'|| = {gap / dist:.6g} between points {k - 1} and {k}")
            J_prev = J
        if hasattr(pullback, "jvp"):
            # a Taylor bound that fails where L_c does is L_c's failure
            x_prev = points[k - 1] if k and lipschitz_ok and slack_ok and L_c is not None else None
            failure = _jvp_failure(problem, pullback, x, c_x, x_prev, c_prev, rng)
            if failure:
                failures.append(f"{failure} at point {k}")
        c_prev = c_x
    return failures


def _jvp_failure(problem: Problem, pullback, x: np.ndarray, c_x: np.ndarray,
                 x_prev: Optional[np.ndarray], c_prev: Optional[np.ndarray],
                 rng: np.random.Generator) -> str:
    """The first failed jvp check of ``verify_problem_oracles`` at x, or ""."""
    w, d = rng.standard_normal(problem.m), rng.standard_normal(x.size)
    jd, jtw = np.asarray(pullback.jvp(d), dtype=float), np.asarray(pullback(w), dtype=float)
    scale = float(np.abs(w) @ np.abs(jd) + np.abs(jtw) @ np.abs(d))
    if not abs(float(w @ jd) - float(jtw @ d)) <= _BOUND_REL_SLACK * scale:
        return (f"jvp is not the adjoint of the pullback: <w, jvp(d)> = {float(w @ jd):.6g}, "
                f"<pullback(w), d> = {float(jtw @ d):.6g}")
    if x_prev is None or math.inf in (problem.g.value(x), problem.g.value(x_prev)):
        return ""
    L_c, slack = problem.c.jac_lipschitz_bound, problem.c.jvp_slack
    d = x_prev - x
    d_norm = float(np.linalg.norm(d))
    bound = float(np.linalg.norm(pullback.jvp(d))) - 0.5 * L_c * d_norm * d_norm - slack
    gap = float(np.linalg.norm(c_prev - c_x))
    if not gap >= bound:
        return (f"jvp_slack {slack:.6g} does not cover the Taylor bound: ||c(x') - c(x)|| = "
                f"{gap:.6g} < ||jvp(d)|| - (L_c/2)||d||^2 - jvp_slack = {bound:.6g}")
    return ""


def verify_schedule_sandwich(spec: ScheduleSpec, t_max: int = 100_000) -> bool:
    """alpha0*(t+1)^delta <= beta_t <= gamma0*(t+1)^delta for t in [0, t_max]."""
    t = np.arange(t_max + 1)
    beta = np.array([beta_at(spec, t_i) for t_i in t])
    growth = (t + 1.0) ** spec.delta
    lo = spec.alpha0 * growth
    hi = spec.gamma0 * growth
    eps = 1e-12
    return bool(np.all(beta >= lo * (1.0 - eps)) and np.all(beta <= hi * (1.0 + eps)))

"""Single-loop prox-penalty solver for  min f(x) + g(x) + h(c(x)).

Each outer trial solves one prox subproblem

    x~ = argmin_x  <v, x> + (1/mu)*||x - x^t||^2 + g(x),
    v  = grad f(x^t) + beta_t * J_c(x^t)^T (c(x^t) - y^t),

accepts it when the backtracking condition below holds, and then updates the
auxiliary point y by one prox step on h:

  (i)  ||c(x~) - c(x^t)||  <=  sqrt(1/(mu*beta_t)) * ||x~ - x^t||
  (ii) f(x~)+g(x~)+(beta_t/2)||c(x~)-y^t||^2
         <=  f(x^t)+g(x^t)+(beta_t/2)||c(x^t)-y^t||^2 - (1/(2mu))||x~-x^t||^2

On acceptance mu grows by eta (capped at mu_max) and the schedule index t
advances; on rejection mu shrinks by rho and the state is untouched.  beta_t
is indexed by the accepted-step counter only: rejected trials reuse beta_t.

c(x^t), grad f(x^t) and J_c(x^t)^T (c(x^t) - y^t) are computed once per
iterate and cached across rejected trials; the backtracking loop re-solves only
the prox.  Each trial point gets c(x~) and its pullback from one
``c.linearize`` call; an accepted step applies that pullback to c(x~) - y, so
the map is swept once per trial.  The stationarity residual of an accepted
step comes from the same cache through the identity

    ||grad f(x^{t+1}) - grad f(x^t) - (beta_t - beta_{t-1}) J_c(x^t)^T (c(x^t) - y^t)
      - (2/mu_t)(x^{t+1} - x^t)||,

which equals the witness norm of ``diagnostics.stationarity_residual`` up to
rounding; grad f(x^{t+1}) is the gradient the next iterate needs anyway.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .oracles import Problem, Pullback, Vector
from .schedule import ScheduleSpec, beta_at

__all__ = [
    "SolverConfig",
    "SolverState",
    "TraceRow",
    "RunAnchors",
    "SolveResult",
    "SolverError",
    "initial_state",
    "trial_step",
    "condition_check",
    "ConditionReport",
    "step",
    "solve",
]


class SolverError(RuntimeError):
    """Numerical failure: an oracle violated its contract mid-run."""


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    mu_max: float
    mu_init: float
    rho: float
    eta: float
    schedule: ScheduleSpec
    max_successful_iters: int
    max_total_trials: int
    stop_eps: Optional[float] = None
    assert_level: str = "off"  # off | full

    def __post_init__(self) -> None:
        if not (0.0 < self.mu_init < self.mu_max):
            raise ValueError("require 0 < mu_init < mu_max")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0,1)")
        if self.eta < 1.0:
            raise ValueError("eta must be >= 1")
        if self.max_successful_iters < 1 or self.max_total_trials < 1:
            raise ValueError("iteration budgets must be positive")
        if self.stop_eps is not None and not self.stop_eps > 0.0:
            raise ValueError("stop_eps must be > 0")
        if self.assert_level not in ("off", "full"):
            raise ValueError(f"unknown assert_level {self.assert_level!r}")


@dataclasses.dataclass
class SolverState:
    """Mutable run state; caches c(x), grad f(x) and J_c(x)^T (c(x) - y) at the
    current iterate, and the linearized gradient v for the beta_t of its last
    trial (``v_beta`` is NaN until then and after every accepted step)."""

    t: int
    x: Vector
    y: Vector
    mu: float
    c_x: Vector
    grad_fx: Vector
    jtd: Vector  # J_c(x)^T (c(x) - y)
    fg_x: float  # f(x) + g(x)
    h_y: float  # h(y)
    trial_count: int = 0
    unsuccessful_since_accept: int = 0
    v: Optional[Vector] = None  # grad f(x) + v_beta * J_c(x)^T (c(x) - y)
    v_beta: float = math.nan


@dataclasses.dataclass(frozen=True)
class TraceRow:
    """One accepted step (produces x^{t+1} from x^t).

    H_value = f+g(x^{t+1}) + (beta_t/2)||c(x^{t+1})-y^t||^2 + h(y^t);
    Theta_value = (f+g(x^{t+1}) - inf_fg)/beta_t + ||c(x^{t+1})-y^t||^2/2
                  + h(y^t)/beta_t  (None when no inf_fg lower bound is known).
    """

    t: int
    mu_t: float
    beta_t: float
    step_norm: float
    scaled_step: float
    gap: float
    prev_gap: float
    residual: float
    fg_value: float
    h_at_y: float
    H_value: float
    Theta_value: Optional[float]
    unsuccessful_this_iter: int
    rel_feas: Optional[float] = None

    def certifies(self, eps1: float, eps2: float, eps3: float) -> bool:
        """Whether x^{t+1} is an (eps1, eps2, eps3)-stationary point.

        The witnesses are y^t and z = x^t, with psi in dg(x^{t+1}) and
        xi in dh(y^t) as in ``sdcam.diagnostics``: ``residual`` is
        ||grad f(x^{t+1}) + psi + J_c(x^t)^T xi||, ``prev_gap`` is
        ||c(x^{t+1}) - y^t|| and ``step_norm`` is ||x^{t+1} - x^t||.
        """
        return self.residual <= eps1 and self.prev_gap <= eps2 and self.step_norm <= eps3


@dataclasses.dataclass
class RunAnchors:
    """Initial-point quantities needed by the rate-constant formulas."""

    beta0: float
    gap_x0_y0: float
    h_y0: float
    fg_x1: Optional[float] = None
    gap_x1_y0: Optional[float] = None


@dataclasses.dataclass
class SolveResult:
    x: Vector
    y: Vector
    t: int
    status: str
    trace: List[TraceRow]
    anchors: RunAnchors
    total_trials: int
    total_unsuccessful: int
    condition_margins: List[Tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    passed: bool
    margin_i: float
    margin_ii: float
    c_trial: Vector
    fg_trial: float
    pullback: Pullback  # w -> J_c(x~)^T w


def _linearize(
    p: Problem, x: Vector, c_x: Vector, pullback: Pullback, y: Vector
) -> Tuple[Vector, Vector]:
    """grad f(x) and J_c(x)^T (c(x) - y), the two terms of v at the iterate
    (x, y); ``pullback`` comes from ``p.c.linearize(x)``."""
    grad_fx = np.asarray(p.f.grad(x), dtype=float)
    jtd = np.asarray(pullback(c_x - y), dtype=float)
    if not (np.isfinite(grad_fx).all() and np.isfinite(jtd).all()):
        raise SolverError("grad f(x) or J_c(x)^T (c(x) - y) is not finite")
    return grad_fx, jtd


def initial_state(p: Problem, x0: Vector, y0: Vector, mu: float) -> SolverState:
    """The run state at (x0, y0) with step parameter mu.

    Raises ValueError when x0/y0 have the wrong size or lie outside dom g /
    dom h, and SolverError when f(x0), grad f(x0), c(x0) or
    J_c(x0)^T (c(x0) - y0) is not finite.
    """
    x0 = np.array(x0, dtype=float)
    y0 = np.array(y0, dtype=float)
    if x0.size != p.n or y0.size != p.m:
        raise ValueError("x0/y0 dimensions do not match the problem")
    g0 = float(p.g.value(x0))
    if g0 == math.inf:
        raise ValueError("x0 is infeasible: g(x0) = +inf")
    h0 = float(p.h.value(y0))
    if h0 == math.inf:
        raise ValueError("y0 is infeasible: h(y0) = +inf")
    c_x, pullback = p.c.linearize(x0)
    c_x = np.asarray(c_x, dtype=float)
    fg_x = float(p.f.value(x0)) + g0
    if not (math.isfinite(fg_x) and np.isfinite(c_x).all()):
        raise SolverError("f(x0) + g(x0) or c(x0) is not finite")
    grad_fx, jtd = _linearize(p, x0, c_x, pullback, y0)
    return SolverState(
        t=0, x=x0, y=y0, mu=mu, c_x=c_x, grad_fx=grad_fx, jtd=jtd, fg_x=fg_x, h_y=h0
    )


def trial_step(p: Problem, st: SolverState, beta_t: float, mu: float) -> Vector:
    """Exact minimizer of <v,x> + (1/mu)||x-x^t||^2 + g(x).

    v = grad f(x^t) + beta_t * J_c(x^t)^T (c(x^t) - y^t) is computed once per
    iterate and beta_t, and kept in ``st`` for the rejected trials that follow.
    Raises SolverError when v is not finite (beta_t too large for float64).
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if st.v_beta != beta_t:
        with np.errstate(over="ignore", invalid="ignore"):
            v = st.grad_fx + beta_t * st.jtd
        if not np.isfinite(v).all():
            raise SolverError(
                f"v = grad f(x) + beta_t * J_c(x)^T (c(x) - y) is not finite at beta_t={beta_t!r}"
            )
        st.v, st.v_beta = v, beta_t
    return np.asarray(p.g.prox(st.x - 0.5 * mu * st.v, 0.5 * mu), dtype=float)


def condition_check(
    p: Problem,
    x_t: Vector,
    x_trial: Vector,
    y_t: Vector,
    beta_t: float,
    mu: float,
    fg_xt: float,
    c_xt: Vector,
) -> ConditionReport:
    """Backtracking acceptance test; margins >= -tol means pass.

    tol = 1e-12*(1+|f(x^t)+g(x^t)|) guards floating-point ties at margin 0.
    A margin that is not finite (f or c returned NaN or inf at x~, or mu is
    too small to invert) raises SolverError instead of rejecting the trial.
    """
    g_trial = float(p.g.value(x_trial))
    if g_trial == math.inf:
        raise SolverError("g.prox returned a point outside dom g")
    fg_trial = float(p.f.value(x_trial)) + g_trial
    c_trial, pullback = p.c.linearize(x_trial)
    c_trial = np.asarray(c_trial, dtype=float)
    dx = float(np.linalg.norm(x_trial - x_t))
    dc = float(np.linalg.norm(c_trial - c_xt))
    margin_i = math.sqrt(1.0 / (mu * beta_t)) * dx - dc
    lhs = fg_trial + 0.5 * beta_t * float(np.linalg.norm(c_trial - y_t)) ** 2
    rhs = fg_xt + 0.5 * beta_t * float(np.linalg.norm(c_xt - y_t)) ** 2
    margin_ii = rhs - lhs - dx * dx / (2.0 * mu)
    if not (math.isfinite(margin_i) and math.isfinite(margin_ii)):
        raise SolverError(
            f"acceptance margins ({margin_i!r}, {margin_ii!r}) are not finite at mu={mu!r}"
        )
    tol = 1e-12 * (1.0 + abs(fg_xt))
    passed = margin_i >= -tol and margin_ii >= -tol
    return ConditionReport(passed, margin_i, margin_ii, c_trial, fg_trial, pullback)


def step(
    p: Problem,
    st: SolverState,
    cfg: SolverConfig,
    rel_feas: Optional[Callable[[Vector], float]] = None,
) -> Tuple[Optional[TraceRow], ConditionReport]:
    """One trial.  Returns (row, report); row is None on rejection."""
    beta_t = beta_at(cfg.schedule, st.t)
    x_trial = trial_step(p, st, beta_t, st.mu)
    st.trial_count += 1
    rep = condition_check(p, st.x, x_trial, st.y, beta_t, st.mu, st.fg_x, st.c_x)
    if not rep.passed:
        st.mu *= cfg.rho
        st.unsuccessful_since_accept += 1
        return None, rep

    mu_t = st.mu
    beta_prev = beta_at(cfg.schedule, st.t - 1) if st.t >= 1 else cfg.schedule.beta0
    dx = x_trial - st.x
    step_norm = float(np.linalg.norm(dx))
    prev_gap = float(np.linalg.norm(rep.c_trial - st.y))
    y_new = np.asarray(p.h.prox(rep.c_trial, 1.0 / beta_t), dtype=float)
    h_y_new = float(p.h.value(y_new))
    if h_y_new == math.inf:
        raise SolverError("h.prox returned a point outside dom h")
    grad_new, jtd_new = _linearize(p, x_trial, rep.c_trial, rep.pullback, y_new)
    residual = float(
        np.linalg.norm(
            grad_new - st.grad_fx - (beta_t - beta_prev) * st.jtd - (2.0 / mu_t) * dx
        )
    )
    gap = float(np.linalg.norm(rep.c_trial - y_new))
    H = rep.fg_trial + 0.5 * beta_t * prev_gap * prev_gap + st.h_y
    theta: Optional[float] = None
    if p.inf_fg_lower_bound is not None:
        theta = (
            (rep.fg_trial - p.inf_fg_lower_bound) / beta_t
            + 0.5 * prev_gap * prev_gap
            + st.h_y / beta_t
        )
    row = TraceRow(
        t=st.t,
        mu_t=mu_t,
        beta_t=beta_t,
        step_norm=step_norm,
        scaled_step=step_norm / mu_t,
        gap=gap,
        prev_gap=prev_gap,
        residual=residual,
        fg_value=rep.fg_trial,
        h_at_y=h_y_new,
        H_value=H,
        Theta_value=theta,
        unsuccessful_this_iter=st.unsuccessful_since_accept,
        rel_feas=None if rel_feas is None else float(rel_feas(x_trial)),
    )
    st.x = x_trial
    st.c_x = rep.c_trial
    st.grad_fx = grad_new
    st.jtd = jtd_new
    st.v_beta = math.nan
    st.fg_x = rep.fg_trial
    st.y = y_new
    st.h_y = h_y_new
    st.t += 1
    st.mu = min(cfg.mu_max, cfg.eta * st.mu)
    st.unsuccessful_since_accept = 0
    return row, rep


def solve(
    p: Problem,
    cfg: SolverConfig,
    x0: Vector,
    y0: Vector,
    rel_feas: Optional[Callable[[Vector], float]] = None,
) -> SolveResult:
    """Run trials until the accepted-step budget, the trial budget, or (when
    stop_eps is set) the first row that certifies a (stop_eps, stop_eps,
    stop_eps)-stationary point, which ends with status "converged".

    Every accepted row already passed the acceptance margins.  assert_level
    "full" also asserts the merit-function monotonicity and the per-step
    pseudo-descent inequality (requires inf_fg_lower_bound).
    """
    if cfg.assert_level == "full" and p.inf_fg_lower_bound is None:
        raise ValueError("assert_level='full' requires inf_fg_lower_bound")
    st = initial_state(p, x0, y0, cfg.mu_init)
    anchors = RunAnchors(
        beta0=cfg.schedule.beta0,
        gap_x0_y0=float(np.linalg.norm(st.c_x - st.y)),
        h_y0=st.h_y,
    )

    trace: List[TraceRow] = []
    margins: List[Tuple[float, float]] = []
    status = "trial budget"
    while True:
        if len(trace) >= cfg.max_successful_iters:
            status = "iteration budget"
            break
        if st.trial_count >= cfg.max_total_trials:
            status = "trial budget"
            break
        row, rep = step(p, st, cfg, rel_feas)
        if row is None:
            continue
        if not all(
            math.isfinite(q)
            for q in (row.step_norm, row.gap, row.prev_gap, row.residual, row.fg_value)
        ):
            raise SolverError(f"non-finite trace quantities at t={row.t}")
        margins.append((rep.margin_i, rep.margin_ii))
        if cfg.assert_level == "full" and row.t >= 1:
            # The previous row holds H's terms at (x^t, y^t) and beta_{t-1}.
            prev = trace[-1]
            tol = 1e-7 * (1.0 + abs(prev.Theta_value))
            if row.Theta_value > prev.Theta_value + tol:
                raise SolverError(
                    f"merit nonincrease violated at t={row.t}: "
                    f"{row.Theta_value} > {prev.Theta_value}"
                )
            cxy_sq = prev.gap**2
            h_prev = prev.fg_value + 0.5 * prev.beta_t * cxy_sq + prev.h_at_y
            bound = (
                h_prev
                - row.step_norm**2 / (2.0 * row.mu_t)
                + 0.5 * (row.beta_t - prev.beta_t) * cxy_sq
            )
            tol = 1e-9 * (1.0 + abs(h_prev))
            if row.H_value > bound + tol:
                raise SolverError(f"pseudo-descent violated at t={row.t}")
        trace.append(row)
        if row.t == 0:
            anchors.fg_x1 = row.fg_value
            anchors.gap_x1_y0 = row.prev_gap
        if cfg.stop_eps is not None and row.certifies(cfg.stop_eps, cfg.stop_eps, cfg.stop_eps):
            status = "converged"
            break

    return SolveResult(
        x=st.x,
        y=st.y,
        t=st.t,
        status=status,
        trace=trace,
        anchors=anchors,
        total_trials=st.trial_count,
        total_unsuccessful=st.trial_count - st.t,
        condition_margins=margins,
    )

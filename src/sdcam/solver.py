"""Single-loop prox-penalty solver for  min f(x) + g(x) + h(c(x)).

``step`` runs one outer trial and is the only function that does.  It solves
one prox subproblem

    x~ = argmin_x  <v, x> + (1/mu)*||x - x^t||^2 + g(x),
    v  = grad f(x^t) + beta_t * J_c(x^t)^T (c(x^t) - y^t),

and accepts x~ when the backtracking condition

  (i)  ||c(x~) - c(x^t)||  <=  sqrt(1/(mu*beta_t)) * ||x~ - x^t||
  (ii) f(x~)+g(x~)+(beta_t/2)||c(x~)-y^t||^2
         <=  f(x^t)+g(x^t)+(beta_t/2)||c(x^t)-y^t||^2 - (1/(2mu))||x~-x^t||^2

holds, each margin (right side minus left side) >= -1e-12*(1+|f(x^t)+g(x^t)|);
it then updates the auxiliary point y by one prox step on h.  It returns
(row, (margin_i, margin_ii)), with row None on a rejection.  Condition (ii)
plus h(y^t) on both sides is the paper's per-step descent inequality on H.

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

||c(x^t) - y^t|| is cached with the iterate too.  A failed (i) rejects the
trial whatever (ii) says, so (ii) is formed only on trials that pass (i): a
trial that (i) rejects computes one ``g.prox``, ``g.value``, one
``c.linearize`` and two norms, and returns NaN for margin_ii; a trial that
passes (i) adds ``f.value`` and ||c(x~) - y^t||.  An accepted step reuses
||x~ - x^t|| and ||c(x~) - y^t|| from its test.

When c has a Jacobian Lipschitz constant L_c and a ``jvp_slack`` and the
pullback at x^t offers ``jvp``, a trial first tests a Taylor lower bound on
||c(x~) - c(x^t)|| less a rounding slack.  Where it proves that (i) fails, the
trial is rejected without ``c.linearize`` (one jvp and three norms in its
place), and every output bit is that of the exact test.  ``step`` states the
bound, its anchor and its slack, and why they are sound.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, NamedTuple, Optional, Tuple

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

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if isinstance(getattr(self, f.name), bool):
                raise ValueError(f"{f.name} must not be a boolean")
        if not (0.0 < self.mu_init < self.mu_max):
            raise ValueError("require 0 < mu_init < mu_max")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0,1)")
        if not self.eta >= 1.0:  # NaN included
            raise ValueError("eta must be >= 1")
        for name in ("max_successful_iters", "max_total_trials"):
            budget = getattr(self, name)
            if not isinstance(budget, int) or budget < 1:
                raise ValueError(f"{name} must be a positive integer, got {budget!r}")
        if self.stop_eps is not None and not self.stop_eps > 0.0:
            raise ValueError("stop_eps must be > 0")


class TaylorAnchor(NamedTuple):
    """The point a of the Taylor-bound rejection, r = c(a) - c(x^t) as
    computed, the pullback at a (it offers ``jvp``) and the slack of the
    bound, the map's ``jvp_slack`` plus (m + 4)*u*||r||."""

    a: Vector
    r: Vector
    pullback: Pullback
    slack: float


@dataclasses.dataclass
class SolverState:
    """Mutable run state; caches c(x), grad f(x), J_c(x)^T (c(x) - y) and
    ||c(x) - y|| at the current iterate, the linearized gradient v for the
    beta_t of its last trial (``v_beta`` is NaN until then and after every
    accepted step), and the anchor of the Taylor-bound rejection: x itself
    after ``initial_state`` and every accepted step, then the last rejected
    trial point where c was evaluated.  It is None when the solver cannot use
    a jvp (see ``step``)."""

    t: int
    x: Vector
    y: Vector
    mu: float
    c_x: Vector
    grad_fx: Vector
    jtd: Vector  # J_c(x)^T (c(x) - y)
    anchor: Optional[TaylorAnchor]  # of the Taylor-bound rejection; see _anchor
    fg_x: float  # f(x) + g(x)
    gap_x: float  # ||c(x) - y||
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


def _norm(d: Vector) -> float:
    """``np.linalg.norm`` of a 1-D float64 array, bit for bit, without its wrapper."""
    return math.sqrt(d.dot(d))


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


def _anchor(
    p: Problem, a: Vector, pullback: Pullback, r: Optional[Vector] = None, r_norm: float = 0.0
) -> Optional[TaylorAnchor]:
    """The anchor at a, where c(a) - c(x^t) computed to r of norm r_norm (r
    None: a is x^t and r is 0), when c has an L_c and a ``jvp_slack`` and
    ``pullback`` (at a) offers ``jvp``, the inputs of the Taylor-bound
    rejection; otherwise None."""
    if p.c.jac_lipschitz_bound is None or p.c.jvp_slack is None or not hasattr(pullback, "jvp"):
        return None
    if r is None:
        r = np.zeros(p.m)
    return TaylorAnchor(a, r, pullback, p.c.jvp_slack + (p.m + 4) * 2.0**-53 * r_norm)


def _taylor_bound(anchor: TaylorAnchor, x_trial: Vector, L_c: float) -> float:
    """||r + J_c(a) e|| - (L_c/2)||e||^2 - slack with e = x_trial - a: a lower
    bound on the computed ||c(x_trial) - c(x^t)||; see ``step``."""
    e = x_trial - anchor.a
    e_norm = _norm(e)
    return _norm(anchor.r + anchor.pullback.jvp(e)) - 0.5 * L_c * e_norm * e_norm - anchor.slack


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
        t=0, x=x0, y=y0, mu=mu, c_x=c_x, grad_fx=grad_fx, jtd=jtd,
        anchor=_anchor(p, x0, pullback),
        fg_x=fg_x, gap_x=_norm(c_x - y0), h_y=h0,
    )


def step(
    p: Problem,
    st: SolverState,
    cfg: SolverConfig,
    rel_feas: Optional[Callable[[Vector], float]] = None,
) -> Tuple[Optional[TraceRow], Tuple[float, float]]:
    """One trial.  Returns (row, (margin_i, margin_ii)); row is None on rejection.

    margin_ii is NaN when (ii) was not evaluated: a trial that fails (i) is
    rejected without calling ``f.value``.  A trial that the Taylor bound below
    rejects does not call ``c.linearize`` either, and its margin_i is an upper
    bound on the one that call would give.  v is kept in ``st`` for the
    rejected trials at the same iterate and beta_t.  The tolerance of the test
    guards floating-point ties at margin 0.
    A non-finite v (beta_t too large for float64), a ValueError from ``g.prox``
    (say its step mu/2 is inf, or overflows a product with a weight of g), a
    prox result outside its domain, a NaN or -inf g(x~), or a non-finite margin
    (c returned NaN or inf at x~, f did where (ii) is evaluated, or mu is too
    small to invert) raises SolverError instead of rejecting the trial.
    So does a non-finite gap or residual; finite margins cover the other terms.

    The Taylor bound is taken at an anchor a in dom g where c has been
    evaluated.  With r_a = c(a) - c(x^t) and e = x~ - a, L_c gives

        ||c(x~) - c(x^t)||  >=  ||r_a + J_c(a) e|| - (L_c/2)||e||^2,

    since c(x~) - c(x^t) = r_a + J_c(a) e plus a remainder of norm at most
    (L_c/2)||e||^2.  With lb the computed right side less the anchor's slack,
    which bounds how far rounding can lift it above the computed left side,
    sqrt(1/(mu*beta_t))*||x~ - x^t|| - lb is an upper bound on the margin_i
    that evaluating c(x~) would give, in exact arithmetic and as computed.
    When that bound is finite and below -tol, the trial is rejected as a
    failed (i) is, returning the bound as margin_i.  The exact test would
    reject it too, so the backtracking argument and every output bit are
    unchanged; only its reported margin_i differs.

    The anchor moves.  ``initial_state`` and every accepted step put it at
    x^t, with r_a = 0 and the slack ``jvp_slack``.  A rejected trial that did
    evaluate c(x~) moves it to x~, with that trial's pullback and r_a formed
    from its c(x~) as its test of (i) formed c(x~) - c(x^t), bit for bit; a
    certified trial leaves it.  While mu walks down, successive trial points
    lie close together, so the curvature term (L_c/2)||e||^2 at the last swept
    trial is small, where the one at x^t may exceed ||c(x~) - c(x^t)||.  Every
    trial applies one jvp, at the anchor.  An anchor from an earlier iterate
    would measure r_a against an old c(x^t), so an accepted step resets it.

    The anchor's slack is the map's ``jvp_slack`` plus (m + 4)*u*||r_a||
    with u = 2^-53, the solver's own rounding as far as it scales with r_a.
    Write c~ for the computed values of c.  The computed r_a is
    c~(a) - c~(x^t) + delta with ||delta|| <= u||r_a||/(1 - u), so

        c~(x~) - c~(x^t)  =  r_a - delta + (c~(x~) - c~(a)):

    the error of c~(x^t) cancels, since the same float vector is on both
    sides, and c~(x~) - c~(a) is a difference that ``jvp_slack`` covers, as
    a is in dom g.  With j the computed J_c(a) e, forming r_a + j errs by at most
    u(||r_a|| + ||j||), and its norm by (m/2 + 1)u(||r_a|| + ||j||) to first
    order.  The ||j|| shares are ``jvp_slack``'s, as ``sdcam.oracles`` states;
    the ||r_a|| shares and delta stay below (m/2 + 3)(1 + 2u)u||r_a||, which
    (m + 4)*u*||r_a||, computed, exceeds.  At an anchor at x^t, r_a = 0, so the
    bound is the plain one at x^t, bit for bit.
    """
    beta_t = beta_at(cfg.schedule, st.t)
    mu = st.mu
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
    try:
        x_trial = np.asarray(p.g.prox(st.x - 0.5 * mu * st.v, 0.5 * mu), dtype=float)
    except ValueError as exc:  # the problem's parameters were checked when it was built
        raise SolverError(f"g.prox rejected its step mu/2 at mu={mu!r}: {exc}") from exc
    st.trial_count += 1
    g_trial = float(p.g.value(x_trial))
    if g_trial == math.inf:
        raise SolverError("g.prox returned a point outside dom g")
    dx = x_trial - st.x
    step_norm = _norm(dx)
    thr = math.sqrt(1.0 / (mu * beta_t)) * step_norm  # the right side of (i)
    tol = 1e-12 * (1.0 + abs(st.fg_x))
    # a NaN or -inf g(x~) takes the exact path below, which raises
    anchor = st.anchor
    if anchor is not None and math.isfinite(g_trial):
        # thr - lb >= margin_i as computed; see the docstring
        margin_i = thr - _taylor_bound(anchor, x_trial, p.c.jac_lipschitz_bound)
        if margin_i < -tol and math.isfinite(margin_i):
            st.mu *= cfg.rho
            st.unsuccessful_since_accept += 1
            return None, (margin_i, math.nan)
    c_trial, pullback = p.c.linearize(x_trial)
    c_trial = np.asarray(c_trial, dtype=float)
    margin_i = thr - _norm(c_trial - st.c_x)
    if not math.isfinite(margin_i):
        raise SolverError(f"acceptance margins ({margin_i!r}, nan) are not finite at mu={mu!r}")
    if not math.isfinite(g_trial):
        raise SolverError(f"g(x~) = {g_trial!r} is not finite")
    margin_ii = math.nan  # (ii) is formed only where (i) holds
    if margin_i >= -tol:
        fg_trial = float(p.f.value(x_trial)) + g_trial
        prev_gap = _norm(c_trial - st.y)
        lhs = fg_trial + 0.5 * beta_t * prev_gap**2
        rhs = st.fg_x + 0.5 * beta_t * st.gap_x**2
        margin_ii = rhs - lhs - step_norm * step_norm / (2.0 * mu)
        if not math.isfinite(margin_ii):
            raise SolverError(
                f"acceptance margins ({margin_i!r}, {margin_ii!r}) are not finite at mu={mu!r}"
            )
    if not margin_ii >= -tol:
        st.mu *= cfg.rho
        st.unsuccessful_since_accept += 1
        if anchor is not None:  # the next trial's bound is taken at x~
            dc = c_trial - st.c_x
            st.anchor = _anchor(p, x_trial, pullback, dc, _norm(dc))
        return None, (margin_i, margin_ii)

    beta_prev = beta_at(cfg.schedule, st.t - 1) if st.t >= 1 else cfg.schedule.beta0
    y_new = np.asarray(p.h.prox(c_trial, 1.0 / beta_t), dtype=float)
    h_y_new = float(p.h.value(y_new))
    if h_y_new == math.inf:
        raise SolverError("h.prox returned a point outside dom h")
    grad_new, jtd_new = _linearize(p, x_trial, c_trial, pullback, y_new)
    with np.errstate(over="ignore"):  # an overflow is the SolverError below
        residual = _norm(grad_new - st.grad_fx - (beta_t - beta_prev) * st.jtd - (2.0 / mu) * dx)
        gap = _norm(c_trial - y_new)
    for name, q in (("gap", gap), ("residual", residual)):
        if not math.isfinite(q):
            raise SolverError(f"{name} = {q!r} is not finite at t={st.t}")
    H = fg_trial + 0.5 * beta_t * prev_gap * prev_gap + st.h_y
    theta = None if p.inf_fg_lower_bound is None else (
        (fg_trial - p.inf_fg_lower_bound) / beta_t + 0.5 * prev_gap * prev_gap + st.h_y / beta_t
    )
    row = TraceRow(
        t=st.t,
        mu_t=mu,
        beta_t=beta_t,
        step_norm=step_norm,
        scaled_step=step_norm / mu,
        gap=gap,
        prev_gap=prev_gap,
        residual=residual,
        fg_value=fg_trial,
        h_at_y=h_y_new,
        H_value=H,
        Theta_value=theta,
        unsuccessful_this_iter=st.unsuccessful_since_accept,
        rel_feas=None if rel_feas is None else float(rel_feas(x_trial)),
    )
    st.x = x_trial
    st.c_x = c_trial
    st.grad_fx = grad_new
    st.jtd = jtd_new
    st.anchor = _anchor(p, x_trial, pullback)
    st.v_beta = math.nan
    st.fg_x = fg_trial
    st.gap_x = gap
    st.y = y_new
    st.h_y = h_y_new
    st.t += 1
    st.mu = min(cfg.mu_max, cfg.eta * st.mu)
    st.unsuccessful_since_accept = 0
    return row, (margin_i, margin_ii)


def _check_theta(p: Problem, row: TraceRow, prev: Optional[TraceRow]) -> None:
    """Raise SolverError where ``row`` breaks a premise of Theta (f+g at or
    above ``inf_fg_lower_bound``, to 1e-9*(1 + |bound|), and h(y) >= 0), or
    where its Theta is above ``prev``'s by more than 1e-7*(1 + |Theta_prev|)."""
    bound = p.inf_fg_lower_bound
    if row.fg_value < bound - 1e-9 * (1.0 + abs(bound)):
        raise SolverError(
            f"premise of the merit check broken at t={row.t}: f+g = {row.fg_value!r} is "
            f"below inf_fg_lower_bound = {bound!r}"
        )
    if row.h_at_y < 0.0:
        raise SolverError(
            f"premise of the merit check broken at t={row.t}: h(y) = {row.h_at_y!r} is negative"
        )
    if prev is None:
        return
    if row.Theta_value > prev.Theta_value + 1e-7 * (1.0 + abs(prev.Theta_value)):
        raise SolverError(
            f"merit nonincrease violated at t={row.t}: {row.Theta_value} > {prev.Theta_value}"
        )


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

    Every accepted row passed both margins, so the descent inequality on H
    (condition (ii)) holds.  Where rows carry Theta (see ``Problem``), a row
    whose f+g is below ``inf_fg_lower_bound`` or whose h(y) is negative, or
    whose Theta is above the last row's by more than 1e-7*(1 + |Theta_prev|),
    raises SolverError.
    """
    st = initial_state(p, x0, y0, cfg.mu_init)
    anchors = RunAnchors(beta0=cfg.schedule.beta0, gap_x0_y0=st.gap_x, h_y0=st.h_y)

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
        row, step_margins = step(p, st, cfg, rel_feas)
        if row is None:
            continue
        margins.append(step_margins)
        if row.Theta_value is not None:
            _check_theta(p, row, trace[-1] if trace else None)
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

"""The solver's trial written out literally: the reference for ``sdcam.solver.step``.

Each trial recomputes c(x^t), grad f(x^t) and v through ``c.value`` and
``c.vjp``, forms both backtracking conditions and applies the mu rule; an
accepted trial takes the prox step on h and its residual from
``diagnostics.stationarity_residual``.  There is no cache, Taylor bound or jvp.
Each expression keeps the operand order of ``step``, so equal inputs give equal bits.
"""

import dataclasses
import math

import numpy as np

from sdcam.diagnostics import stationarity_residual
from sdcam.schedule import beta_at
from sdcam.solver import TraceRow


@dataclasses.dataclass
class ReferenceState:
    x: np.ndarray
    y: np.ndarray
    mu: float
    t: int = 0
    trials: int = 0
    unsuccessful: int = 0


def _norm(d):
    return float(np.linalg.norm(d))


def reference_trial(p, s, cfg, rel_feas=None):
    """One trial from s: (row or None, (margin_i, margin_ii)), both margins always formed."""
    x, y, mu, beta_t = s.x, s.y, s.mu, beta_at(cfg.schedule, s.t)
    c_x = np.asarray(p.c.value(x), dtype=float)
    fg_x = float(p.f.value(x)) + float(p.g.value(x))
    jtd = np.asarray(p.c.vjp(x, c_x - y), dtype=float)
    v = np.asarray(p.f.grad(x), dtype=float) + beta_t * jtd
    x_new = np.asarray(p.g.prox(x - 0.5 * mu * v, 0.5 * mu), dtype=float)
    s.trials += 1
    c_new = np.asarray(p.c.value(x_new), dtype=float)
    fg_new = float(p.f.value(x_new)) + float(p.g.value(x_new))
    step_norm, prev_gap = _norm(x_new - x), _norm(c_new - y)
    margin_i = math.sqrt(1.0 / (mu * beta_t)) * step_norm - _norm(c_new - c_x)
    lhs = fg_new + 0.5 * beta_t * prev_gap**2
    rhs = fg_x + 0.5 * beta_t * _norm(c_x - y) ** 2
    margin_ii = rhs - lhs - step_norm * step_norm / (2.0 * mu)
    tol = 1e-12 * (1.0 + abs(fg_x))
    if not (margin_i >= -tol and margin_ii >= -tol):
        s.mu, s.unsuccessful = mu * cfg.rho, s.unsuccessful + 1
        return None, (margin_i, margin_ii)
    y_new = np.asarray(p.h.prox(c_new, 1.0 / beta_t), dtype=float)
    h_y, inf_fg = float(p.h.value(y)), p.inf_fg_lower_bound
    beta_prev = beta_at(cfg.schedule, s.t - 1) if s.t >= 1 else cfg.schedule.beta0
    row = TraceRow(
        t=s.t, mu_t=mu, beta_t=beta_t, step_norm=step_norm, scaled_step=step_norm / mu,
        gap=_norm(c_new - y_new), prev_gap=prev_gap,
        residual=stationarity_residual(p, x, x_new, y, mu, beta_t, beta_prev),
        fg_value=fg_new, h_at_y=float(p.h.value(y_new)),
        H_value=fg_new + 0.5 * beta_t * prev_gap * prev_gap + h_y,
        Theta_value=None if inf_fg is None else (
            (fg_new - inf_fg) / beta_t + 0.5 * prev_gap * prev_gap + h_y / beta_t),
        unsuccessful_this_iter=s.unsuccessful,
        rel_feas=None if rel_feas is None else float(rel_feas(x_new)),
    )
    s.x, s.y, s.t, s.unsuccessful = x_new, y_new, s.t + 1, 0
    s.mu = min(cfg.mu_max, cfg.eta * mu)
    return row, (margin_i, margin_ii)

"""Stationarity residuals, rate constants, and complexity-bound checks for
solver traces.

The stationarity residual is built from the exact subgradient witnesses that
the two prox subproblems certify at an accepted step:

    psi = -grad f(x^t) - beta_t * J_c(x^t)^T (c(x^t)-y^t)
          - (2/mu_t)(x^{t+1}-x^t)            is an element of  dg(x^{t+1}),
    xi  = beta_prev * (c(x^t)-y^t)           is an element of  dh(y^t),

so ||grad f(x^{t+1}) + psi + J_c(x^t)^T xi|| upper-bounds the distance of 0 to
grad f + dg + J_c^T dh anchored at (x^{t+1}, y^t, z=x^t).
``stationarity_residual`` computes it from scratch, calling the oracles again;
it is the reference that the tests compare the solver's trace residual
against, which ``sdcam.solver`` derives from values it has already cached.
It is the first of the three distances of the paper's (eps1, eps2,
eps3)-stationarity, ``TraceRow.certifies``; the other two are the trace's
``prev_gap`` = ||c(x^{t+1}) - y^t|| and ``step_norm`` = ||x^{t+1} - x^t||.

``rate_bound_check`` evaluates, for a finished trace, the running-average and
min-style inequalities that are guaranteed to hold for the logged quantities
in three regimes: Lipschitz h, full-domain h, and bounded domains.  Any
violation indicates an implementation bug or a wrong user constant.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .oracles import Problem, Vector
from .schedule import ScheduleSpec

__all__ = [
    "stationarity_residual",
    "select_subsequence",
    "RateConstants",
    "rate_constants",
    "RateBoundReport",
    "rate_bound_check",
    "suggest_delta",
]


def stationarity_residual(
    p: Problem,
    x_t: Vector,
    x_next: Vector,
    y_t: Vector,
    mu_t: float,
    beta_t: float,
    beta_prev: float,
) -> float:
    """Norm of grad f(x^{t+1}) + psi + J_c(x^t)^T xi for the witnesses above."""
    x_t = np.asarray(x_t, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    c_t, pullback = p.c.linearize(x_t)
    d = np.asarray(c_t, dtype=float) - np.asarray(y_t, dtype=float)
    psi = (
        -np.asarray(p.f.grad(x_t), dtype=float)
        - beta_t * np.asarray(pullback(d), dtype=float)
        - (2.0 / mu_t) * (x_next - x_t)
    )
    xi_term = np.asarray(pullback(beta_prev * d), dtype=float)
    return float(np.linalg.norm(np.asarray(p.f.grad(x_next), dtype=float) + psi + xi_term))


def select_subsequence(a: Sequence[float]) -> List[int]:
    """Indices T > 1 (1-based) where the running average b_T dips below
    b_{T-1}; every returned T satisfies a_T <= b_{T-1}.  May be empty."""
    if len(a) == 0:
        raise ValueError("sequence must be non-empty")
    arr = np.asarray(a, dtype=float)
    b = np.cumsum(arr) / np.arange(1, arr.size + 1)
    return [int(T) for T in range(2, arr.size + 1) if b[T - 1] <= b[T - 2]]


def suggest_delta(eps1: float, eps2: float) -> float:
    """Schedule exponent balancing the two target tolerances:
    ln(1/eps2) / (2 ln(1/eps1) + ln(1/eps2)).  Equals 1/3 when eps1 == eps2."""
    if not (0.0 < eps1 < 1.0 and 0.0 < eps2 < 1.0):
        raise ValueError("tolerances must lie strictly in (0,1)")
    if eps1 == eps2:
        return 1.0 / 3.0
    l1 = math.log(1.0 / eps1)
    l2 = math.log(1.0 / eps2)
    return l2 / (2.0 * l1 + l2)


_PROVENANCE_USER = "user_supplied"
_PROVENANCE_COMPUTED = "computed"
_PROVENANCE_UNAVAILABLE = "unavailable"
_USER_SUPPLIED = ("L", "L_c", "M_c", "M_h", "rho", "mu_max")
_NAN = np.float64(np.nan)


@dataclasses.dataclass
class RateConstants:
    """Constants appearing in the complexity bounds; None = unavailable.

    ``provenance`` maps each field name to user_supplied/computed/unavailable.
    """

    M0: Optional[float] = None
    K0: Optional[float] = None
    M1: Optional[float] = None
    M2: Optional[float] = None
    M3: Optional[float] = None
    lambda1: Optional[float] = None
    lambda2: Optional[float] = None
    lambda3: Optional[float] = None
    lambda4: Optional[float] = None
    lambda5: Optional[float] = None
    lambda6: Optional[float] = None
    lambda7: Optional[float] = None
    lambda8: Optional[float] = None
    L: Optional[float] = None
    L_c: Optional[float] = None
    M_c: Optional[float] = None
    M_h: Optional[float] = None
    alpha0: Optional[float] = None
    gamma0: Optional[float] = None
    eta0: Optional[float] = None
    delta: Optional[float] = None
    rho: Optional[float] = None
    mu_max: Optional[float] = None
    provenance: Dict[str, str] = dataclasses.field(default_factory=dict)


_CONSTANTS = tuple(f.name for f in dataclasses.fields(RateConstants) if f.name != "provenance")


def _f64(value) -> np.float64:
    """``value`` as a float64, NaN when it is unavailable: None, not finite,
    or a zero-argument function that raises OverflowError (the schedule
    constants of a huge beta0 or K)."""
    if callable(value):
        try:
            value = value()
        except OverflowError:
            return _NAN
    value = np.float64(np.nan if value is None else value)
    return value if np.isfinite(value) else _NAN


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def rate_constants(
    p: Problem,
    s: ScheduleSpec,
    anchors,
    rho: Optional[float] = None,
    mu_max: Optional[float] = None,
    sup_abs_fg_bound: Optional[float] = None,
) -> RateConstants:
    """Fill every constant whose inputs are available; never estimates.

    ``anchors`` carries the initial-run quantities (beta0, ||c(x^0)-y^0||,
    h(y^0), f(x^1)+g(x^1), ||c(x^1)-y^0||) recorded by the solver.  An
    unavailable input is NaN, so every formula that reads it comes out NaN;
    such a constant, and one whose formula overflows, is recorded as None
    with provenance unavailable.
    """
    L = _f64(p.f.lipschitz_bound)
    L_c = _f64(p.c.jac_lipschitz_bound)
    M_c = _f64(p.c.jac_norm_bound)
    M_h = _f64(p.h_lipschitz_bound)
    alpha0 = _f64(lambda: s.alpha0)
    gamma0 = _f64(lambda: s.gamma0)
    eta0 = _f64(lambda: s.eta0)
    delta = _f64(s.delta)
    rho = _f64(rho)
    mu_max = _f64(mu_max)
    inf_fg = _f64(p.inf_fg_lower_bound)
    beta0 = _f64(anchors.beta0)
    gap0 = _f64(anchors.gap_x0_y0)
    h_y0 = _f64(anchors.h_y0)
    fg_x1 = _f64(anchors.fg_x1)
    gap1 = _f64(anchors.gap_x1_y0)

    inner = (4.0 / beta0) * (fg_x1 - inf_fg) + 2.0 * gap1**2 + (4.0 / beta0) * h_y0
    M0 = np.maximum(gap0, np.sqrt(np.maximum(inner, 0.0)))
    M1 = fg_x1 + 0.5 * beta0 * gap1**2 + h_y0 - inf_fg
    K0 = M1 + gamma0 * (1.0 + delta) * M_h**2 / (2.0 * alpha0 * beta0)
    M3 = 2.0 * _f64(sup_abs_fg_bound) + _f64(p.h_sup_on_image_bound)
    M2 = M3 * eta0 / alpha0
    lambda1 = L + (2.0**delta * gamma0 / alpha0) * M_h * L_c
    lambda2 = (
        32.0 / rho * L * M1
        + 32.0 * M1
        + 8.0 * mu_max * M1 * L**2
        + 16.0 * eta0 * M_c**2 * M2 / (1.0 - delta)
        + 4.0 * mu_max * M1
    )
    lambda3 = 32.0 / rho * L * M2 + 32.0 * M2 + 8.0 * mu_max * M2 * L**2 + 4.0 * mu_max * M2
    lambda4 = 32.0 / rho * (L_c * M0 + M_c**2) * gamma0
    lambda5 = L / rho + (L_c * M0 + M_c**2) * gamma0 / rho
    lambda6 = lambda7 = lambda8 = _NAN  # these bounds need delta < 1/2
    if s.delta < 0.5:
        lambda6 = (
            (8.0 * L**2 + 4.0) * mu_max * M1
            + 32.0 * M1
            + 8.0 * eta0**2 * M_c**2 * M0**2 / (1.0 - 2.0 * delta)
        )
        lambda7 = (
            (8.0 * L**2 + 4.0) * mu_max * M0**2 * gamma0
            + 32.0 * M0**2 * gamma0
            + 32.0 * lambda5 * M1
        )
        lambda8 = 32.0 * lambda5 * M0**2 * gamma0

    values = locals()  # each constant above is the local of the same name
    rc = RateConstants()
    for name in _CONSTANTS:
        value = values[name]
        if np.isfinite(value):
            setattr(rc, name, float(value))
            rc.provenance[name] = (
                _PROVENANCE_USER if name in _USER_SUPPLIED else _PROVENANCE_COMPUTED
            )
        else:
            rc.provenance[name] = _PROVENANCE_UNAVAILABLE
    return rc


@dataclasses.dataclass
class RateBoundReport:
    regime: str
    checkable: bool
    skipped: List[str]  # names of the inequalities that were not checked
    checked: int
    violations: List[Tuple[str, int, float, float]]  # (name, T or t, lhs, rhs)

    @property
    def passed(self) -> bool:
        return self.checkable and not self.violations


_REGIMES = ("lipschitz_h", "full_domain_h", "bounded_domains")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def rate_bound_check(trace, consts: RateConstants, regime: str) -> RateBoundReport:
    """Check the regime's guaranteed inequalities at every prefix length T.

    The sums run over accepted steps t >= 1 (the t=0 step has no schedule
    history).  The min-style aggregate bounds are checked with the logged
    residual, which is the exact witness norm the guarantees control.
    An unavailable constant is NaN here, so an inequality that reads one has
    a side that is not finite; such an inequality, and one whose bound
    overflows somewhere, is skipped and reported, never guessed.
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {_REGIMES}")

    rows = [r for r in trace if r.t >= 1]
    report = RateBoundReport(regime, False, [], 0, [])
    if not rows:
        return report

    mu = np.array([r.mu_t for r in rows])
    beta = np.array([r.beta_t for r in rows])
    step2 = np.array([r.step_norm for r in rows]) ** 2
    prev_gap = np.array([r.prev_gap for r in rows])
    resid = np.array([r.residual for r in rows])
    tt = np.array([r.t for r in rows], dtype=float)
    Tn = np.arange(1, len(rows) + 1, dtype=float)  # prefix lengths
    Tp1 = tt + 1.0

    c = dataclasses.replace(consts, **{n: _f64(getattr(consts, n)) for n in _CONSTANTS})
    d = c.delta
    curv = c.L_c * c.M0 + c.M_c**2

    def check(name: str, lhs: np.ndarray, rhs: np.ndarray, idx: np.ndarray = tt) -> None:
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            report.skipped.append(name)
            return
        report.checked += int(lhs.size)
        tol = 1e-9 * (1.0 + np.abs(rhs))
        bad = np.nonzero(lhs > rhs + tol)[0]
        for i in bad:
            report.violations.append((name, int(idx[i]), float(lhs[i]), float(rhs[i])))

    # Stepsize floor from the backtracking analysis (all regimes):
    # mu_t >= min(mu_0, rho / (L + (L_c*M0 + M_c^2)*beta_t)).  The first trial
    # at each iterate starts at or above the last accepted mu, beta_t does not
    # decrease, and a trial is rejected only above 1/(L + curv*beta_t); so
    # mu_t falls below the paper's floor only where mu_init does, and then
    # mu_0 = mu_init.
    check("mu_floor", np.minimum(c.rho / (c.L + curv * beta), trace[0].mu_t), mu)

    avg_s2_mu2 = np.cumsum(step2 / mu**2) / Tn
    avg_s2_mu = np.cumsum(step2 / mu) / Tn
    avg_s2 = np.cumsum(step2) / Tn

    if regime == "lipschitz_h":
        K0 = c.K0
        check(
            "avg_scaled2_sq",
            avg_s2_mu2,
            4.0 / c.rho * c.L * K0 / Tp1 + 4.0 / c.rho * curv * K0 * c.gamma0 / Tp1 ** (1.0 - d),
        )
        check("avg_scaled2", avg_s2_mu, 2.0 * K0 / Tn)
        check("avg_step2", avg_s2, 2.0 * c.mu_max * K0 / Tn)
        gap_rhs = 2.0 * c.M_h / (c.alpha0 * (1.0 - d) * Tp1**d) + np.sqrt(
            8.0 * K0 / (c.alpha0 * (1.0 - d) * Tp1 ** (1.0 + d))
        )
        check("avg_prev_gap", np.cumsum(prev_gap) / Tn, gap_rhs)
        # Aggregate residual bounds; the witness anchored at x^{t+1} is at
        # most residual + L_c*M_h*step_norm, which the guarantee's chain
        # dominates.
        witness = resid + c.L_c * c.M_h * np.sqrt(step2)
        upsilon = (
            6.0 * c.mu_max * K0 * c.lambda1**2 / Tn
            + 48.0 / c.rho * c.L * K0 / Tp1
            + 48.0 / c.rho * curv * K0 * c.gamma0 / Tp1 ** (1.0 - d)
            + 12.0 * c.M_h**2 * c.M_c**2 * c.eta0**2 / (c.alpha0**2 * Tp1)
        )
        check("avg_residual_sq", np.cumsum(witness**2) / Tn, upsilon)
        check("min_residual_gap", np.minimum.accumulate(witness**2 + prev_gap), upsilon + gap_rhs)
    elif regime == "full_domain_h":
        omega = c.M1 + c.M2 * (np.log(Tn) + 1.0)
        check(
            "avg_scaled2_sq",
            avg_s2_mu2,
            4.0 / c.rho * c.L * omega / Tp1
            + 4.0 / c.rho * curv * c.gamma0 * omega / Tp1 ** (1.0 - d),
        )
        check("avg_scaled2", avg_s2_mu, 4.0 * omega / Tp1)
        check("avg_step2", avg_s2, 4.0 * c.mu_max * omega / Tp1)
        check(
            "prev_gap_sq",
            prev_gap**2,
            c.M3 / (c.alpha0 * Tp1**d) + 2.0 * c.M0**2 * c.eta0 / (c.alpha0 * Tp1),
        )
        # ||c(x^t)-y^t||^2 <= 2*M3/beta_{t-1} for t >= 1: the gap column of
        # row t-1 is ||c(x^t)-y^t|| and its beta_t column is beta_{t-1}.
        check(
            "gap_sq_vs_beta",
            np.array([r.gap for r in trace]) ** 2,
            2.0 * c.M3 / np.array([r.beta_t for r in trace]),
            np.array([r.t + 1 for r in trace], dtype=float),
        )
        aver = (
            (32.0 * (c.L / c.rho + 1.0) + 8.0 * c.mu_max * c.L**2) * omega / Tp1
            + 32.0 / c.rho * curv * c.gamma0 * omega / Tp1 ** (1.0 - d)
            + 16.0 * c.eta0 * c.M_c**2 * c.M2 / ((1.0 - d) * Tp1)
        )
        check("avg_residual_sq", np.cumsum(resid**2) / Tn, aver)
        check(
            "min_residual_step_gap",
            np.minimum.accumulate(resid**2 + step2 + prev_gap**2),
            (c.lambda2 + c.lambda3 * (np.log(Tn) + 1.0)) / Tp1
            + c.lambda4 * omega / Tp1 ** (1.0 - d)
            + c.M3 / (c.alpha0 * Tp1**d)
            + 2.0 * c.M0**2 * c.eta0 / (c.alpha0 * Tp1),
        )
    else:  # bounded_domains
        check(
            "avg_scaled2_sq",
            avg_s2_mu2,
            4.0 * c.lambda5 * c.M1 / Tp1 ** (1.0 - d)
            + 4.0 * c.lambda5 * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - 2.0 * d),
        )
        check(
            "avg_scaled2",
            avg_s2_mu,
            4.0 * c.M1 / Tp1 + 4.0 * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - d),
        )
        check(
            "avg_step2",
            avg_s2,
            4.0 * c.mu_max * c.M1 / Tp1 + 4.0 * c.mu_max * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - d),
        )
        check(
            "min_residual_step",
            np.minimum.accumulate(resid**2 + step2),
            c.lambda6 / Tp1 + c.lambda7 / Tp1 ** (1.0 - d) + c.lambda8 / Tp1 ** (1.0 - 2.0 * d),
        )

    report.checkable = report.checked > 0
    return report

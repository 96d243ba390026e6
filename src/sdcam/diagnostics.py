"""Stationarity residuals, certificates, rate constants, and
complexity-bound checks for solver traces.

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
    "certificate",
    "CertificateReport",
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
    c_t = np.asarray(p.c.value(x_t), dtype=float)
    d = c_t - np.asarray(y_t, dtype=float)
    psi = (
        -np.asarray(p.f.grad(x_t), dtype=float)
        - beta_t * np.asarray(p.c.vjp(x_t, d), dtype=float)
        - (2.0 / mu_t) * (x_next - x_t)
    )
    xi_term = np.asarray(p.c.vjp(x_t, beta_prev * d), dtype=float)
    return float(np.linalg.norm(np.asarray(p.f.grad(x_next), dtype=float) + psi + xi_term))


def select_subsequence(a: Sequence[float]) -> List[int]:
    """Indices T > 1 (1-based) where the running average b_T dips below
    b_{T-1}; every returned T satisfies a_T <= b_{T-1}.  May be empty."""
    if len(a) == 0:
        raise ValueError("sequence must be non-empty")
    arr = np.asarray(a, dtype=float)
    b = np.cumsum(arr) / np.arange(1, arr.size + 1)
    return [int(T) for T in range(2, arr.size + 1) if b[T - 1] <= b[T - 2]]


@dataclasses.dataclass(frozen=True)
class CertificateReport:
    passed: bool
    d1: float
    d2: float
    d3: float


def certificate(
    p: Problem,
    x: Vector,
    y: Vector,
    z: Vector,
    psi: Vector,
    xi: Vector,
    eps1: float,
    eps2: float,
    eps3: float,
) -> CertificateReport:
    """Approximate-stationarity certificate from caller-provided subgradient
    witnesses psi in dg(x) and xi in dh(y), with the Jacobian anchored at z."""
    d1 = float(
        np.linalg.norm(
            np.asarray(p.f.grad(x), dtype=float)
            + np.asarray(psi, dtype=float)
            + np.asarray(p.c.vjp(z, xi), dtype=float)
        )
    )
    d2 = float(np.linalg.norm(np.asarray(p.c.value(x), dtype=float) - np.asarray(y)))
    d3 = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(z)))
    return CertificateReport(d1 <= eps1 and d2 <= eps2 and d3 <= eps3, d1, d2, d3)


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
    h(y^0), f(x^1)+g(x^1), ||c(x^1)-y^0||) recorded by the solver.
    """
    rc = RateConstants()
    prov = rc.provenance

    def put(name: str, value: Optional[float], tag: str) -> None:
        setattr(rc, name, value)
        prov[name] = tag if value is not None else _PROVENANCE_UNAVAILABLE

    put("L", p.f.lipschitz_bound, _PROVENANCE_USER)
    put("L_c", p.c.jac_lipschitz_bound, _PROVENANCE_USER)
    put("M_c", p.c.jac_norm_bound, _PROVENANCE_USER)
    put("M_h", p.h_lipschitz_bound, _PROVENANCE_USER)
    put("alpha0", s.alpha0, _PROVENANCE_COMPUTED)
    put("gamma0", s.gamma0, _PROVENANCE_COMPUTED)
    put("eta0", s.eta0, _PROVENANCE_COMPUTED)
    put("delta", s.delta, _PROVENANCE_COMPUTED)
    put("rho", rho, _PROVENANCE_USER)
    put("mu_max", mu_max, _PROVENANCE_USER)

    inf_fg = p.inf_fg_lower_bound
    beta0 = anchors.beta0
    have_anchor1 = anchors.fg_x1 is not None and anchors.gap_x1_y0 is not None

    if have_anchor1 and inf_fg is not None:
        inner = (
            (4.0 / beta0) * (anchors.fg_x1 - inf_fg)
            + 2.0 * anchors.gap_x1_y0**2
            + (4.0 / beta0) * anchors.h_y0
        )
        put("M0", max(anchors.gap_x0_y0, math.sqrt(max(inner, 0.0))), _PROVENANCE_COMPUTED)
        M1 = (
            anchors.fg_x1
            + 0.5 * beta0 * anchors.gap_x1_y0**2
            + anchors.h_y0
            - inf_fg
        )
        put("M1", M1, _PROVENANCE_COMPUTED)
        if rc.M_h is not None:
            put(
                "K0",
                M1 + rc.gamma0 * (1.0 + s.delta) * rc.M_h**2 / (2.0 * rc.alpha0 * beta0),
                _PROVENANCE_COMPUTED,
            )

    if p.h_sup_on_image_bound is not None and sup_abs_fg_bound is not None:
        put("M3", 2.0 * sup_abs_fg_bound + p.h_sup_on_image_bound, _PROVENANCE_COMPUTED)
        put("M2", rc.M3 * rc.eta0 / rc.alpha0, _PROVENANCE_COMPUTED)

    if rc.L is not None and rc.M_h is not None and rc.L_c is not None:
        put(
            "lambda1",
            rc.L + (2.0**s.delta * rc.gamma0 / rc.alpha0) * rc.M_h * rc.L_c,
            _PROVENANCE_COMPUTED,
        )
    have_curv = rc.L is not None and rc.L_c is not None and rc.M_c is not None
    if have_curv and rc.M0 is not None and rho is not None:
        put("lambda4", 32.0 / rho * (rc.L_c * rc.M0 + rc.M_c**2) * rc.gamma0, _PROVENANCE_COMPUTED)
        put(
            "lambda5",
            rc.L / rho + (rc.L_c * rc.M0 + rc.M_c**2) * rc.gamma0 / rho,
            _PROVENANCE_COMPUTED,
        )
    if have_curv and rc.M1 is not None and rc.M2 is not None and rho is not None and mu_max is not None:
        put(
            "lambda2",
            32.0 / rho * rc.L * rc.M1
            + 32.0 * rc.M1
            + 8.0 * mu_max * rc.M1 * rc.L**2
            + 16.0 * rc.eta0 * rc.M_c**2 * rc.M2 / (1.0 - s.delta)
            + 4.0 * mu_max * rc.M1,
            _PROVENANCE_COMPUTED,
        )
        put(
            "lambda3",
            32.0 / rho * rc.L * rc.M2
            + 32.0 * rc.M2
            + 8.0 * mu_max * rc.M2 * rc.L**2
            + 4.0 * mu_max * rc.M2,
            _PROVENANCE_COMPUTED,
        )
    if (
        have_curv
        and rc.M0 is not None
        and rc.M1 is not None
        and mu_max is not None
        and rc.lambda5 is not None
        and s.delta < 0.5
    ):
        put(
            "lambda6",
            (8.0 * rc.L**2 + 4.0) * mu_max * rc.M1
            + 32.0 * rc.M1
            + 8.0 * rc.eta0**2 * rc.M_c**2 * rc.M0**2 / (1.0 - 2.0 * s.delta),
            _PROVENANCE_COMPUTED,
        )
        put(
            "lambda7",
            (8.0 * rc.L**2 + 4.0) * mu_max * rc.M0**2 * rc.gamma0
            + 32.0 * rc.M0**2 * rc.gamma0
            + 32.0 * rc.lambda5 * rc.M1,
            _PROVENANCE_COMPUTED,
        )
        put("lambda8", 32.0 * rc.lambda5 * rc.M0**2 * rc.gamma0, _PROVENANCE_COMPUTED)

    for f in dataclasses.fields(rc):
        if f.name != "provenance" and f.name not in prov:
            prov[f.name] = _PROVENANCE_UNAVAILABLE
    return rc


@dataclasses.dataclass
class RateBoundReport:
    regime: str
    checkable: bool
    missing: List[str]  # constants whose absence skipped some inequalities
    skipped: List[str]  # names of the skipped inequalities
    checked: int
    violations: List[Tuple[str, int, float, float]]  # (name, T or t, lhs, rhs)

    @property
    def passed(self) -> bool:
        return self.checkable and not self.violations


_REGIMES = ("lipschitz_h", "full_domain_h", "bounded_domains")


def rate_bound_check(trace, consts: RateConstants, regime: str) -> RateBoundReport:
    """Check the regime's guaranteed inequalities at every prefix length T.

    The sums run over accepted steps t >= 1 (the t=0 step has no schedule
    history).  The min-style aggregate bounds are checked with the logged
    residual, which is the exact witness norm the guarantees control.
    Inequalities whose constants are unavailable are skipped and reported,
    never guessed.
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {_REGIMES}")

    rows = [r for r in trace if r.t >= 1]
    report = RateBoundReport(regime, False, [], [], 0, [])

    def have(name: str, *needs: str) -> bool:
        absent = [n for n in needs if getattr(consts, n) is None]
        if absent:
            report.skipped.append(name)
            for n in absent:
                if n not in report.missing:
                    report.missing.append(n)
            return False
        return True

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

    c = consts
    d = c.delta

    def check(name: str, lhs: np.ndarray, rhs: np.ndarray, idx: np.ndarray) -> None:
        report.checked += int(lhs.size)
        tol = 1e-9 * (1.0 + np.abs(rhs))
        bad = np.nonzero(lhs > rhs + tol)[0]
        for i in bad:
            report.violations.append((name, int(idx[i]), float(lhs[i]), float(rhs[i])))

    # Stepsize floor from the backtracking analysis (all regimes):
    # mu_t >= rho / (L + (L_c*M0 + M_c^2)*beta_t).
    if have("mu_floor", "rho", "L", "L_c", "M_c", "M0"):
        curv = c.L_c * c.M0 + c.M_c**2
        check("mu_floor", c.rho / (c.L + curv * beta), mu, tt)

    avg_s2_mu2 = np.cumsum(step2 / mu**2) / Tn
    avg_s2_mu = np.cumsum(step2 / mu) / Tn
    avg_s2 = np.cumsum(step2) / Tn

    if regime == "lipschitz_h":
        K0 = c.K0
        curv_ok = have("avg_scaled2_sq", "rho", "L", "L_c", "M_c", "M0", "K0")
        if curv_ok:
            curv = c.L_c * c.M0 + c.M_c**2
            check(
                "avg_scaled2_sq",
                avg_s2_mu2,
                4.0 / c.rho * c.L * K0 / Tp1
                + 4.0 / c.rho * curv * K0 * c.gamma0 / Tp1 ** (1.0 - d),
                tt,
            )
        if have("avg_scaled2", "K0"):
            check("avg_scaled2", avg_s2_mu, 2.0 * K0 / Tn, tt)
        if have("avg_step2", "K0", "mu_max"):
            check("avg_step2", avg_s2, 2.0 * c.mu_max * K0 / Tn, tt)
        if have("avg_prev_gap", "K0", "M_h"):
            gap_rhs = 2.0 * c.M_h / (c.alpha0 * (1.0 - d) * Tp1**d) + np.sqrt(
                8.0 * K0 / (c.alpha0 * (1.0 - d) * Tp1 ** (1.0 + d))
            )
            check("avg_prev_gap", np.cumsum(prev_gap) / Tn, gap_rhs, tt)
            # Aggregate residual bounds; the witness anchored at x^{t+1} is at
            # most residual + L_c*M_h*step_norm, which the guarantee's chain
            # dominates.
            if curv_ok and have("avg_residual_sq", "lambda1", "mu_max"):
                witness = resid + c.L_c * c.M_h * np.sqrt(step2)
                upsilon = (
                    6.0 * c.mu_max * K0 * c.lambda1**2 / Tn
                    + 48.0 / c.rho * c.L * K0 / Tp1
                    + 48.0 / c.rho * curv * K0 * c.gamma0 / Tp1 ** (1.0 - d)
                    + 12.0 * c.M_h**2 * c.M_c**2 * c.eta0**2 / (c.alpha0**2 * Tp1)
                )
                check("avg_residual_sq", np.cumsum(witness**2) / Tn, upsilon, tt)
                check(
                    "min_residual_gap",
                    np.minimum.accumulate(witness**2 + prev_gap),
                    upsilon + gap_rhs,
                    tt,
                )
    elif regime == "full_domain_h":
        omega = None
        if c.M1 is not None and c.M2 is not None:
            omega = c.M1 + c.M2 * (np.log(Tn) + 1.0)
        if omega is not None and have("avg_scaled2_sq", "rho", "L", "L_c", "M_c", "M0"):
            curv = c.L_c * c.M0 + c.M_c**2
            check(
                "avg_scaled2_sq",
                avg_s2_mu2,
                4.0 / c.rho * c.L * omega / Tp1
                + 4.0 / c.rho * curv * c.gamma0 * omega / Tp1 ** (1.0 - d),
                tt,
            )
        if have("avg_scaled2", "M1", "M2"):
            check("avg_scaled2", avg_s2_mu, 4.0 * omega / Tp1, tt)
            if have("avg_step2", "mu_max"):
                check("avg_step2", avg_s2, 4.0 * c.mu_max * omega / Tp1, tt)
        if have("prev_gap_sq", "M3", "M0"):
            check(
                "prev_gap_sq",
                prev_gap**2,
                c.M3 / (c.alpha0 * Tp1**d) + 2.0 * c.M0**2 * c.eta0 / (c.alpha0 * Tp1),
                tt,
            )
        # ||c(x^t)-y^t||^2 <= 2*M3/beta_{t-1} for t >= 1: the gap column of
        # row t-1 is ||c(x^t)-y^t|| and its beta_t column is beta_{t-1}.
        if have("gap_sq_vs_beta", "M3"):
            gaps_all = np.array([r.gap for r in trace])
            betas_all = np.array([r.beta_t for r in trace])
            check(
                "gap_sq_vs_beta",
                gaps_all**2,
                2.0 * c.M3 / betas_all,
                np.array([r.t + 1 for r in trace], dtype=float),
            )
        if omega is not None and have(
            "avg_residual_sq", "rho", "L", "L_c", "M_c", "M0", "mu_max"
        ):
            curv = c.L_c * c.M0 + c.M_c**2
            aver = (
                (32.0 * (c.L / c.rho + 1.0) + 8.0 * c.mu_max * c.L**2) * omega / Tp1
                + 32.0 / c.rho * curv * c.gamma0 * omega / Tp1 ** (1.0 - d)
                + 16.0 * c.eta0 * c.M_c**2 * c.M2 / ((1.0 - d) * Tp1)
            )
            check("avg_residual_sq", np.cumsum(resid**2) / Tn, aver, tt)
            if have("min_residual_step_gap", "lambda2", "lambda3", "lambda4", "M3"):
                check(
                    "min_residual_step_gap",
                    np.minimum.accumulate(resid**2 + step2 + prev_gap**2),
                    (c.lambda2 + c.lambda3 * (np.log(Tn) + 1.0)) / Tp1
                    + c.lambda4 * omega / Tp1 ** (1.0 - d)
                    + c.M3 / (c.alpha0 * Tp1**d)
                    + 2.0 * c.M0**2 * c.eta0 / (c.alpha0 * Tp1),
                    tt,
                )
    else:  # bounded_domains
        if have("avg_scaled2_sq", "lambda5", "M1", "M0"):
            check(
                "avg_scaled2_sq",
                avg_s2_mu2,
                4.0 * c.lambda5 * c.M1 / Tp1 ** (1.0 - d)
                + 4.0 * c.lambda5 * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - 2.0 * d),
                tt,
            )
        if have("avg_scaled2", "M1", "M0"):
            check(
                "avg_scaled2",
                avg_s2_mu,
                4.0 * c.M1 / Tp1 + 4.0 * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - d),
                tt,
            )
            if have("avg_step2", "mu_max"):
                check(
                    "avg_step2",
                    avg_s2,
                    4.0 * c.mu_max * c.M1 / Tp1
                    + 4.0 * c.mu_max * c.M0**2 * c.gamma0 / Tp1 ** (1.0 - d),
                    tt,
                )
        if have("min_residual_step", "lambda6", "lambda7", "lambda8"):
            check(
                "min_residual_step",
                np.minimum.accumulate(resid**2 + step2),
                c.lambda6 / Tp1
                + c.lambda7 / Tp1 ** (1.0 - d)
                + c.lambda8 / Tp1 ** (1.0 - 2.0 * d),
                tt,
            )

    report.checkable = report.checked > 0
    return report

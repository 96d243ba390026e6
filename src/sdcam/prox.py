"""Proximal operators and projections used by the built-in problem families.

The only nontrivial operator is the scalar prox of the lp quasi-norm power
u -> alpha*|u|^p with p in (0,1):

    prox(z) = argmin_u  (1/(2*gamma))*(u - z)^2 + alpha*|u|^p.

It is computed by a closed-form threshold test followed by a Newton iteration
from |z| (the reduced stationarity equation is convex and increasing on the
relevant branch, so Newton from the right endpoint converges monotonically),
with a golden-section fallback.  Ties between 0 and the interior stationary
point are broken toward 0 for reproducible traces.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

logger = logging.getLogger(__name__)

__all__ = [
    "LpProxParams",
    "soft_threshold",
    "prox_lp_power",
    "prox_lp_box",
    "prox_l1_box",
    "project_box",
    "lp_threshold",
]

_TIE_TOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclasses.dataclass(frozen=True)
class LpProxParams:
    """Parameters of the scalar prox of u -> alpha*|u|^p at step gamma."""

    p: float
    alpha: float
    gamma: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 100

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly in (0,1), got {self.p}")
        if self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError("alpha and gamma must be positive")
        if self.newton_tol <= 0.0 or self.newton_max_iter < 1:
            raise ValueError("invalid newton settings")


def soft_threshold(z: Vector, tau: float) -> Vector:
    """Component-wise sign(z)*max(|z|-tau, 0); the exact prox of tau*|.|."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def lp_threshold(p: float, w: float) -> float:
    """Largest |z| for which 0 still minimizes (1/2)(u-z)^2 + w*|u|^p.

    At |z| equal to this value the nonzero stationary point
    u = (2w(1-p))^(1/(2-p)) ties with 0.
    """
    base = (2.0 * w * (1.0 - p)) ** (1.0 / (2.0 - p))
    return base + w * p * base ** (p - 1.0)


def _lp_objective(u: float, a: float, w: float, p: float) -> float:
    # reduced objective (1/2)(u-a)^2 + w*u^p on u >= 0, a = |z|, w = alpha*gamma
    return 0.5 * (u - a) ** 2 + w * u**p


def _golden_section(a_lo: float, a_hi: float, a: float, w: float, p: float) -> float:
    lo, hi = a_lo, a_hi
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _lp_objective(x1, a, w, p)
    f2 = _lp_objective(x2, a, w, p)
    for _ in range(200):
        if hi - lo < 1e-15 * (1.0 + hi):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _lp_objective(x1, a, w, p)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _lp_objective(x2, a, w, p)
    return 0.5 * (lo + hi)


def prox_lp_power(z: float, params: LpProxParams) -> float:
    """Global minimizer of (1/(2*gamma))*(u-z)^2 + alpha*|u|^p (scalar).

    Returns 0 whenever 0 ties the interior stationary point to within 1e-12
    (sparsity-preferring selection from the set-valued prox).
    """
    if z == 0.0:
        return 0.0
    p, w = params.p, params.alpha * params.gamma
    s, a = math.copysign(1.0, z), abs(z)

    if a < lp_threshold(p, w):
        return 0.0

    # Newton on phi(u) = u - a + w*p*u^(p-1), convex and increasing on the
    # branch containing the larger root; started at u = a it stays above the
    # root and decreases monotonically.
    u = a
    converged = False
    for _ in range(params.newton_max_iter):
        phi = u - a + w * p * u ** (p - 1.0)
        if abs(phi) / params.gamma <= params.newton_tol:
            converged = True
            break
        dphi = 1.0 + w * p * (p - 1.0) * u ** (p - 2.0)
        u_new = u - phi / dphi
        if not (0.0 < u_new <= a) or u_new == u:
            converged = abs(phi) / params.gamma <= 1e3 * params.newton_tol
            break
        u = u_new
    if not converged:
        logger.debug("prox_lp_power: Newton fallback to golden-section (z=%r)", z)
        u_c = (w * p * (1.0 - p)) ** (1.0 / (2.0 - p))  # inflection of phi
        u = _golden_section(u_c, a, a, w, p)

    if _lp_objective(u, a, w, p) >= _lp_objective(0.0, a, w, p) - _TIE_TOL:
        return 0.0
    return s * u


def prox_lp_box(z: Vector, params: LpProxParams, r: float) -> Vector:
    """Per-coordinate minimizer of (1/(2g))(z_i-u)^2 + alpha*|u|^p over [-r, r].

    Exact via candidate enumeration: {0, sign(z_i)*r, clamped interior prox}.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    z = np.asarray(z, dtype=float)
    p, w = params.p, params.alpha * params.gamma
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        a = abs(zi)
        s = math.copysign(1.0, zi) if zi != 0.0 else 1.0
        interior = min(abs(prox_lp_power(zi, params)), r)
        best_u, best_q = 0.0, _lp_objective(0.0, a, w, p)
        for u in (r, interior):
            q = _lp_objective(u, a, w, p)
            if q < best_q - _TIE_TOL:
                best_u, best_q = u, q
        out[i] = s * best_u
    return out


def prox_l1_box(z: Vector, gamma_lambda: float, R: float) -> Vector:
    """Prox of lambda*||.||_1 + indicator of the box [-R, R]^n at step gamma,
    with gamma_lambda = gamma*lambda: soft-threshold then clamp (exact for
    this convex separable composite)."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    return np.clip(soft_threshold(z, gamma_lambda), -R, R)


def project_box(z: Vector, lo: Vector, hi: Vector) -> Vector:
    """Component-wise clamp of z onto [lo, hi] (entries may be +-inf)."""
    z = np.asarray(z, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), z.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), z.shape)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some coordinate")
    return np.minimum(np.maximum(z, lo), hi)

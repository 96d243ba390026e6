"""Proximal operators and projections used by the built-in problem families.

The only nontrivial operator is the prox of the lp quasi-norm power
u -> alpha*|u|^p with p in (0,1), element-wise on arrays:

    prox(z) = argmin_u  (1/(2*gamma))*(u - z)^2 + alpha*|u|^p.

It is computed by a closed-form threshold test followed by a Newton iteration
from |z| (the reduced stationarity equation is convex and increasing on the
relevant branch, so Newton from the right endpoint converges monotonically),
with a golden-section fallback.  Ties between 0 and the interior stationary
point are broken toward 0 for reproducible traces.  Every power is libm ``pow``
(``np.float_power`` on arrays, ``**`` on floats; never SIMD ``**`` on arrays).
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
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


@dataclasses.dataclass(frozen=True)
class LpProxParams:
    """Parameters of the prox of u -> alpha*|u|^p at step gamma."""

    p: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly in (0,1), got {self.p}")
        if self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError("alpha and gamma must be positive")


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


def _lp_objective(u, a, w: float, p: float):
    # reduced objective (1/2)(u-a)^2 + w*u^p on u >= 0, a = |z|, w = alpha*gamma
    return 0.5 * np.float_power(u - a, 2.0) + w * np.float_power(u, p)


def _golden_section(lo: float, a: float, w: float, p: float) -> float:
    # Minimizer of the reduced objective on [lo, a]; Python floats are fastest.
    def f(u: float) -> float:
        return 0.5 * (u - a) ** 2 + w * u**p

    hi = a = float(a)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if hi - lo < 1e-15 * (1.0 + hi):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def prox_lp_power(z, params: LpProxParams):
    """Global minimizer of (1/(2*gamma))*(u-z)^2 + alpha*|u|^p, element-wise.

    Takes an array of any shape (or a scalar, which gives a float).  Returns
    0 wherever 0 ties the interior stationary point to within 1e-12
    (sparsity-preferring selection from the set-valued prox).
    """
    z = np.asarray(z, dtype=float)
    p, w, gamma = params.p, params.alpha * params.gamma, params.gamma
    out = np.zeros(z.shape)
    live = ~(np.abs(z) < lp_threshold(p, w))  # NaN stays live and comes out NaN
    a = np.abs(z[live])

    # Newton on phi(u) = u - a + w*p*u^(p-1), convex and increasing on the
    # branch containing the larger root; started at u = a it stays above the
    # root and decreases monotonically; each entry stops at its own test.
    u = a.copy()
    converged = np.zeros(a.shape, dtype=bool)
    active = np.arange(a.size)
    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        ua, aa = u[active], a[active]
        phi = ua - aa + w * p * np.float_power(ua, p - 1.0)
        res = np.abs(phi) / gamma
        u_new = ua - phi / (1.0 + w * p * (p - 1.0) * np.float_power(ua, p - 2.0))
        stop = (res <= _NEWTON_TOL) | ~((0.0 < u_new) & (u_new <= aa)) | (u_new == ua)
        converged[active[stop]] = res[stop] <= 1e3 * _NEWTON_TOL  # stalls count if close
        u[active[~stop]] = u_new[~stop]
        active = active[~stop]

    u_c = (w * p * (1.0 - p)) ** (1.0 / (2.0 - p))  # inflection of phi
    for i in np.flatnonzero(~converged):
        logger.debug("prox_lp_power: Newton fallback to golden-section (|z|=%r)", a[i])
        u[i] = _golden_section(u_c, a[i], w, p)

    tie = _lp_objective(u, a, w, p) >= _lp_objective(0.0, a, w, p) - _TIE_TOL
    out[live] = np.where(tie, 0.0, np.copysign(u, z[live]))
    return float(out) if out.ndim == 0 else out


def prox_lp_box(z: Vector, params: LpProxParams, r: float) -> Vector:
    """Element-wise minimizer of (1/(2g))(z_i-u)^2 + alpha*|u|^p over [-r, r].

    Exact via candidate enumeration: {0, sign(z_i)*r, clamped interior prox}.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    z = np.asarray(z, dtype=float)
    p, w = params.p, params.alpha * params.gamma
    a = np.abs(z)
    best_u, best_q = np.zeros(z.shape), _lp_objective(0.0, a, w, p)
    for u in (np.full(z.shape, r), np.minimum(np.abs(prox_lp_power(z, params)), r)):
        q = _lp_objective(u, a, w, p)
        better = q < best_q - _TIE_TOL
        best_u, best_q = np.where(better, u, best_u), np.where(better, q, best_q)
    return np.where(z < 0.0, -best_u, best_u)


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

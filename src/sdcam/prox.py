"""Proximal operators and projections used by the built-in problem families.

The only nontrivial operator is the prox of the lp quasi-norm power
u -> alpha*|u|^p with p in (0,1), element-wise on arrays:

    prox(z) = argmin_u  (1/(2*gamma))*(u - z)^2 + alpha*|u|^p.

It is computed by a closed-form threshold test followed by a Newton iteration
from |z|, with no fallback.  The reduced stationarity equation is convex and
increasing on the relevant branch, so Newton from the right endpoint decreases
monotonically toward the root without overshooting it: an entry that stops
before its residual test is met does so because its Newton step rounds to
nothing, and its last iterate is the root to float64.  Ties between 0 and the
interior stationary point are broken toward 0 for reproducible traces.  Every
power is libm ``pow`` (``np.float_power`` on arrays, ``**`` on floats; never
SIMD ``**`` on arrays).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

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
        if not (0.0 < self.alpha < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError(
                f"alpha and gamma must be positive and finite, got {self.alpha}, {self.gamma}"
            )
        if not self.alpha * self.gamma < math.inf:
            raise ValueError(f"alpha*gamma overflows: {self.alpha} * {self.gamma}")


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
    # reduced objective (1/2)(u-a)^2 + w*u^p on u >= 0, a = |z|, w = alpha*gamma;
    # a huge |z| gives inf or NaN here, and the caller's comparisons settle it,
    # so callers evaluate it under np.errstate(over="ignore", invalid="ignore")
    return 0.5 * np.float_power(u - a, 2.0) + w * np.float_power(u, p)


def _lp_stationary(a: Vector, params: LpProxParams):
    """For a = |z| >= 0: the interior stationary point u of the reduced
    objective q (0 below the threshold), q(u) and q(0), each objective
    evaluated once.  Callers break the tie between u and 0 from these."""
    p, w, gamma = params.p, params.alpha * params.gamma, params.gamma
    # w*p*t and w*p*(p-1)*t group left to right, so the scalar products are
    # formed once and every array product keeps its bits
    wp, wpp = w * p, w * p * (p - 1.0)
    live = ~(a < lp_threshold(p, w))  # NaN stays live and comes out NaN
    al = a[live]
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN are settled by comparisons
        # Newton on phi(u) = u - a + w*p*u^(p-1), convex and increasing on the
        # branch containing the larger root; started at u = a it stays above the
        # root and decreases monotonically; each entry stops at its own test,
        # and one that stops short of the residual test keeps its last iterate.
        # An entry goes on while |phi|/gamma > tol, 0 < u_new <= a and
        # u_new != u: the exact complement of the stop test
        # |phi|/gamma <= tol or not 0 < u_new <= a or u_new == u, NaN included,
        # since a NaN phi gives a NaN u_new, which fails 0 < u_new.  The
        # entries that go on, their a and their positions in ul are carried
        # compacted from pass to pass.
        ul = al.copy()
        ua, aa, idx = al, al, np.arange(al.size)
        for _ in range(_NEWTON_MAX_ITER):
            if idx.size == 0:
                break
            phi = ua - aa + wp * np.float_power(ua, p - 1.0)
            u_new = ua - phi / (1.0 + wpp * np.float_power(ua, p - 2.0))
            keep = np.abs(phi) / gamma > _NEWTON_TOL
            keep &= 0.0 < u_new
            keep &= u_new <= aa
            keep &= u_new != ua
            ua, aa, idx = u_new[keep], aa[keep], idx[keep]
            ul[idx] = ua

        # q(0) = (1/2)(0 - a)^2 + w*0^p to the bit: 0 - a is -a but for the
        # sign of a zero, pow(-a, 2) == pow(a, 2), and adding w*0.0 = 0.0
        # (w finite) changes nothing, since the square is never -0.0
        q_0 = 0.5 * np.float_power(a, 2.0)
        q_u = np.array(q_0)  # a copy, also of a 0-d result
        q_u[live] = _lp_objective(ul, al, w, p)
    u = np.zeros(a.shape)
    u[live] = ul
    return u, q_u, q_0


def prox_lp_power(z, params: LpProxParams):
    """Global minimizer of (1/(2*gamma))*(u-z)^2 + alpha*|u|^p, element-wise.

    Takes an array of any shape (or a scalar, which gives a float).  Returns
    0 wherever 0 ties the interior stationary point to within 1e-12
    (sparsity-preferring selection from the set-valued prox).  An input of
    +-inf gives +-inf, and NaN gives NaN.
    """
    z = np.asarray(z, dtype=float)
    u, q_u, q_0 = _lp_stationary(np.abs(z), params)
    out = np.where(q_u >= q_0 - _TIE_TOL, 0.0, np.copysign(u, z))
    return float(out) if out.ndim == 0 else out


def prox_lp_box(z: Vector, params: LpProxParams, r: float) -> Vector:
    """Element-wise minimizer of (1/(2g))(z_i-u)^2 + alpha*|u|^p over [-r, r].

    Exact via candidate enumeration: {0, sign(z_i)*r, clamped interior prox}.
    Where u > r the clamped candidate is r with q(r), which cannot beat the r
    already tried, so only u <= r is tried with q(u); where the tie test picks
    0 instead of u, q(u) >= q(0) - 1e-12, so it can never win there.  Where
    q(r) and q(0) round equal, 0 and r are compared by their exact gap.
    An input of +-inf gives +-r, and NaN gives NaN.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    u, q_u, q_0 = _lp_stationary(a, params)
    with np.errstate(over="ignore", invalid="ignore"):
        q_r = _lp_objective(r, a, params.alpha * params.gamma, params.p)
        # a >= 0, so the sum is finite only if every entry is; a sum of finite
        # entries that overflows just takes the general path below
        all_finite = math.isfinite(a.sum())
    take_r = q_r < q_0 - _TIE_TOL
    tie = q_r == q_0
    if np.any(tie):
        # q(r) and q(0) round equal, or both overflow, where |z| is large next
        # to r; the exact gap q(r) - q(0) = r*(r/2 - |z|) + w*r^p settles it
        with np.errstate(over="ignore", invalid="ignore"):
            gap = r * (0.5 * r - a) + params.alpha * params.gamma * r**params.p
        take_r = np.where(tie, gap < -_TIE_TOL, take_r)
    take_u = q_u < np.where(take_r, q_r, q_0) - _TIE_TOL
    take_u &= u <= r
    best_u = np.where(take_u, u, np.where(take_r, r, 0.0))
    if all_finite:
        # best_u >= +0.0 here, and z + 0.0 turns -0.0 into +0.0, so this is
        # -best_u where z < 0 and best_u elsewhere, to the bit
        return np.copysign(best_u, z + 0.0, out=best_u)
    # at a = inf or NaN every objective value is inf or NaN, so no comparison
    # holds and 0 would stay; the clamped prox there is r or NaN
    best_u = np.where(a < np.inf, best_u, np.minimum(u, r))
    return np.where(z < 0.0, -best_u, best_u)


def prox_l1_box(z: Vector, gamma_lambda: float, R: float) -> Vector:
    """Prox of lambda*||.||_1 + indicator of the box [-R, R]^n at step gamma,
    with gamma_lambda = gamma*lambda: soft-threshold then clamp (exact for
    this convex separable composite)."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    return np.minimum(np.maximum(soft_threshold(z, gamma_lambda), -R), R)  # np.clip minus its wrapper


def project_box(z: Vector, lo: Vector, hi: Vector) -> Vector:
    """Component-wise clamp of z onto [lo, hi] (entries may be +-inf)."""
    z = np.asarray(z, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), z.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), z.shape)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some coordinate")
    return np.minimum(np.maximum(z, lo), hi)

"""Box-constrained QCQP with an lp quasi-norm penalty.

    min   (1/2) x^T Q0 x + b0^T x + alpha*||x||_p^p
    s.t.  (1/2) x^T Qi x + bi^T x + ri <= 0   (i = 1..m),   ||x||_inf <= r

mapped to the composite form with f the quadratic, g the lp penalty plus box
indicator, c the constraint functions, and h the indicator of the nonpositive
orthant.

Randomness: Philox (64-bit counter-based) keyed by SeedSequence(seed,
spawn_key=stream), with streams (0, attempt) for b0, (1, i) for the
orthogonal factor of Qi, and (2, i) for its diagonal.  Instances are
bit-reproducible given (seed, params) and portable across platforms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..oracles import MapOracle, Problem, ProxOracle, SmoothOracle, Vector
from ..prox import LpProxParams, prox_lp_box, prox_lp_power

__all__ = [
    "QcqpInstance",
    "qcqp_generate",
    "qcqp_problem",
    "qcqp_initial_point",
    "relative_feasibility",
]


@dataclasses.dataclass
class QcqpInstance:
    n: int
    m: int
    Q0: np.ndarray  # (n, n), identity by construction
    b0: np.ndarray  # (n,)
    Q: np.ndarray  # (m, n, n), each PSD
    bi: np.ndarray  # (m, n), zeros by construction
    ri: np.ndarray  # (m,), all negative
    alpha: float
    p: float
    r: float
    scale0: float
    seed: int
    xbar: np.ndarray  # reference minimizer used to set ri and r


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def qcqp_generate(
    seed: int,
    n: int,
    m: int,
    alpha: float = 0.05,
    p: float = 0.8,
    scale0: float = 5.0,
) -> QcqpInstance:
    """Random instance: Q0 = I, b0 ~ scale0*N(0,I), Qi = Ui Di Ui^T with Ui
    from QR of a Gaussian matrix and Di uniform on [0,5]; the reference point
    xbar minimizes (1/2)||x+b0||^2 + alpha*||x||_p^p (the lp prox of -b0 at
    unit step), and ri = -(1/4) xbar^T Qi xbar, r = ||xbar||_inf.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if m < 1:
        raise ValueError("m >= 1 required")

    params = LpProxParams(p=p, alpha=alpha, gamma=1.0)
    b0 = xbar = None
    for attempt in range(10):
        b0 = scale0 * _stream(seed, 0, attempt).standard_normal(n)
        xbar = prox_lp_power(-b0, params)
        if np.any(xbar != 0.0):
            break
    else:
        raise RuntimeError("xbar degenerate (all zero) after 10 attempts; r would be 0")

    Q = np.empty((m, n, n))
    for i in range(m):
        G = _stream(seed, 1, i).standard_normal((n, n))
        U, _ = np.linalg.qr(G)
        D = _stream(seed, 2, i).uniform(0.0, 5.0, n)
        Qi = (U * D) @ U.T
        Q[i] = 0.5 * (Qi + Qi.T)

    ri = -0.25 * np.einsum("ijk,j,k->i", Q, xbar, xbar)
    if np.any(ri >= 0.0):
        raise RuntimeError("degenerate instance: some ri >= 0")
    return QcqpInstance(
        n=n,
        m=m,
        Q0=np.eye(n),
        b0=b0,
        Q=Q,
        bi=np.zeros((m, n)),
        ri=ri,
        alpha=alpha,
        p=p,
        r=float(np.max(np.abs(xbar))),
        scale0=scale0,
        seed=seed,
        xbar=xbar,
    )


def _constraints(inst: QcqpInstance, x: Vector) -> Vector:
    """The constraint values (1/2) x^T Qi x + bi^T x + ri, i = 1..m."""
    return 0.5 * np.einsum("ijk,j,k->i", inst.Q, x, x) + inst.bi @ x + inst.ri


def qcqp_problem(inst: QcqpInstance) -> Problem:
    """Composite-problem bundle with analytic constants attached."""
    Q0, b0, Q, bi = inst.Q0, inst.b0, inst.Q, inst.bi
    alpha, p, r = inst.alpha, inst.p, inst.r

    def f_value(x: Vector) -> float:
        return float(0.5 * x @ (Q0 @ x) + b0 @ x)

    def f_grad(x: Vector) -> Vector:
        return Q0 @ x + b0

    def g_value(x: Vector) -> float:
        if np.any(np.abs(x) > r):
            return float("inf")
        return float(alpha * np.sum(np.abs(x) ** p))

    def g_prox(z: Vector, gamma: float) -> Vector:
        return prox_lp_box(z, LpProxParams(p=p, alpha=alpha, gamma=gamma), r)

    def c_value(x: Vector) -> Vector:
        return _constraints(inst, x)

    def c_vjp(x: Vector, w: Vector) -> Vector:
        return np.einsum("i,ijk,k->j", w, Q, x) + w @ bi

    def h_value(y: Vector) -> float:
        return 0.0 if np.all(y <= 0.0) else float("inf")

    def h_prox(z: Vector, gamma: float) -> Vector:
        return np.minimum(z, 0.0)

    spec_norms = np.array([np.linalg.norm(Qi, 2) for Qi in Q])
    L_c = float(np.sqrt(np.sum(spec_norms**2)))
    M_c = float(inst.r * np.sqrt(inst.n) * L_c)

    # Lower bound on inf {f+g}: the box-constrained quadratic is separable
    # (Q0 = I), and the lp penalty is bounded below by -alpha*n*r^p... it is
    # nonnegative, so subtracting alpha*n*r^p only loosens the bound.
    x_free = np.clip(-b0, -r, r)
    inf_fg_lb = float(np.sum(0.5 * x_free**2 + b0 * x_free) - alpha * inst.n * r**p)

    return Problem(
        f=SmoothOracle(f_value, f_grad, lipschitz_bound=float(np.linalg.norm(Q0, 2))),
        g=ProxOracle(g_value, g_prox),
        h=ProxOracle(h_value, h_prox),
        c=MapOracle(c_value, c_vjp, jac_lipschitz_bound=L_c, jac_norm_bound=M_c),
        n=inst.n,
        m=inst.m,
        inf_fg_lower_bound=inf_fg_lb,
    )


def qcqp_initial_point(inst: QcqpInstance):
    """Default start: -b0 projected onto the box (so g is finite), y0 = 0."""
    x0 = np.clip(-inst.b0, -inst.r, inst.r)
    return x0, np.zeros(inst.m)


def relative_feasibility(inst: QcqpInstance, x: Vector) -> float:
    """Norm of the positive constraint violations scaled by max(|ri|, 1)."""
    cx = _constraints(inst, x)
    return float(np.linalg.norm(np.maximum(cx, 0.0) / np.maximum(np.abs(inst.ri), 1.0)))

"""MIMO signal detection with PSK phase structure.

    min_{(r,theta) in [r_lo,1]^n x R^n}
        (1/2)||yhat - A*phi(r,theta)||^2 + lambda1*sum_i gamma(r_i)
        + lambda2*||sin(p_psk*theta/2)||_1

with phi(r,theta) = [r.*cos(theta); r.*sin(theta)] and gamma(t) = 1/t for
t >= r_lo, extended linearly (C^1) below r_lo.  Composite mapping: f is the
data fit plus the gamma barrier, g the box indicator, c = sin(p_psk*theta/2)
(diagonal Jacobian in the theta block), h = lambda2*||.||_1.

Where min(r) >= r_lo, which holds at every point the solver evaluates f at
(g.prox lands in the box), f sums 1/r, which is gamma(r) to the bit.  The C^1
extension is evaluated only off the box, where check_gradient's central
differences may land.  The problem holds no mutable state, so several threads
may evaluate one problem at once.

The map's ``linearize`` makes one pass: it forms p_psk*theta/2 once per
point and returns sin of it with a pullback that closes over it, so a trial
makes one map pass and the accepted step's pullback adds one cos.

Randomness: Philox streams (0,) for A, (1,) for the PSK ground truth,
(2,) for the observation noise.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from ..oracles import MapOracle, Problem, ProxOracle, Pullback, SmoothOracle, Vector
from ..prox import soft_threshold

__all__ = [
    "MimoInstance",
    "mimo_generate",
    "mimo_problem",
    "mimo_initial_point",
    "mimo_sup_abs_fg",
]


def _check_params(n: int, m: int, p_psk: int, r_lo: float) -> None:
    """The parameter checks of ``mimo_generate``, which every instance passes."""
    if n < 1 or m < 1:
        raise ValueError("n, m >= 1 required")
    if p_psk < 2:
        raise ValueError("p_psk >= 2 required")
    if not (0.0 < r_lo <= 1.0):
        raise ValueError("r_lo must lie in (0,1]")


@dataclasses.dataclass
class MimoInstance:
    n: int
    m: int
    A: np.ndarray  # (2m, 2n)
    yhat: np.ndarray  # (2m,)
    p_psk: int
    lambda1: float
    lambda2: float
    r_lo: float
    seed: int

    def __post_init__(self) -> None:
        _check_params(self.n, self.m, self.p_psk, self.r_lo)
        for name in ("A", "yhat"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def phi(r: Vector, theta: Vector) -> Vector:
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])


def mimo_generate(
    seed: int,
    n: int,
    m: int,
    p_psk: int = 4,
    lambda1: float = 0.05,
    lambda2: float = 0.05,
    r_lo: float = 0.5,
) -> MimoInstance:
    """A ~ N(0,1)/sqrt(2m); observations from a unit-amplitude ground truth
    on the PSK phase grid plus 0.05-level Gaussian noise."""
    _check_params(n, m, p_psk, r_lo)
    A = _stream(seed, 0).standard_normal((2 * m, 2 * n)) / math.sqrt(2 * m)
    k = _stream(seed, 1).integers(0, p_psk, n)
    theta_star = 2.0 * math.pi * k / p_psk
    yhat = A @ phi(np.ones(n), theta_star) + 0.05 * _stream(seed, 2).standard_normal(2 * m)
    return MimoInstance(
        n=n, m=m, A=A, yhat=yhat, p_psk=p_psk, lambda1=lambda1, lambda2=lambda2,
        r_lo=r_lo, seed=seed,
    )


def _gamma(t: np.ndarray, r_lo: float) -> np.ndarray:
    # 1/t above r_lo, C^1 linear extension below; the min term is 0 above r_lo
    return 1.0 / np.maximum(t, r_lo) - np.minimum(t - r_lo, 0.0) / r_lo**2


def _gamma_prime(t: np.ndarray, r_lo: float) -> np.ndarray:
    return np.where(t >= r_lo, -1.0 / np.maximum(t, r_lo) ** 2, -1.0 / r_lo**2)


def _norms(inst: MimoInstance) -> tuple[float, float]:
    """(||A||, E) with E = sqrt(n)*||A|| + ||yhat||, a bound on the residual
    norm ||A*phi(r,theta) - yhat|| over the box."""
    normA = float(np.linalg.norm(inst.A, 2))
    return normA, math.sqrt(inst.n) * normA + float(np.linalg.norm(inst.yhat))


def mimo_problem(inst: MimoInstance) -> Problem:
    """Composite bundle over x = (r, theta) in R^{2n}; the constraint map
    lands in R^n."""
    n = inst.n
    A, yhat = inst.A, inst.yhat
    lam1, lam2, r_lo, ppsk = inst.lambda1, inst.lambda2, inst.r_lo, float(inst.p_psk)

    lo = np.concatenate([np.full(n, r_lo), np.full(n, -np.inf)])
    hi = np.concatenate([np.ones(n), np.full(n, np.inf)])
    # the ufunc reductions behind .min(), .max() and .sum(), minus their wrappers;
    # likewise ndarray.dot makes the BLAS call of @ with less overhead
    vmin, vmax, vsum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

    def f_value(x: Vector) -> float:
        r, theta = x[:n], x[n:]
        e = A.dot(phi(r, theta)) - yhat
        # in the box _gamma(r) is 1/r to the bit; NaN fails the test and takes _gamma
        barrier = 1.0 / r if vmin(r) >= r_lo else _gamma(r, r_lo)
        return float(0.5 * e.dot(e) + lam1 * vsum(barrier))

    def f_grad(x: Vector) -> Vector:
        r, theta = x[:n], x[n:]
        ct, st = np.cos(theta), np.sin(theta)
        e = A.dot(np.concatenate([r * ct, r * st])) - yhat
        ate = A.T.dot(e)
        u, v = ate[:n], ate[n:]
        grad_r = ct * u + st * v + lam1 * _gamma_prime(r, r_lo)
        grad_theta = -r * st * u + r * ct * v
        return np.concatenate([grad_r, grad_theta])

    def g_value(x: Vector) -> float:
        r = x[:n]
        return 0.0 if vmin(r) >= r_lo and vmax(r) <= 1.0 else math.inf  # NaN gives inf

    def g_prox(z: Vector, gamma: float) -> Vector:
        # project_box without its checks; initial_state's g(x0) < inf gives lo <= hi
        return np.minimum(np.maximum(z, lo), hi)

    def c_linearize(x: Vector) -> Tuple[Vector, Pullback]:
        # arg is a fresh array, so the pullback needs no copy of x
        arg = 0.5 * ppsk * x[n:]

        def pullback(w: Vector) -> Vector:
            out = np.zeros(2 * n)
            out[n:] = 0.5 * ppsk * np.cos(arg) * w
            return out

        return np.sin(arg), pullback

    def h_value(y: Vector) -> float:
        return float(lam2 * vsum(np.abs(y)))

    def h_prox(z: Vector, gamma: float) -> Vector:
        return soft_threshold(z, gamma * lam2)

    # Gradient-Lipschitz bound on the box closure (valid, deliberately loose):
    # ||J_phi|| <= 1 since J_phi^T J_phi = diag(1,...,1, r^2) with r <= 1; the
    # residual norm is at most E; the curvature of phi contributes
    # per-coordinate 2x2 blocks of norm <= 2*sqrt(2)*||A^T e||; the barrier
    # contributes 2*lam1/r_lo^3.
    normA, E = _norms(inst)
    L = normA**2 + 2.0 * math.sqrt(2.0) * normA * E + 2.0 * lam1 / r_lo**3

    return Problem(
        f=SmoothOracle(f_value, f_grad, lipschitz_bound=L),
        g=ProxOracle(g_value, g_prox),
        h=ProxOracle(h_value, h_prox),
        c=MapOracle(
            linearize=c_linearize, jac_lipschitz_bound=ppsk**2 / 4.0, jac_norm_bound=ppsk / 2.0
        ),
        n=2 * n,
        m=n,
        inf_fg_lower_bound=lam1 * n,  # gamma >= gamma(1) = 1 on [r_lo, 1]
        h_lipschitz_bound=lam2 * math.sqrt(n),
        h_sup_on_image_bound=lam2 * n,  # |sin| <= 1 coordinate-wise
    )


def mimo_sup_abs_fg(inst: MimoInstance) -> float:
    """Bound on sup |f+g| over the box: data fit <= E^2/2, barrier <= n/r_lo."""
    _, E = _norms(inst)
    return 0.5 * E**2 + inst.lambda1 * inst.n / inst.r_lo


def mimo_initial_point(inst: MimoInstance):
    """Unit amplitudes, zero phases; y0 = c(x0) = 0."""
    x0 = np.concatenate([np.ones(inst.n), np.zeros(inst.n)])
    return x0, np.zeros(inst.n)

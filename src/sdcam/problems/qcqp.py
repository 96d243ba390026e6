"""Box-constrained QCQP with an lp quasi-norm penalty.

    min   (1/2) x^T Q0 x + b0^T x + alpha*||x||_p^p
    s.t.  (1/2) x^T Qi x + bi^T x + ri <= 0   (i = 1..m),   ||x||_inf <= r

mapped to the composite form with f the quadratic, g the lp penalty plus box
indicator, c the constraint functions, and h the indicator of the nonpositive
orthant.

Map constants, with Qs = [Q_1; ...; Q_m] the stacked blocks: L_c = ||Qs||_2,
since J_c(x) - J_c(x') has rows (Q_i d)^T, d = x - x', so its norm is at most
||Qs d|| <= L_c ||d||; M_c = r*sqrt(n)*L_c + ||bi||_F, since on the box
||J_c(x)||_2 <= ||Qs x|| + ||bi||_2.  The pullback of c at x also offers
jvp(d) = J_c(x) d from the same product Qi x; the map's ``jvp_slack`` bounds,
on the whole box, the rounding error of the solver's Taylor-bound rejection,
which uses the jvp with L_c.

Randomness: Philox (64-bit counter-based) keyed by SeedSequence(seed,
spawn_key=stream), with streams (0, attempt) for b0, (1, i) for the
orthogonal factor of Qi, and (2, i) for its diagonal.  Generation draws,
factors and symmetrizes the blocks in one loop on the calling thread.
Instances are bit-reproducible given (seed, params) and the OpenBLAS kernel
set.  ``b0`` is a Philox draw times ``scale0``, so it is bit-portable.  ``Q``
and ``ri`` pass through QR and matrix products, which OpenBLAS sums in an
order that its kernel set picks, so across kernel sets they agree only to
rounding; the pinned digests in the tests were recorded on SkylakeX.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Tuple

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


def _check_params(n: int, m: int) -> None:
    """The parameter checks of ``qcqp_generate``, which every instance passes."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if m < 1:
        raise ValueError("m >= 1 required")


@dataclasses.dataclass
class QcqpInstance:
    n: int
    m: int
    Q0: np.ndarray  # (n, n), the identity: f and inf_fg_lower_bound rely on it
    b0: np.ndarray  # (n,)
    Q: np.ndarray  # (m, n, n), each PSD and exactly symmetric: _linearize relies on it
    bi: np.ndarray  # (m, n), zeros by construction
    ri: np.ndarray  # (m,), all negative
    alpha: float
    p: float
    r: float
    scale0: float
    seed: int
    xbar: np.ndarray  # reference minimizer used to set ri and r

    def __post_init__(self) -> None:
        _check_params(self.n, self.m)
        if not np.array_equal(self.Q0, np.eye(self.n)):
            raise ValueError("Q0 must be the n x n identity")
        for name in ("b0", "bi", "xbar"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # ||Q||_F, a scale of ``_jvp_slack``, is finite exactly when every
        # entry of Q is, unless the sum of squares overflows
        q_norm = float(np.linalg.norm(self.Q))
        if not math.isfinite(q_norm):
            raise ValueError(f"Q must be finite, with a finite ||Q||_F, got {q_norm}")
        if not np.array_equal(self.Q, self.Q.transpose(0, 2, 1)):
            raise ValueError("each Q block must be exactly symmetric")
        # g's parameters, checked once here rather than mid-run by g.prox
        LpProxParams(p=self.p, alpha=self.alpha, gamma=1.0)
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not np.all(np.isfinite(self.ri) & (self.ri < 0.0)):
            raise RuntimeError("degenerate instance: some ri >= 0 or not finite")
        # (bytes of x, c(x)) at the last point ``_linearize`` saw, so that
        # ``relative_feasibility`` at an accepted trial point makes no second
        # ``Q`` product.  An attribute, not a field: equality, ``repr``,
        # ``dataclasses.replace`` and instance files do not see it.
        self._c_at: Tuple[bytes, Vector] = (b"", np.empty(0))


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
    _check_params(n, m)
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
    # each block's temporaries go before the next block's are made: that
    # lowers a qcqp-200x20 benchmark run's peak memory by about 0.75 MiB
    for i in range(m):
        U = np.linalg.qr(_stream(seed, 1, i).standard_normal((n, n)))[0]
        Qi = (U * _stream(seed, 2, i).uniform(0.0, 5.0, n)) @ U.T
        del U
        np.add(Qi, Qi.T, out=Q[i])
        Q[i] *= 0.5  # the bits of 0.5 * (Qi + Qi.T)
        del Qi

    ri = -0.25 * np.einsum("ijk,j,k->i", Q, xbar, xbar)
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


class _Pullback:
    """w -> J_c(x)^T w and jvp(d) = J_c(x) d from Qx[i] = Qi x; row i of J_c(x)
    is (Qi x + bi)^T because each Qi is symmetric."""

    __slots__ = ("Qx", "bi")

    def __init__(self, Qx: np.ndarray, bi: np.ndarray) -> None:
        self.Qx, self.bi = Qx, bi

    def __call__(self, w: Vector) -> Vector:
        return w @ self.Qx + w @ self.bi

    def jvp(self, d: Vector) -> Vector:
        return self.Qx @ d + self.bi @ d


def _jvp_slack(inst: QcqpInstance) -> float:
    """A bound on how far rounding can lift the solver's computed Taylor bound
    ||r + J_c(x) d|| - (L_c/2)||d||^2 above its computed ||c(x') - c(z)||, less
    the (m + 4)*u*||r|| the solver adds, for every x, x', z in the box,
    d = x' - x and r the computed c(x) - c(z); r = 0 when z = x.

    With F = ||Q||_F, B = ||bi||_F, R = ||ri|| and box = sqrt(n)*r >= ||w||
    for w in the box, the computed c(w) is within g*(F*box^2 + B*box + R) of
    c(w): each dot product errs by at most n*u times its sum of absolute
    products, in any order of summation, and |w|^T |Qi| |w| <= ||Qi||_F ||w||^2.
    Likewise the computed J_c(x) d is within g*(F*box + B)||d|| of J_c(x) d,
    and ||d|| <= 2*box.  The difference, the norms and the L_c term (L_c <= F)
    add twice the errors of c(x), c(x') and the jvp, and g*F*||d||^2: in all,
    4*g*(3*F*box^2 + 2*B*box + R).  g = 2*(2n + m + 8)*u, with u = 2^-53,
    covers every rounding step with room to spare.

    For z other than x, the solver's (m + 4)*u*||r|| covers the rest as far as
    it scales with ||r|| (see ``sdcam.solver.step``); the sum r + J_c(x) d and
    its norm add (m/2 + 2)*u*||J_c(x) d|| more to first order, which is inside
    g*(F*box + B)||d||, since g >= 2*(m + 4)*u."""
    F, B, R = (float(np.linalg.norm(a)) for a in (inst.Q, inst.bi, inst.ri))
    box = math.sqrt(inst.n) * inst.r
    g = 2.0 * (2 * inst.n + inst.m + 8) * 2.0**-53
    return 4.0 * g * (3.0 * F * box * box + 2.0 * B * box + R)


def _linearize(inst: QcqpInstance, x: Vector) -> Tuple[Vector, _Pullback]:
    """The constraint values (1/2) x^T Qi x + bi^T x + ri, i = 1..m, and their
    pullback, from one matrix product Qx[i] = Qi x.  Records c(x) under the
    bytes of x for ``relative_feasibility``."""
    x = np.asarray(x, dtype=float)
    Qx = (inst.Q.reshape(-1, inst.n) @ x).reshape(inst.m, inst.n)
    bi = inst.bi
    c_x = 0.5 * (Qx @ x) + bi @ x + inst.ri
    inst._c_at = (x.tobytes(), c_x.copy())  # one assignment: a racing reader sees a whole pair
    return c_x, _Pullback(Qx, bi)


def qcqp_problem(inst: QcqpInstance) -> Problem:
    """Composite-problem bundle with analytic constants attached.  Q0 = I, so
    f(x) = (1/2)||x||^2 + b0^T x with gradient x + b0 and Lipschitz constant 1.
    L_c = ||[Q_1; ...; Q_m]||_2 bounds ||J_c(x) - J_c(x')||_2 / ||x - x'||, and
    M_c = r*sqrt(n)*L_c + ||bi||_F bounds ||J_c(x)||_2 on the box."""
    b0 = inst.b0
    alpha, p, r = inst.alpha, inst.p, inst.r

    def f_value(x: Vector) -> float:
        return float(0.5 * x @ x + b0 @ x)

    def f_grad(x: Vector) -> Vector:
        return x + b0

    def g_value(x: Vector) -> float:
        if np.any(np.abs(x) > r):
            return float("inf")
        return float(alpha * np.sum(np.abs(x) ** p))

    def g_prox(z: Vector, gamma: float) -> Vector:
        return prox_lp_box(z, LpProxParams(p=p, alpha=alpha, gamma=gamma), r)

    def h_value(y: Vector) -> float:
        return 0.0 if np.all(y <= 0.0) else float("inf")

    def h_prox(z: Vector, gamma: float) -> Vector:
        return np.minimum(z, 0.0)

    # ||Qs||_2 from one eigendecomposition of the n x n Gram matrix Qs^T Qs
    Qs = inst.Q.reshape(-1, inst.n)
    L_c = float(np.sqrt(np.linalg.eigvalsh(Qs.T @ Qs)[-1]))
    M_c = float(inst.r * np.sqrt(inst.n) * L_c + np.linalg.norm(inst.bi))

    # Lower bound on inf {f+g}: the box-constrained quadratic is separable
    # (Q0 = I, which the instance enforces), and the lp penalty is
    # nonnegative, so subtracting alpha*n*r^p only loosens the bound.
    x_free = np.clip(-b0, -r, r)
    inf_fg_lb = float(np.sum(0.5 * x_free**2 + b0 * x_free) - alpha * inst.n * r**p)

    return Problem(
        f=SmoothOracle(f_value, f_grad, lipschitz_bound=1.0),
        g=ProxOracle(g_value, g_prox),
        h=ProxOracle(h_value, h_prox),
        c=MapOracle(
            linearize=functools.partial(_linearize, inst),
            jac_lipschitz_bound=L_c,
            jac_norm_bound=M_c,
            jvp_slack=_jvp_slack(inst),
        ),
        n=inst.n,
        m=inst.m,
        inf_fg_lower_bound=inf_fg_lb,
    )


def qcqp_initial_point(inst: QcqpInstance):
    """Default start: -b0 projected onto the box (so g is finite), y0 = 0."""
    x0 = np.clip(-inst.b0, -inst.r, inst.r)
    return x0, np.zeros(inst.m)


def relative_feasibility(inst: QcqpInstance, x: Vector) -> float:
    """Norm of the positive constraint violations scaled by max(|ri|, 1).

    Takes c(x) from the last ``_linearize`` call when it saw the same bytes of
    x (the solver's accepted trial point), else computes it from scratch."""
    x = np.asarray(x, dtype=float)
    key, cx = inst._c_at
    if key != x.tobytes():
        cx = _linearize(inst, x)[0]
    return float(np.linalg.norm(np.maximum(cx, 0.0) / np.maximum(np.abs(inst.ri), 1.0)))

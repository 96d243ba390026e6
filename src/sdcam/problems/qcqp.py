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
jvp(d) = J_c(x) d from the same product Qi x, and ``jvp_slack``, a bound on
the rounding error of the solver's Taylor-bound rejection, which uses both
with L_c.

Randomness: Philox (64-bit counter-based) keyed by SeedSequence(seed,
spawn_key=stream), with streams (0, attempt) for b0, (1, i) for the
orthogonal factor of Qi, and (2, i) for its diagonal.  Instances are
bit-reproducible given (seed, params) and portable across platforms.  The
calling thread and a helper thread, started and joined by each generation,
each take the next block index from one shared iterator and draw, factor and
symmetrize that block, with the streams and operations of a serial loop.
Meanwhile NumPy's OpenBLAS is held to one thread, so that its own workers do
not compete with the two threads for the cores; BLAS calls made meanwhile by
other threads of the process also run on one thread.  A generation that
finds another one on two threads, or runs in a process without a second
core (a CPU affinity of fewer than two CPUs, or a ``multiprocessing``
worker), factors every block on the calling thread alone and never waits.
So a one-thread BLAS pin does not hold a single process to one core; CPU
affinity does.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys
import threading
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
        # ||Q||_F is one of the scales below; it is finite exactly when every
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
        # ||Q||_F, ||bi||_F, ||ri|| and sqrt(n)*r, the scales of ``_jvp_slack``
        self._scales = (
            q_norm, float(np.linalg.norm(self.bi)),
            float(np.linalg.norm(self.ri)), math.sqrt(self.n) * self.r,
        )


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _draw(seed: int, n: int, i: int) -> Tuple[np.ndarray, np.ndarray]:
    """Block i's Gaussian matrix (stream (1, i)) and diagonal (stream (2, i))."""
    return _stream(seed, 1, i).standard_normal((n, n)), _stream(seed, 2, i).uniform(0.0, 5.0, n)


def _factor_blocks(seed: int, n: int, blocks, Q: np.ndarray) -> None:
    """Q[i] = sym(Ui Di Ui^T) for each index i taken from ``blocks``, an
    iterator that the calling thread and the helper may share.  Each temporary
    goes as soon as it has been used, so that neither thread's malloc arena
    keeps a block's worth.
    On an error the iterator is drained, so that the other thread stops
    after its current block."""
    try:
        for i in blocks:
            G, D = _draw(seed, n, i)
            U = np.linalg.qr(G)[0]
            del G
            Qi = (U * D) @ U.T
            del U
            np.add(Qi, Qi.T, out=Q[i])
            Q[i] *= 0.5  # the bits of 0.5 * (Qi + Qi.T)
            del Qi
    except BaseException:
        for _ in blocks:
            pass
        raise


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) for the OpenBLAS that NumPy's wheel ships: its get and set
    thread-count functions, or None where there is none."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


def _set_blas_threads(threads: int) -> int:
    """Set OpenBLAS's thread count, which is process-wide, and return the
    count it had; ``threads`` where NumPy has no OpenBLAS."""
    fns = _openblas()
    if fns is None:
        return threads
    had = fns[0]()
    if had != threads:
        fns[1](threads)
    return had


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
    # this thread and the helper take block indices from one iterator; the
    # draws, QRs and products release the GIL
    factor = functools.partial(_factor_blocks, seed, n, iter(range(m)), Q)
    if not _on_two_threads(factor):
        factor()

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
    is (Qi x + bi)^T because each Qi is symmetric.  ``jvp_slack`` is
    ``_jvp_slack`` at x."""

    __slots__ = ("Qx", "bi", "jvp_slack")

    def __init__(self, Qx: np.ndarray, bi: np.ndarray, jvp_slack: float) -> None:
        self.Qx, self.bi, self.jvp_slack = Qx, bi, jvp_slack

    def __call__(self, w: Vector) -> Vector:
        return w @ self.Qx + w @ self.bi

    def jvp(self, d: Vector) -> Vector:
        return self.Qx @ d + self.bi @ d


def _jvp_slack(inst: QcqpInstance, x: Vector) -> float:
    """A bound on how far rounding can lift the solver's computed Taylor bound
    ||r + J_c(x) d|| - (L_c/2)||d||^2 above its computed ||c(x') - c(z)||, less
    the (m + 4)*u*||r|| the solver adds, for every x', z in the box, d = x' - x
    and r the computed c(x) - c(z); r = 0 when z = x.

    With F = ||Q||_F, B = ||bi||_F and R = ||ri||, the computed c(w) is within
    g*(F||w||^2 + B||w|| + R) of c(w): each dot product errs by at most n*u
    times its sum of absolute products, in any order of summation, and
    |w|^T |Qi| |w| <= ||Qi||_F ||w||^2.  Likewise the computed J_c(x) d is
    within g*(F||x|| + B)||d|| of J_c(x) d.  The difference, the norms and the
    L_c term (L_c <= F) add errors of the same scales.  On the box,
    ||x'|| <= sqrt(n)*r and ||d|| <= ||x|| + sqrt(n)*r; g = 2*(2n + m + 8)*u,
    with u = 2^-53, covers every rounding step with room to spare.

    For z other than x, the solver's (m + 4)*u*||r|| covers the rest as far as
    it scales with ||r|| (see ``sdcam.solver.step``); the sum r + J_c(x) d and
    its norm add (m/2 + 2)*u*||J_c(x) d|| more to first order, which is inside
    g*(F||x|| + B)||d||, since g >= 2*(m + 4)*u."""
    F, B, R, box = inst._scales
    xn = math.sqrt(x @ x)
    dn = xn + box
    e_x, e_box = F * xn * xn + B * xn + R, F * box * box + B * box + R
    g = 2.0 * (2 * inst.n + inst.m + 8) * 2.0**-53
    return g * (2.0 * (e_x + e_box) + 2.0 * (F * xn + B) * dn + F * dn * dn)


# held while a generation runs on two threads; a generation that finds it
# held runs on the calling thread alone and never waits
_hold = threading.Lock()


def _on_two_threads(fn) -> bool:
    """Run ``fn`` on the calling thread and on a helper thread at once, both
    with OpenBLAS on one thread, join the helper and return True; an error of
    either reaches the caller.  Return False, without calling ``fn``, where
    ``_hold`` is taken, where the helper cannot start, or where the process
    has no second core: a CPU affinity of fewer than two CPUs, or a worker
    that ``multiprocessing`` started.  A pool, like that of
    ``sdcam run --sweep``, runs about one worker per CPU, so no core is idle
    for a helper."""
    mp = sys.modules.get("multiprocessing")
    if (
        mp is not None and mp.parent_process() is not None
        or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
        or not _hold.acquire(blocking=False)
    ):
        return False
    errors = []

    def helper() -> None:
        try:
            fn()
        except BaseException as exc:  # raised on the caller below
            errors.append(exc)

    blas = _set_blas_threads(1)
    try:
        thread = threading.Thread(target=helper, name="sdcam-qcqp-helper")
        try:
            thread.start()
        except RuntimeError:  # no thread to be had
            return False
        try:
            fn()
        finally:
            thread.join()
    finally:
        _set_blas_threads(blas)
        _hold.release()
    if errors:
        raise errors.pop()  # pop: a list holding it would pin this frame, and Q, in a cycle
    return True


def _linearize(inst: QcqpInstance, x: Vector) -> Tuple[Vector, _Pullback]:
    """The constraint values (1/2) x^T Qi x + bi^T x + ri, i = 1..m, and their
    pullback, from one matrix product Qx[i] = Qi x.  Records c(x) under the
    bytes of x for ``relative_feasibility``."""
    x = np.asarray(x, dtype=float)
    Qx = (inst.Q.reshape(-1, inst.n) @ x).reshape(inst.m, inst.n)
    bi = inst.bi
    c_x = 0.5 * (Qx @ x) + bi @ x + inst.ri
    inst._c_at = (x.tobytes(), c_x.copy())  # one assignment: a racing reader sees a whole pair
    return c_x, _Pullback(Qx, bi, _jvp_slack(inst, x))


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
            jac_lipschitz_bound=L_c,
            jac_norm_bound=M_c,
            linearizer=functools.partial(_linearize, inst),
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

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
calling thread and one pool worker each take the next block index from one
shared iterator and draw, factor and symmetrize that block, with the streams
and operations of a serial loop.  For the loop, which takes about 20 ms at
n = 200, m = 20 on two cores, NumPy's OpenBLAS is held to one thread, so
that its own workers do not compete with the two for the cores; BLAS calls
made meanwhile by other threads of the process also run on one thread.

The stacked sweep Qs @ x of ``_linearize``, about one per accepted step,
runs on two cores where that pays: where Qs has at least ``_SPLIT_MIN_SIZE``
entries, OpenBLAS runs on one thread with a kernel set of ``_SPLIT_CORES``,
the process may use two CPUs and it is not a ``multiprocessing`` worker.  The
calling thread then computes the rows [0, cut) and one daemon "lane" thread
the rows [cut, rows), each with ``np.matmul`` into one output array.  The
lane starts on the first such sweep and serves every later one in the
process; a sweep that finds it busy takes Qs @ x.  cut is a multiple of 8
rows, which keeps every bit of Qs @ x on the kernels checked (see
``_sweep``).  With more OpenBLAS threads, OpenBLAS splits the plain product
itself and is faster, so it is kept, as it is where NumPy has no OpenBLAS
or another kernel set.  A pool worker takes it too: its pool already keeps
the cores busy, one worker each.  So a one-thread BLAS pin does not hold a
single process to one core; CPU affinity does.  The lane keeps no
array alive between sweeps; its thread and malloc arena raised the peak
memory of a 200x20 benchmark run by about 0.7 MiB.  A child forked outside
``multiprocessing`` forgets the parent's lane and starts its own.
"""

from __future__ import annotations

import contextlib
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
    """Q[i] = sym(Ui Di Ui^T) for each index i taken from ``blocks``, the
    iterator that both threads share.  Each temporary goes as soon as it has
    been used, so that neither thread's malloc arena keeps a block's worth.
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
    """(get, set, core) for the OpenBLAS that NumPy's wheel ships: its get and
    set thread-count functions and the name of the kernel set it runs
    (``get_corename``, "" where it has none), or None where there is none."""
    import ctypes
    import glob
    import os

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
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if core is not None:
                    core.restype = ctypes.c_char_p
                    core = core().decode("ascii", "replace")
                return get, set_, core or ""
    return None


# OpenBLAS's thread count is process-wide, so the loops that hold it at one
# share one saved count: the first to enter saves it, the last to leave
# restores it.  [number of loops inside, saved count]
_blas_lock = threading.Lock()
_blas_hold = [0, 1]


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block; a no-op where it already
    runs on one thread or where there is no OpenBLAS."""
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_, _ = fns
    with _blas_lock:
        if _blas_hold[0] == 0:
            _blas_hold[1] = get()
            if _blas_hold[1] != 1:
                set_(1)
        _blas_hold[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_hold[0] -= 1
            if _blas_hold[0] == 0 and _blas_hold[1] != 1:
                set_(_blas_hold[1])


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

    # imported here, so that only QCQP generation loads the pool
    from concurrent.futures import ThreadPoolExecutor

    Q = np.empty((m, n, n))
    # this thread and one worker take block indices from one iterator; the
    # draws, QRs and products release the GIL.  ``with`` joins the worker,
    # then restores OpenBLAS's thread count, on every path out
    blocks = iter(range(m))
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(_factor_blocks, seed, n, blocks, Q)
        _factor_blocks(seed, n, blocks, Q)
        worker.result()

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


# The stacked sweep is split between the calling thread and the lane only
# from this many entries of Qs on: below it, the handoff costs more than the
# half it saves.  On a 2-vCPU host with one OpenBLAS thread, the split lost
# at n = 200, m = 5 (2^17.6 entries: 31 against 16 us), was even near 2^17.8
# and won from 2^18 on (n = 128, m = 16: 29 against 38 us; n = 200, m = 20:
# 114 against 188 us).
_SPLIT_MIN_SIZE = 1 << 18

# The OpenBLAS kernel sets, by ``get_corename``, on which the cut of ``_sweep``
# was checked to give every bit of Qs @ x: all five that the x86-64
# DYNAMIC_ARCH build of OpenBLAS 0.3.31 in NumPy's wheel selects on an AVX-512
# host, one by one through OPENBLAS_CORETYPE (Zen maps to Haswell there, and
# Cooperlake and SapphireRapids to SkylakeX).  Each groups the rows in fours,
# so cuts on a multiple of 4 changed no bit in about 7,800 cases per kernel,
# while other cuts changed the bits in 70-95% of cases.  Elsewhere, say on
# ARM, the sweep takes Qs @ x.
_SPLIT_CORES = frozenset({"SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai"})


class _Lane:
    """One daemon thread that computes the rows [cut, rows) of Qs @ x while
    the calling thread computes the rows [0, cut).  ``free`` is held by the
    sweep that uses the lane; ``go`` and ``done`` are binary semaphores that
    hand a job over and hand it back.  ``job`` holds (Qs[cut:], x, out[cut:])
    from the handover until the lane takes it, and then None, or the error
    the lane raised until the caller takes it, so that the lane keeps no
    array alive between sweeps."""

    def __init__(self) -> None:
        self.free, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = None
        self.thread = None

    def serve(self) -> None:
        while True:
            self.go.acquire()
            job, self.job = self.job, None
            try:
                np.matmul(job[0], job[1], out=job[2])
            except Exception as exc:  # handed back to the caller, which raises it
                self.job = exc
            job = None
            self.done.release()


_lane = _Lane()


def _forget_lane() -> None:
    """In a forked child the lane thread does not exist, and the parent's locks
    may be held: start from a new lane."""
    global _lane
    _lane = _Lane()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def _split_pays() -> bool:
    """Whether OpenBLAS runs one of ``_SPLIT_CORES`` on one thread, the
    process may use two CPUs and it is not a worker that ``multiprocessing``
    started.  With more OpenBLAS threads, OpenBLAS splits the plain product
    itself, and that beats the two lanes.  A pool, like that of
    ``sdcam run --sweep``, runs about one worker per CPU, so no core is idle
    for a lane: there the split cost 5% of the wall time and 4% of the CPU
    time of a one-thread-BLAS sweep of two 200x20 runs on two CPUs."""
    fns = _openblas()
    mp = sys.modules.get("multiprocessing")
    return (
        fns is not None and fns[2] in _SPLIT_CORES and fns[0]() == 1
        and (mp is None or mp.parent_process() is None)
        and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    )


def _sweep(Qs: np.ndarray, x: Vector) -> np.ndarray:
    """Qs @ x, with the rows split between this thread and the lane where
    that pays and the lane is free; the bits are those of Qs @ x.

    The cut is a multiple of 8 rows.  The dgemv kernels of ``_SPLIT_CORES``
    take the rows in blocks of 4 from the first, so a cut on a multiple of 4
    gives every row the bits of the whole product, while cuts such as 1998
    or 2001 of 4000 rows change the last bit of most rows.  A multiple of 8
    also keeps both halves at the alignment of Qs modulo 64 bytes.  Each half
    has at least 256 rows, since the stacked Qs has at least 2^18 entries
    and no more columns than rows; a one-row half would go to a dot
    product, with other bits.  This is measured behaviour of the library,
    not a documented one, so the tests compare the split with Qs @ x byte
    for byte on each of those kernels the host can run.  A sweep that finds the lane busy, say
    in a concurrent solve, takes Qs @ x and never waits, and so does one
    that cannot start the lane's thread."""
    lane = _lane
    if Qs.size < _SPLIT_MIN_SIZE or not _split_pays() or not lane.free.acquire(blocking=False):
        return Qs @ x
    if lane.thread is None:
        thread = threading.Thread(target=lane.serve, name="sdcam-qcqp-lane", daemon=True)
        try:
            thread.start()
        except RuntimeError:  # no thread to be had; a later sweep tries again
            lane.free.release()
            return Qs @ x
        except BaseException:
            lane.free.release()
            raise
        lane.thread = thread
    rows = Qs.shape[0]
    cut = rows // 16 * 8
    out = np.empty(rows)
    lane.job = (Qs[cut:], x, out[cut:])
    lane.go.release()
    # the lane's done is collected on every path before the lane is freed,
    # so that no later sweep reads a stale done; an interrupt that lands
    # outside this try, or in the wait for done, leaves the lane held for
    # good, and later sweeps take Qs @ x
    try:
        np.matmul(Qs[:cut], x, out=out[:cut])
    finally:
        lane.done.acquire()
        err, lane.job = lane.job, None
        lane.free.release()
    if err is not None:
        try:
            raise err
        finally:
            del err  # else err -> traceback -> this frame -> err pins Qs until a collection
    return out


def _linearize(inst: QcqpInstance, x: Vector) -> Tuple[Vector, _Pullback]:
    """The constraint values (1/2) x^T Qi x + bi^T x + ri, i = 1..m, and their
    pullback, from one matrix product Qx[i] = Qi x.  Records c(x) under the
    bytes of x for ``relative_feasibility``."""
    x = np.asarray(x, dtype=float)
    Qx = _sweep(inst.Q.reshape(-1, inst.n), x).reshape(inst.m, inst.n)
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

"""Oracle abstractions for composite problems  min f(x) + g(x) + h(c(x)).

A problem is a bundle of four oracles:

- ``SmoothOracle`` for the smooth term f (value + gradient),
- ``ProxOracle`` for the prox-friendly terms g and h (extended-real value +
  proximal mapping),
- ``MapOracle`` for the inner map c (value + vector-Jacobian products, and
  ``linearize``, which gives both from one pass; a map given as a one-pass
  linearizer gets its value and vjp from it).

Dense Jacobians are never formed: the solver needs J_c(x)^T w, and J_c(a) e
where a pullback offers it.  A ``Pullback`` is a callable w -> J_c(a)^T w; it
may also offer ``jvp(e) = J_c(a) e`` at the same point a.  Like L_c,
``MapOracle.jvp_slack`` is a constant of the map, a finite float >= 0: for
every a, x, x' in dom g, with e = x' - a and r the computed c(a) - c(x)
(exactly 0 when x = a), ``jvp_slack`` plus (m + 4)*u*||r||, u = 2^-53, must
bound how far rounding can lift the computed ||r + J_c(a) e|| - (L_c/2)||e||^2
above the computed ||c(x') - c(x)||.  ``sdcam.solver.step`` adds the ||r||
term and derives it, so ``jvp_slack`` covers the rounding of c(a), c(x'), the
jvp and L_c, and of the sums and norms as far as they scale with ||J_c(a) e||.
``step`` uses this bound to reject trials that fail backtracking condition
(i) without evaluating c(x'), so a jvp is sound only when
``MapOracle.jac_lipschitz_bound`` is a valid L_c on the convex closure of
dom g; without that constant, or without ``jvp_slack``, the jvp is not used.
``sdcam.verify.verify_problem_oracles`` tests both at check points.
Extended-real values use IEEE ``inf`` (``g.value(x) == inf`` iff x is outside
dom g), so +inf comparisons are exact.

``check_gradient`` / ``check_vjp`` verify user oracles against central finite
differences; ``check_vjp`` also checks the ``linearize`` pullback.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]
Pullback = Callable[[Vector], Vector]

__all__ = [
    "SmoothOracle",
    "ProxOracle",
    "MapOracle",
    "Pullback",
    "Problem",
    "CheckReport",
    "check_gradient",
    "check_vjp",
    "objective",
]


@dataclasses.dataclass(frozen=True)
class SmoothOracle:
    """Smooth term: ``value(x) -> float`` and ``grad(x) -> vector``.

    ``lipschitz_bound`` is an optional user-supplied Lipschitz constant of the
    gradient (never estimated by the library).
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    lipschitz_bound: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class ProxOracle:
    """Prox-friendly term: extended-real ``value`` (inf outside the domain)
    and ``prox(z, gamma) = argmin_u ||z-u||^2/(2*gamma) + value(u)``.

    ``prox`` must return a point with finite value for every z and gamma > 0.
    """

    value: Callable[[Vector], float]
    prox: Callable[[Vector, float], Vector]


@dataclasses.dataclass(frozen=True)
class MapOracle:
    """Nonlinear map c: R^n -> R^m with adjoint products.

    ``linearizer(x) -> (c(x), pullback)`` gives the value and the adjoint in
    one pass; a map given by it alone gets ``value(x) = linearizer(x)[0]`` and
    ``vjp(x, w) = linearizer(x)[1](w)``.  Without a linearizer, ``value`` and
    ``vjp(x, w) = J_c(x)^T w`` are both required.  ``jac_lipschitz_bound`` and
    ``jac_norm_bound`` are optional user-supplied constants L_c and M_c, and
    ``jvp_slack`` the rounding slack of a jvp's Taylor bound (module docstring).
    """

    value: Optional[Callable[[Vector], Vector]] = None
    vjp: Optional[Callable[[Vector, Vector], Vector]] = None
    jac_lipschitz_bound: Optional[float] = None
    jac_norm_bound: Optional[float] = None
    linearizer: Optional[Callable[[Vector], Tuple[Vector, Pullback]]] = None
    jvp_slack: Optional[float] = None

    def __post_init__(self) -> None:
        lin = self.linearizer
        if lin is None:
            if self.value is None or self.vjp is None:
                raise ValueError("a MapOracle without a linearizer needs both value and vjp")
            return
        if self.value is None:
            object.__setattr__(self, "value", lambda x: lin(x)[0])
        if self.vjp is None:
            object.__setattr__(self, "vjp", lambda x, w: lin(x)[1](w))

    def linearize(self, x: Vector) -> Tuple[Vector, Pullback]:
        """``(c(x), pullback)`` with ``pullback(w) = J_c(x)^T w``, in the style
        of ``jax.vjp``.  The pullback does not change when the caller later
        mutates x, and may offer ``pullback.jvp(d) = J_c(x) d`` (see the
        module docstring).  Without a ``linearizer`` it is built from
        ``value`` and ``vjp`` at a copy of x, and offers no jvp.
        """
        if self.linearizer is not None:
            return self.linearizer(x)
        x = np.array(x, dtype=float)
        return self.value(x), lambda w: self.vjp(x, w)


@dataclasses.dataclass(frozen=True)
class Problem:
    """Composite problem bundle for  min f(x) + g(x) + h(c(x)).

    ``inf_fg_lower_bound`` is an optional user-supplied lower bound on
    inf {f+g}.  Given it, every trace row carries the merit Theta and ``solve``
    checks that Theta does not increase along accepted steps.  That check, the
    paper's Theta and M0/M1 in ``rate_constants`` rest on two premises: the
    field is a valid lower bound on f+g, and h >= 0.  ``solve`` checks both
    at every accepted point.
    ``h_lipschitz_bound`` is an optional Lipschitz constant M_h of h;
    ``h_sup_on_image_bound`` an optional bound on sup_{x in dom g} h(c(x)).
    """

    f: SmoothOracle
    g: ProxOracle
    h: ProxOracle
    c: MapOracle
    n: int
    m: int
    inf_fg_lower_bound: Optional[float] = None
    h_lipschitz_bound: Optional[float] = None
    h_sup_on_image_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"degenerate dimensions n={self.n}, m={self.m}")


@dataclasses.dataclass(frozen=True)
class CheckReport:
    max_rel_error: float
    passed: bool
    worst_index: Optional[int] = None
    message: str = ""


_REL_TOL = 1e-5
_VALUE_REL_TOL = 1e-13
_MAX_DIRECTIONS = 32
_VJP_TRIALS = 10


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fd_step(x: Vector) -> float:
    """The checkers' central-difference step 1e-6*(1 + max|x|), which balances
    truncation and rounding; it stays at most 1e-2 for max|x| <= 9999."""
    x_max = float(np.max(np.abs(x), initial=0.0))
    if not x_max <= 9999.0:
        raise ValueError(f"finite-difference checks need max|x| <= 9999, got {x_max:.6g}")
    return 1e-6 * (1.0 + x_max)


def _fd_report(worst: float, worst_i: Optional[int], where: str) -> CheckReport:
    """The report of a central-difference check whose largest relative error,
    ``worst``, is at ``where``."""
    passed = worst <= _REL_TOL
    message = "" if passed else (f"{where} disagrees with central differences by "
                                 f"{worst:.3g} relative")
    return CheckReport(max_rel_error=worst, passed=passed, worst_index=worst_i, message=message)


def check_gradient(
    f: SmoothOracle,
    x: Vector,
    rng: Optional[np.random.Generator] = None,
) -> CheckReport:
    """Compare ``f.grad`` against central differences of ``f.value``.

    Uses every coordinate direction for n <= 32, otherwise 32 random unit
    directions.  Passes iff the max relative error is <= 1e-5.
    """
    x = np.asarray(x, dtype=float)
    h = _fd_step(x)
    n = x.size
    g = np.asarray(f.grad(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"grad shape {g.shape} != x shape {x.shape}")

    if n <= _MAX_DIRECTIONS:
        directions = np.eye(n)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        directions = rng.standard_normal((_MAX_DIRECTIONS, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    worst = 0.0
    worst_i: Optional[int] = None
    for i, d in enumerate(directions):
        fp = f.value(x + h * d)
        fm = f.value(x - h * d)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            return CheckReport(
                max_rel_error=math.inf,
                passed=False,
                worst_index=i,
                message=f"non-finite value near x along direction {i}",
            )
        fd = (fp - fm) / (2.0 * h)
        an = float(g @ d)
        err = _rel_err(fd, an)
        if err > worst:
            worst, worst_i = err, i
    return _fd_report(worst, worst_i, f"grad along direction {worst_i}")


def check_vjp(
    c: MapOracle,
    x: Vector,
    rng: Optional[np.random.Generator] = None,
) -> CheckReport:
    """Compare ``<vjp(x, w), d>`` and ``<pullback(w), d>`` (from
    ``c.linearize(x)``) against a central difference of ``<w, c(.)>`` along d,
    for 10 random pairs (w, d).  Passes iff every pair agrees to 1e-5 and
    ``linearize(x)[0]`` equals ``value(x)`` to 1e-13 relative.
    """
    x = np.asarray(x, dtype=float)
    h = _fd_step(x)
    rng = rng if rng is not None else np.random.default_rng(0)
    cx = np.asarray(c.value(x), dtype=float)
    c_lin, pullback = c.linearize(x)
    c_lin = np.asarray(c_lin, dtype=float)
    if c_lin.shape != cx.shape:
        raise ValueError(f"linearize value shape {c_lin.shape} != value shape {cx.shape}")
    value_err = float(np.max(np.abs(c_lin - cx) / np.maximum(1.0, np.abs(cx)), initial=0.0))
    if not value_err <= _VALUE_REL_TOL:
        return CheckReport(
            max_rel_error=value_err,
            passed=False,
            message=f"linearize(x)[0] differs from value(x) by {value_err:.3g} relative",
        )
    m = cx.size
    worst = 0.0
    worst_i: Optional[int] = None
    worst_name = ""
    for i in range(_VJP_TRIALS):
        w = rng.standard_normal(m)
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        fd = float(w @ (np.asarray(c.value(x + h * d)) - np.asarray(c.value(x - h * d)))) / (2.0 * h)
        for name, v in (("vjp", c.vjp(x, w)), ("pullback", pullback(w))):
            v = np.asarray(v, dtype=float)
            if v.shape != x.shape:
                raise ValueError(f"{name} shape {v.shape} != x shape {x.shape}")
            err = _rel_err(fd, float(v @ d))
            if err > worst:
                worst, worst_i, worst_name = err, i, name
    return _fd_report(worst, worst_i, f"{worst_name} at pair {worst_i}")


def objective(p: Problem, x: Vector) -> float:
    """Extended-real composite objective f(x)+g(x)+h(c(x))."""
    x = np.asarray(x, dtype=float)
    gx = float(p.g.value(x))
    if gx == math.inf:
        return math.inf
    hx = float(p.h.value(np.asarray(p.c.linearize(x)[0], dtype=float)))
    if hx == math.inf:
        return math.inf
    return float(p.f.value(x)) + gx + hx

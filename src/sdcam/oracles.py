"""Oracle abstractions for composite problems  min f(x) + g(x) + h(c(x)).

A problem is a bundle of four oracles:

- ``SmoothOracle`` for the smooth term f (value + gradient),
- ``ProxOracle`` for the prox-friendly terms g and h (extended-real value +
  proximal mapping),
- ``MapOracle`` for the inner map c (value + vector-Jacobian products).

Dense Jacobians are never formed: the solver only ever needs J_c(x)^T w.
Extended-real values use IEEE ``inf`` (``g.value(x) == inf`` iff x is outside
dom g), so +inf comparisons are exact.

``check_gradient`` / ``check_vjp`` verify user oracles against central finite
differences.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

__all__ = [
    "SmoothOracle",
    "ProxOracle",
    "MapOracle",
    "Problem",
    "CheckReport",
    "check_gradient",
    "check_vjp",
    "objective",
    "default_fd_step",
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

    ``vjp(x, w)`` returns J_c(x)^T w (length n).  ``jac_lipschitz_bound`` and
    ``jac_norm_bound`` are optional user-supplied constants L_c and M_c.
    """

    value: Callable[[Vector], Vector]
    vjp: Callable[[Vector, Vector], Vector]
    jac_lipschitz_bound: Optional[float] = None
    jac_norm_bound: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class Problem:
    """Composite problem bundle for  min f(x) + g(x) + h(c(x)).

    ``inf_fg_lower_bound`` is an optional user-supplied lower bound on
    inf {f+g}; ``h_lipschitz_bound`` an optional Lipschitz constant M_h of h;
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


def default_fd_step(x: Vector) -> float:
    """Central-difference step balancing truncation and rounding."""
    return 1e-6 * (1.0 + float(np.max(np.abs(x))) if x.size else 1.0)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    max_rel_error: float
    passed: bool
    worst_index: Optional[int] = None
    message: str = ""


_REL_TOL = 1e-5
_MAX_DIRECTIONS = 32


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_gradient(
    f: SmoothOracle,
    x: Vector,
    h_step: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> CheckReport:
    """Compare ``f.grad`` against central differences of ``f.value``.

    Uses every coordinate direction for n <= 32, otherwise 32 random unit
    directions.  Passes iff the max relative error is <= 1e-5.
    """
    x = np.asarray(x, dtype=float)
    h = default_fd_step(x) if h_step is None else float(h_step)
    if not (1e-8 <= h <= 1e-2):
        raise ValueError(f"h_step {h} outside [1e-8, 1e-2]")
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
    return CheckReport(max_rel_error=worst, passed=worst <= _REL_TOL, worst_index=worst_i)


def check_vjp(
    c: MapOracle,
    x: Vector,
    trials: int = 10,
    h_step: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> CheckReport:
    """Compare ``<vjp(x, w), d>`` against a central difference of ``<w, c(.)>``
    along d, for random w and d.  Passes iff every trial agrees to 1e-5.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    x = np.asarray(x, dtype=float)
    h = default_fd_step(x) if h_step is None else float(h_step)
    rng = rng if rng is not None else np.random.default_rng(0)
    cx = np.asarray(c.value(x), dtype=float)
    m = cx.size
    worst = 0.0
    worst_i: Optional[int] = None
    for i in range(trials):
        w = rng.standard_normal(m)
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        v = np.asarray(c.vjp(x, w), dtype=float)
        if v.shape != x.shape:
            raise ValueError(f"vjp shape {v.shape} != x shape {x.shape}")
        an = float(v @ d)
        fd = float(w @ (np.asarray(c.value(x + h * d)) - np.asarray(c.value(x - h * d)))) / (2.0 * h)
        err = _rel_err(fd, an)
        if err > worst:
            worst, worst_i = err, i
    return CheckReport(max_rel_error=worst, passed=worst <= _REL_TOL, worst_index=worst_i)


def objective(p: Problem, x: Vector) -> float:
    """Extended-real composite objective f(x)+g(x)+h(c(x))."""
    x = np.asarray(x, dtype=float)
    gx = float(p.g.value(x))
    if gx == math.inf:
        return math.inf
    hx = float(p.h.value(np.asarray(p.c.value(x), dtype=float)))
    if hx == math.inf:
        return math.inf
    return float(p.f.value(x)) + gx + hx

"""Penalty schedules beta_t.

Two families, both nondecreasing and divergent with
alpha0*(t+1)^delta <= beta_t <= gamma0*(t+1)^delta:

- ``power``:   beta_t = beta0*(t+1)^delta        (alpha0 = gamma0 = beta0)
- ``blocked``: beta_t = beta0*(t+1)^delta when t mod K == 0, and the value at
  the last multiple of K otherwise (alpha0 = beta0*K^(-delta), gamma0 = beta0).

eta0 bounds the increment growth: beta_t - beta_{t-1} <= eta0*t^(delta-1).
"""

from __future__ import annotations

import dataclasses

__all__ = ["ScheduleSpec", "beta_at"]


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    family: str  # "power" or "blocked"
    beta0: float
    delta: float
    K: int = 1

    def __post_init__(self) -> None:
        if self.family not in ("power", "blocked"):
            raise ValueError(f"unknown schedule family {self.family!r}")
        if isinstance(self.beta0, bool) or isinstance(self.delta, bool):
            raise ValueError("beta0 and delta must not be booleans")
        if not self.beta0 > 0.0:  # NaN included
            raise ValueError("beta0 must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0,1)")
        if isinstance(self.K, bool) or not isinstance(self.K, int) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")

    @property
    def alpha0(self) -> float:
        if self.family == "power":
            return self.beta0
        return self.beta0 * float(self.K) ** (-self.delta)

    @property
    def gamma0(self) -> float:
        return self.beta0

    @property
    def eta0(self) -> float:
        if self.family == "power":
            return self.beta0 * self.delta
        return self.beta0 * self.delta * float(self.K) ** (2.0 - self.delta)


def beta_at(s: ScheduleSpec, t: int) -> float:
    """Schedule value beta_t; nondecreasing in t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if s.family == "power" or t % s.K == 0:
        return s.beta0 * float(t + 1) ** s.delta
    n = t // s.K
    return s.beta0 * float(n * s.K + 1) ** s.delta

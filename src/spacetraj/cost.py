"""Quadratic stage cost, exponential altitude penalty, and terminal value.

Stage cost: c(x, u) = 0.5 * (x' Q x + u' R u) + penalty, with Q PSD and R PD,
zero at the origin and positive elsewhere when Q is PD and no penalty is
configured. The optional penalty is weight * exp(-rate * altitude) - weight on
a designated state coordinate: strictly decreasing in altitude, bounded below
by -weight, zero at zero altitude, growing exponentially below ground. With a
penalty configured the total cost can be negative.

All derivatives consumed by the solver backward pass are exact.
`cost_derivatives` takes an optional leading trajectory axis, so the backward
pass gets the expansion of every stage from one call. `stage_costs` likewise
prices a whole finished rollout at once; the step loops never call a cost.
`first_over_cap` is the one cost-cap test applied to a priced rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def altitude_penalty(altitude: float, weight: float, rate: float) -> float:
    """Soft ground constraint: weight * exp(-rate * altitude) - weight,
    inf (without a warning) where it overflows."""
    with np.errstate(over="ignore"):
        return weight * np.exp(-rate * altitude) - weight


@dataclass(frozen=True)
class AltitudePenaltySpec:
    """Penalty attached to one state coordinate.

    `coord_scale` converts the state coordinate into the altitude units the
    (weight, rate) pair is expressed in; the chain rule applies it to the
    penalty derivatives.
    """

    weight: float
    rate: float
    index: int
    coord_scale: float = 1.0

    def value(self, x: np.ndarray):
        """Penalty at x (n,) or along x (T, n)."""
        return altitude_penalty(self.coord_scale * x[..., self.index], self.weight, self.rate)

    def gradient_at(self, x: np.ndarray):
        """d penalty / d x[index] at x (n,) or along x (T, n)."""
        return self._times_exp(-self.weight * (self.rate * self.coord_scale), 1, x)

    def hessian_at(self, x: np.ndarray):
        """d^2 penalty / d x[index]^2 at x (n,) or along x (T, n)."""
        k = self.rate * self.coord_scale  # k * k overflows to inf where k ** 2 raises
        return self._times_exp(self.weight * (k * k), 2, x)

    def _times_exp(self, coef: float, power: int, x: np.ndarray):
        """coef * exp(-rate * altitude), where coef = weight * (-k)**power
        and k = rate * coord_scale. A coefficient that overflowed is taken
        in log space, sign * exp(log|weight| + power log|k| - rate * altitude),
        so the term is finite wherever it is representable, not inf * 0 =
        NaN where the exponential underflows; an overflowing term is inf
        without a warning."""
        with np.errstate(over="ignore"):
            exponent = -self.rate * (self.coord_scale * x[..., self.index])
            if not math.isinf(coef):
                return coef * np.exp(exponent)
            log_k = math.log(abs(self.rate)) + math.log(abs(self.coord_scale))
            return math.copysign(1.0, coef) * np.exp(math.log(abs(self.weight)) + power * log_k + exponent)


@dataclass(frozen=True)
class QuadraticCostSpec:
    Q: np.ndarray
    R: np.ndarray
    penalty: Optional[AltitudePenaltySpec] = None

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        for name, M in (("Q", Q), ("R", R)):
            if not np.allclose(M, M.T):
                raise ValueError(f"{name} must be symmetric")
        if not np.all(np.linalg.eigvalsh(Q) >= -1e-12 * max(1.0, np.abs(Q).max())):
            raise ValueError("Q must be positive semidefinite")
        if not np.all(np.linalg.eigvalsh(R) > 0.0):
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if self.penalty is not None and not 0 <= self.penalty.index < Q.shape[0]:
            raise ValueError(f"penalty index {self.penalty.index} is outside {Q.shape[0]} states")

    @property
    def state_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def control_dim(self) -> int:
        return self.R.shape[0]


def _quadratic_rows(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v' M v for every row v of V: elementwise products summed in a fixed
    order over the row's own entries."""
    VM = V[:, 0:1] * M[0]
    for i in range(1, len(M)):
        VM += V[:, i : i + 1] * M[i]
    return np.add.accumulate(VM * V, axis=1)[:, -1]


def stage_costs(X: np.ndarray, U: np.ndarray, spec: QuadraticCostSpec) -> np.ndarray:
    """Stage cost of every row pair (x_t, u_t) of X (T, n) and U (T, m).

    Every operation is elementwise across rows, so a row's cost has the same
    bits alone or at any offset of any batch, and a stored cost equals a
    recomputed one. An overflowing row gives an infinite cost, not a warning.
    """
    X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 0.5 * (_quadratic_rows(X, spec.Q) + _quadratic_rows(U, spec.R))
        if spec.penalty is not None:
            c += spec.penalty.value(X)
    return c


def first_over_cap(
    costs: np.ndarray, cap: float, start: float = 0.0
) -> Tuple[np.ndarray, Optional[int]]:
    """The running sums start + c_0 + ... + c_t in step order, and the first
    step whose sum is non-finite or above `cap` (None when no step's is).
    A per-step test would have stopped the loop at that step; each caller
    decides what of it to keep."""
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.cumsum(np.concatenate(([start], costs)))[1:]
        over = np.flatnonzero(~(np.isfinite(running) & (running <= cap)))
    return running, int(over[0]) if len(over) else None


@dataclass(frozen=True)
class CostDerivatives:
    """Stage-cost expansion: l_x (..., n), l_xx (..., n, n), l_u (..., m),
    l_uu (..., m, m), where ``...`` is the leading axis of the inputs."""

    l_x: np.ndarray
    l_xx: np.ndarray
    l_u: np.ndarray
    l_uu: np.ndarray


def cost_derivatives(x: np.ndarray, u: np.ndarray, spec: QuadraticCostSpec) -> CostDerivatives:
    """Exact stage-cost derivatives at x (n,), u (m,) or along a trajectory
    x (T, n), u (T, m). Constant Hessians come back as read-only broadcasts."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    lead = x.shape[:-1]
    n, m = spec.state_dim, spec.control_dim
    l_x = (spec.Q @ x[..., None])[..., 0]
    l_xx = np.broadcast_to(spec.Q, lead + (n, n))
    if spec.penalty is not None:
        i = spec.penalty.index
        l_x[..., i] += spec.penalty.gradient_at(x)
        l_xx = l_xx.copy()
        l_xx[..., i, i] += spec.penalty.hessian_at(x)
    return CostDerivatives(
        l_x=l_x,
        l_xx=l_xx,
        l_u=(spec.R @ u[..., None])[..., 0],
        l_uu=np.broadcast_to(spec.R, lead + (m, m)),
    )


@dataclass(frozen=True)
class TerminalValue:
    """Terminal cost (x - ref)' P (x - ref) with P PSD.

    P = 0 gives a pure stage-cost problem. The reference defaults to the
    origin; the powered-descent scenario offsets it to command a terminal
    sink rate (touchdown guidance aims slightly below the surface so the
    planned trajectory actually crosses it).
    """

    P: np.ndarray
    reference: Optional[np.ndarray] = None

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if not np.allclose(P, P.T):
            raise ValueError("terminal matrix must be symmetric")
        if not np.all(np.linalg.eigvalsh(P) >= -1e-9 * max(1.0, np.abs(P).max())):
            raise ValueError("terminal matrix must be positive semidefinite")
        object.__setattr__(self, "P", P)
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=float)
            if ref.shape != (P.shape[0],):
                raise ValueError(f"terminal reference has shape {ref.shape}, expected {(P.shape[0],)}")
            object.__setattr__(self, "reference", ref)

    def _offset(self, x: np.ndarray) -> np.ndarray:
        return x if self.reference is None else x - self.reference

    def value(self, x: np.ndarray) -> float:
        e = self._offset(x)
        return float(e @ self.P @ e)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.P @ self._offset(x))

    def hessian(self) -> np.ndarray:
        return 2.0 * self.P

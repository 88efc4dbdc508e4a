"""Quadratic stage cost, exponential altitude penalty, and terminal value.

Stage cost: c(x, u) = 0.5 * (x' Q x + u' R u) + penalty, with Q PSD and R PD,
zero at the origin and positive elsewhere when Q is PD and no penalty is
configured. The optional penalty is weight * exp(-rate * altitude) - weight,
the altitude being one state coordinate in its own units: strictly decreasing
in altitude, bounded below by -weight, zero at zero altitude, growing
exponentially below ground. With a penalty the total cost can be negative.

All derivatives consumed by the solver backward pass are exact.
`cost_derivatives` takes an optional leading trajectory axis, so the backward
pass gets the expansion of every stage from one call. `stage_costs` likewise
prices a whole finished rollout at once; the step loops never call a cost.
`priced` is the one place a finished loop is priced and cut at a cost cap,
and `is_psd` the one test of a positive semidefinite weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# A weight is positive semidefinite when no eigenvalue lies below
# -PSD_RTOL * max|entry|: rounding, relative to the matrix's own scale.
PSD_RTOL = 1e-12


def is_psd(M: np.ndarray) -> bool:
    """True iff the symmetric float matrix M is positive semidefinite up to
    `PSD_RTOL` relative to its largest entry, so a positive scaling keeps
    the verdict."""
    return bool(np.all(np.linalg.eigvalsh(M) >= -PSD_RTOL * np.abs(M).max()))


def altitude_penalty(altitude: float, weight: float, rate: float) -> float:
    """Soft ground constraint: weight * exp(-rate * altitude) - weight,
    inf (without a warning) where it overflows."""
    with np.errstate(over="ignore"):
        return weight * np.exp(-rate * altitude) - weight


@dataclass(frozen=True)
class AltitudePenaltySpec:
    """Penalty attached to one state coordinate, taken as the altitude."""

    weight: float
    rate: float
    index: int

    def value(self, x: np.ndarray):
        """Penalty at x (n,) or along x (T, n)."""
        return altitude_penalty(x[..., self.index], self.weight, self.rate)

    def gradient_at(self, x: np.ndarray):
        """d penalty / d x[index] at x (n,) or along x (T, n)."""
        return self._times_exp(-self.weight * self.rate, 1, x)

    def hessian_at(self, x: np.ndarray):
        """d^2 penalty / d x[index]^2 at x (n,) or along x (T, n)."""
        # rate * rate overflows to inf where rate ** 2 raises
        return self._times_exp(self.weight * (self.rate * self.rate), 2, x)

    def _times_exp(self, coef: float, power: int, x: np.ndarray):
        """coef * exp(-rate * altitude), where coef = weight * (-rate)**power.
        A coefficient that overflowed is taken in log space, sign *
        exp(log|weight| + power log|rate| - rate * altitude), so the term is
        finite wherever it is representable, not inf * 0 = NaN where the
        exponential underflows; an overflowing term is inf without a
        warning."""
        with np.errstate(over="ignore"):
            exponent = -self.rate * x[..., self.index]
            if not math.isinf(coef):
                return coef * np.exp(exponent)
            log_coef = math.log(abs(self.weight)) + power * math.log(abs(self.rate))
            return math.copysign(1.0, coef) * np.exp(log_coef + exponent)


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
        if not is_psd(Q):
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


def priced(
    simulation: Tuple[np.ndarray, np.ndarray, str], spec: QuadraticCostSpec, cap: float, start: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]:
    """A finished `dynamics.simulate` loop, priced by one `stage_costs` call
    and cut where the closed loop, testing after each applied step, stops.

    The cut falls at the first control whose running sum start + c_0 + ...
    + c_t, in step order, is non-finite or above `cap`; that control is kept
    with its cost and the state it led to. A control whose step left the
    dynamics domain ended the loop first: it is kept with its cost and has
    no successor state, as `simulate` returns it. Returns the states, the
    controls, their costs, the running sums and a message that is empty
    unless the loop diverged.
    """
    states, controls, message = simulation
    costs = stage_costs(states[: len(controls)], controls, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.cumsum(np.concatenate(([start], costs)))[1:]
        done = running[: len(states) - 1]  # the steps that were taken
        over = np.flatnonzero(~(np.isfinite(done) & (done <= cap)))
    if len(over):
        k = int(over[0]) + 1
        return states[: k + 1], controls[:k], costs[:k], running[:k], f"cost exceeded cap ({running[k - 1]:.3e})"
    return states, controls, costs, running, message and f"left the dynamics domain: {message}"


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
        if not is_psd(P):
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

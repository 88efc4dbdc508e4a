"""Discrete-time dynamics: explicit Euler maps and their Jacobians.

A `ContinuousModel` supplies the right-hand side ``xdot = deriv(x, u)`` and,
optionally, its analytic partials. `DiscreteModel` wraps it with a fixed step
``step(x, u) = x + dt * deriv(x, u)`` (explicit Euler, order 1), so the
discrete Jacobians are ``A = I + dt * d(deriv)/dx`` and ``B = dt * d(deriv)/du``.

Kernel contract:

- ``deriv(x, u)`` evaluates one point, ``x`` (n,) and ``u`` (m,) arrays, and
  returns the (n,) derivative. It is called once per simulated step, so the
  scenario models write it in scalar math.
- ``deriv_jacobians(x, u)`` takes an optional leading trajectory axis:
  ``x`` (n,) or (T, n) with ``u`` (m,) or (T, m), returning partials of shape
  (n, n)/(n, m) or (T, n, n)/(T, n, m). A partial that does not depend on the
  point may come back unbatched; `jacobians` broadcasts it. One call thus
  linearizes a whole trajectory (the iLQR backward pass makes one per pass).
- Parameters a kernel needs in every call (such as an inverse inertia) are
  precomputed when the model's parameters are constructed, never per call.

Everything here is immutable and side-effect free; models are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import SingularityError

# Per-coordinate central-difference step: max(FD_STEP, FD_STEP * |coordinate|).
# Balances truncation against roundoff for coordinates ranging from radians to
# 1e4 km positions.
FD_STEP = 1e-6

DerivFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
DerivJacFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time dynamics ``xdot = deriv(x, u)``.

    `deriv_jacobians`, when provided, returns the continuous partials
    ``(d deriv/dx, d deriv/du)`` at a point or along a leading trajectory axis
    (see the module docstring); otherwise Jacobians fall back to central
    differences on the discrete map.
    """

    state_dim: int
    control_dim: int
    deriv: DerivFn
    deriv_jacobians: Optional[DerivJacFn] = None
    name: str = ""

    def __post_init__(self):
        if not (self.state_dim > 0 and self.control_dim > 0):
            raise ValueError(f"dimensions must be positive, got {self.state_dim}, {self.control_dim}")


@dataclass(frozen=True)
class DiscreteModel:
    """Explicit-Euler discretization of a continuous model with step `dt` (s)."""

    inner: ContinuousModel
    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # NaN fails it
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

    @property
    def state_dim(self) -> int:
        return self.inner.state_dim

    @property
    def control_dim(self) -> int:
        return self.inner.control_dim

    @property
    def name(self) -> str:
        return self.inner.name

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return euler_step(self, x, u)


@dataclass(frozen=True)
class Linearization:
    """Discrete-map Jacobians ``A = d step/dx``, ``B = d step/du``: (n, n) and
    (n, m) at a point, (T, n, n) and (T, n, m) along a trajectory."""

    A: np.ndarray
    B: np.ndarray


def euler_step(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One explicit Euler step ``x + dt * deriv(x, u)``.

    Raises SingularityError if the new state is non-finite, which covers a
    non-finite derivative as well as an overflowing step (the scenario
    derivative functions raise it directly at their kinematic guards). This
    is the only finiteness test of a simulated step; the loops that call it
    do not repeat it.
    """
    x_next = x + model.dt * model.inner.deriv(x, u)
    if not all(map(math.isfinite, x_next.tolist())):
        raise SingularityError("non-finite state after an Euler step", state=x)
    return x_next


def _fd_steps(v: np.ndarray, h: Optional[float]) -> np.ndarray:
    if h is not None:
        if not 0.0 < h < math.inf:
            raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
        return np.full(v.shape, h)
    return np.maximum(FD_STEP, FD_STEP * np.abs(v))


def finite_diff_jacobians(
    model: DiscreteModel, x: np.ndarray, u: np.ndarray, h: Optional[float] = None
) -> Linearization:
    """Central-difference Jacobians of the discrete step map.

    Oracle for the analytic Jacobians; exact for linear maps up to roundoff.
    By default the perturbation is per-coordinate, max(FD_STEP, FD_STEP*|v|);
    pass `h` for a uniform explicit scale. A perturbed evaluation that hits a
    singularity propagates the error.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.state_dim, model.control_dim
    A = np.empty((n, n))
    B = np.empty((n, m))
    hx = _fd_steps(x, h)
    for j in range(n):
        e = np.zeros(n)
        e[j] = hx[j]
        A[:, j] = (model.step(x + e, u) - model.step(x - e, u)) / (2.0 * hx[j])
    hu = _fd_steps(u, h)
    for j in range(m):
        e = np.zeros(m)
        e[j] = hu[j]
        B[:, j] = (model.step(x, u + e) - model.step(x, u - e)) / (2.0 * hu[j])
    return Linearization(A=A, B=B)


def jacobians(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> Linearization:
    """Discrete Jacobians at x (n,), u (m,) or along a trajectory x (T, n), u (T, m).

    Analytic when the model provides partials, else central differences at
    each point.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.state_dim, model.control_dim
    lead = x.shape[:-1]
    fn = model.inner.deriv_jacobians
    if fn is None:
        points = [
            finite_diff_jacobians(model, xt, ut)
            for xt, ut in zip(x.reshape(-1, n), u.reshape(-1, m))
        ]
        return Linearization(
            A=np.array([p.A for p in points]).reshape(lead + (n, n)),
            B=np.array([p.B for p in points]).reshape(lead + (n, m)),
        )
    dfdx, dfdu = fn(x, u)
    A = model.dt * dfdx
    A += np.eye(n)  # in place: a (T, n, n) temporary less
    B = model.dt * dfdu
    if A.shape[:-2] != lead:
        A = np.broadcast_to(A, lead + (n, n))
    if B.shape[:-2] != lead:
        B = np.broadcast_to(B, lead + (n, m))
    return Linearization(A=A, B=B)


def lti_model(A: np.ndarray, B: np.ndarray, dt: float = 1.0, name: str = "lti") -> DiscreteModel:
    """Discrete model whose Euler step realizes ``x+ = A x + B u`` exactly.

    The continuous right-hand side is chosen as ``((A - I) x + B u) / dt`` so
    the Euler map and its Jacobians reproduce (A, B) with no discretization
    error. Handy for benchmarks with known closed-form optima.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, expected {(n, n)} to match B {B.shape}")
    Ac = (A - np.eye(n)) / dt
    Bc = B / dt

    def deriv(x, u):
        return Ac @ x + Bc @ u

    def deriv_jac(x, u):
        return Ac, Bc

    return DiscreteModel(
        inner=ContinuousModel(n, m, deriv, deriv_jac, name=name), dt=dt
    )


def double_integrator(dt: float = 0.1) -> DiscreteModel:
    """Euler-discretized double integrator: position/velocity state, force control."""

    def deriv(x, u):
        return np.array([x[1], u[0]])

    def deriv_jac(x, u):
        return np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])

    return DiscreteModel(
        inner=ContinuousModel(2, 1, deriv, deriv_jac, name="double_integrator"),
        dt=dt,
    )

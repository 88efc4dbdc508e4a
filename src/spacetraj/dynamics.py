"""Discrete-time dynamics: explicit Euler maps and their Jacobians.

A `DiscreteModel` is a right-hand side ``xdot = rates(x, u)`` with a fixed
step ``step(x, u) = x + dt * rates(x, u)`` (explicit Euler, order 1), so the
discrete Jacobians are ``A = I + dt * d(rates)/dx`` and ``B = dt * d(rates)/du``.

Kernel contract:

- ``rates(x, u)`` is the one point kernel: ``x`` and ``u`` are lists of
  floats, and it returns n numbers. `euler_step`, run once per simulated
  step, forms ``x + dt * f`` in floats, the bits the array expression gives;
  finite differences and `verify` step the same map.
- ``deriv_jacobians(x, u)``, required, takes an optional leading trajectory
  axis: ``x`` (n,) or (T, n) with ``u`` (m,) or (T, m), returning the
  continuous partials of shape (n, n)/(n, m) or (T, n, n)/(T, n, m), so one
  call linearizes a whole trajectory (one per iLQR backward pass). A
  partial that does not depend on the point may come back unbatched and
  shared across calls (`lti_model`'s are): `jacobians` broadcasts it and
  never writes to it. A batched partial must be a fresh array: `jacobians`
  scales it by ``dt`` in place (the same bits, one (T, n, n) stack less).
  `finite_diff_jacobians` is only the oracle they are checked against.
- ``deriv_hessians(x, u)``, optional (None by default), is for models whose
  rates are affine in the control with a constant coefficient: it returns
  the continuous second partials of the rates in the state,
  ``d^2 f_i / dx_j dx_k``, of shape (n, n, n) or, along a trajectory,
  (T, n, n, n), as a fresh array. The control blocks of such a model are
  zero, so these are all its second partials; the iLQR sweep adds them to
  its state Hessian (a Newton step) where a model states them.
  `finite_diff_hessians`, central differences of ``deriv_jacobians``, is
  the oracle they are checked against. Only the attitude model has them.
- `simulate` is the one closed loop: every simulated step of the program
  (rollouts, line-search candidates, regulation, the rendezvous goal
  orbit) is taken there.
- Parameters a kernel needs in every call (such as an inverse inertia) are
  precomputed when the model's parameters are constructed, never per call.

Everything here is immutable and side-effect free; models are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DynamicsDomainError, SingularityError

# Per-coordinate central-difference step: max(FD_STEP, FD_STEP * |coordinate|).
# Balances truncation against roundoff for coordinates ranging from radians to
# 1e4 km positions.
FD_STEP = 1e-6

RatesFn = Callable[[list, list], Sequence[float]]
DerivJacFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
DerivHessFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# control(t, x_t) -> u_t, or None to stop before stepping
ControlLaw = Callable[[int, np.ndarray], Optional[np.ndarray]]


@dataclass(frozen=True)
class DiscreteModel:
    """Explicit-Euler dynamics ``x+ = x + dt * rates(x, u)`` with step `dt` (s).

    `rates` is the point kernel, `deriv_jacobians` its continuous
    partials and `deriv_hessians`, when stated, its second partials in the
    state (see the module docstring).
    """

    state_dim: int
    control_dim: int
    rates: RatesFn
    dt: float
    deriv_jacobians: DerivJacFn
    deriv_hessians: Optional[DerivHessFn] = None

    def __post_init__(self):
        if not (self.state_dim > 0 and self.control_dim > 0):
            raise ValueError(f"dimensions must be positive, got {self.state_dim}, {self.control_dim}")
        if not 0.0 < self.dt < math.inf:  # NaN fails it
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not callable(self.deriv_jacobians):
            raise ValueError(f"deriv_jacobians must be callable, got {self.deriv_jacobians!r}")
        if not (self.deriv_hessians is None or callable(self.deriv_hessians)):
            raise ValueError(f"deriv_hessians must be callable or None, got {self.deriv_hessians!r}")

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return euler_step(self, x, u)


@dataclass(frozen=True)
class Linearization:
    """Discrete-map Jacobians ``A = d step/dx``, ``B = d step/du``: (n, n) and
    (n, m) at a point, (T, n, n) and (T, n, m) along a trajectory."""

    A: np.ndarray
    B: np.ndarray


def euler_step(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One explicit Euler step ``x + dt * rates(x, u)``, formed in Python
    floats.

    Raises SingularityError if the new state is non-finite, which covers a
    non-finite derivative as well as an overflowing step (the scenario
    kernels raise it directly at their kinematic guards). This
    is the only finiteness test of a simulated step; `simulate` does not
    repeat it.
    """
    dt, xs = model.dt, x.tolist()
    try:
        f = model.rates(xs, u.tolist())
        x_next = [a + dt * b for a, b in zip(xs, f)]
    except OverflowError:  # a float power in the kernel overflowed
        x_next = [math.inf]
    if not all(map(math.isfinite, x_next)):
        raise SingularityError("non-finite state after an Euler step", state=x)
    return np.array(x_next)


def simulate(
    model: DiscreteModel, x0: np.ndarray, control: ControlLaw, steps: int
) -> Tuple[np.ndarray, np.ndarray, str]:
    """Run ``x_{t+1} = step(x_t, control(t, x_t))`` for at most `steps` steps,
    stopping before a step when `control` returns None.

    Returns the states x_0..x_k, the k controls applied and a message that
    is empty unless the next step left the dynamics domain (SingularityError
    or DynamicsDomainError, caught here and nowhere else); that step's
    control is then appended, so a caller can price it. Without a message,
    k < steps says the law stopped the loop.

    Hot-loop contract. The vectors hold 1 to 20 entries, where a numpy call
    costs its dispatch, so the laws use ``ndarray.dot`` (half the overhead
    of ``@``, the same BLAS routine) and `math` scalar tests in the
    association order of the ``@`` formulas kept in ``tests/test_bitexact.py``,
    whose states and controls they give bit for bit (a marginal solve can
    flip on a last bit). Each step is one `euler_step` on the kernel's
    floats: one array per step and the only finiteness test of a state.
    Callers price the finished loop with `cost.priced`, one `stage_costs`
    call (within 1e-13 of the per-step formula relative to each row's
    |quadratic part| + |penalty|, measured <= 31 ulps), which cuts it where
    the running sum in step order first passed their cap, keeping what a
    test after each applied step would have kept.
    """
    x = np.array(x0, dtype=float)
    states, controls = [x], []
    message = ""
    try:
        for t in range(steps):
            u = control(t, x)
            if u is None:
                break
            controls.append(u)
            x = euler_step(model, x, u)
            states.append(x)
    except (SingularityError, DynamicsDomainError) as exc:
        message = str(exc)
    return np.array(states), np.array(controls).reshape(len(controls), model.control_dim), message


def finite_diff_jacobians(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> Linearization:
    """Central-difference Jacobians of the discrete step map.

    Oracle for the analytic Jacobians; exact for linear maps up to roundoff.
    The perturbation is per-coordinate, max(FD_STEP, FD_STEP*|v|). A
    perturbed evaluation that hits a singularity propagates the error.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.state_dim, model.control_dim
    A = np.empty((n, n))
    B = np.empty((n, m))
    hx = np.maximum(FD_STEP, FD_STEP * np.abs(x))
    for j in range(n):
        e = np.zeros(n)
        e[j] = hx[j]
        A[:, j] = (model.step(x + e, u) - model.step(x - e, u)) / (2.0 * hx[j])
    hu = np.maximum(FD_STEP, FD_STEP * np.abs(u))
    for j in range(m):
        e = np.zeros(m)
        e[j] = hu[j]
        B[:, j] = (model.step(x, u + e) - model.step(x, u - e)) / (2.0 * hu[j])
    return Linearization(A=A, B=B)


def finite_diff_hessians(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Central differences of the analytic continuous state partials,
    ``C[i, j, k] = d(dfdx[i, j]) / dx_k``, shape (n, n, n).

    Oracle for ``deriv_hessians``, with the per-coordinate step of
    `finite_diff_jacobians`; exact for rates quadratic in the state up to
    roundoff.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    C = np.empty((n, n, n))
    h = np.maximum(FD_STEP, FD_STEP * np.abs(x))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h[k]
        C[:, :, k] = (model.deriv_jacobians(x + e, u)[0] - model.deriv_jacobians(x - e, u)[0]) / (2.0 * h[k])
    return C


def _times_dt(partial: np.ndarray, dt: float, lead: tuple) -> np.ndarray:
    """dt * partial: in place on a batched (fresh) partial, never on a shared one."""
    if lead and partial.shape[:-2] == lead:
        partial *= dt
        return partial
    return dt * partial


def jacobians(model: DiscreteModel, x: np.ndarray, u: np.ndarray) -> Linearization:
    """Discrete Jacobians at x (n,), u (m,) or along a trajectory x (T, n), u (T, m),
    from one call of the model's partials."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.state_dim, model.control_dim
    lead = x.shape[:-1]
    dfdx, dfdu = model.deriv_jacobians(x, u)
    A = _times_dt(dfdx, model.dt, lead)
    A += np.eye(n)
    B = _times_dt(dfdu, model.dt, lead)
    if A.shape[:-2] != lead:
        A = np.broadcast_to(A, lead + (n, n))
    if B.shape[:-2] != lead:
        B = np.broadcast_to(B, lead + (n, m))
    return Linearization(A=A, B=B)


def lti_model(A: np.ndarray, B: np.ndarray, dt: float = 1.0) -> DiscreteModel:
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
    return DiscreteModel(
        n, m, lambda x, u: (Ac.dot(x) + Bc.dot(u)).tolist(), dt, lambda x, u: (Ac, Bc)
    )

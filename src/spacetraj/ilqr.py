"""Finite-horizon trajectory optimization by iterative LQR.

Each iteration expands the cost to second order and the dynamics to first
order around the incumbent trajectory, computes feedforward/feedback gains by
a backward sweep of the state-control value function partials

    Q_x  = l_x  + A' V_x          Q_u  = l_u + B' V_x
    Q_xx = l_xx + A' V_xx A       Q_ux = B' V_xx A
    Q_uu = l_uu + B' V_xx B + lambda I

    k = -Q_uu^-1 Q_u              K = -Q_uu^-1 Q_ux

    V_x  = Q_x  + K'Q_uu k + K'Q_u  + Q_xu k
    V_xx = Q_xx + K'Q_uu K + K'Q_ux + Q_xu K

and rolls the nonlinear dynamics forward under u <- u_nom + alpha * k +
K (x - x_nom) with a backtracking line search on alpha. The damping lambda
shrinks after accepted steps and, as in Tassa, Erez & Todorov (IROS 2012),
grows by compounding factors: the k-th rejected line search in a row
multiplies it by reg_growth**k. On linear-quadratic problems one accepted
iteration reaches the exact finite-horizon LQR optimum. Solves are
deterministic: identical inputs produce bitwise-identical logs.

The sweep runs over z = [u; x; 1]. With the stage expansion packed into
L_t = [[l_uu, 0, l_u], [0, l_xx, l_x], [l_u', l_x', 0]], the dynamics into
F_t = [[B A 0], [0 0 1]] and V = [[V_xx, V_x], [V_x', c]], each step is one
product, one solve and one update:

    H = L_t + F_t' V F_t,  H_uu += lambda I
                                (H_uu = Q_uu, H_u,[x 1] = [Q_ux | Q_u])
    [K | k] = -H_uu^-1 H_u,[x 1]
    V <- S' H S,   S = [[K, k], [I, 0], [0, 1]]

This is exact: the damped Q_uu that gives the gains also enters V, so both
are the Riccati recursion with stage weight R + lambda I, and S' H S is the
four-term update above as one product. Unlike the equal two-term form
H_[x1],[x1] - H_[x1],u H_uu^-1 H_u,[x1], its error is second-order in the
gains' error (on the soft-landing trajectory the two-term form's worst
error against long double measured 5.2x the per-step reference's, this
form's 1.6x). The damping is added after the product, as the per-step
reference adds it, so the solve sees the reference's rounding of Q_uu
whenever the products agree. Only V_xx is symmetrized. The gradient norm
and the predicted change are formed after the sweep from the stored H_u
and H_uu, and one batched finiteness and Cholesky test checks every damped
Q_uu (Cholesky alone accepts NaN); on failure the steps are re-tested from
the last, so the error names the step a per-step test would have named.

The rollouts are `dynamics.simulate` under the open-loop law ``U[t]`` and
the affine `tracking_law`, priced after the loop as its hot-loop contract
states: their states and controls are bitwise the ``@`` formulas kept in
``tests/test_bitexact.py``, and they return None exactly where a test after
each step would have stopped. The sweep is held to measured
bounds instead: relative to each quantity's largest entry it agrees with
the per-step reference to 1e-12 on the scenario trajectories (measured
<= 3e-14). Its worst error against long double is within twice the
reference's plus 1e-14 on the scenario trajectories; on rare generated
unstable draws none of the double-precision evaluation orders tried stays
within it (see ``tests/test_bitexact.py``). It calls the gufunc behind
`np.linalg.solve` inside its one `np.errstate`, as the wrapper's own error
state costs several 3x3 solves; a singular Q_uu then gives NaN gains, which
the deferred test rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .cost import QuadraticCostSpec, TerminalValue, cost_derivatives, first_over_cap, stage_costs
from .dynamics import ControlLaw, DiscreteModel, jacobians, simulate
from .errors import DivergenceError, RegularizationError

# Default line search: step sizes LINE_SEARCH_FACTOR**i, i < LINE_SEARCH_STEPS.
LINE_SEARCH_FACTOR = 0.7
LINE_SEARCH_STEPS = 16


@dataclass(frozen=True)
class Trajectory:
    """Dynamically feasible rollout with its cost breakdown."""

    states: np.ndarray  # (T+1, n)
    controls: np.ndarray  # (T, m)
    stage_costs: np.ndarray  # (T,)
    terminal_cost: float

    @property
    def horizon(self) -> int:
        return len(self.controls)

    @property
    def phase_cost(self) -> float:
        """Accumulated stage cost, terminal value excluded."""
        return float(np.sum(self.stage_costs))

    @property
    def total_cost(self) -> float:
        return self.phase_cost + self.terminal_cost


@dataclass(frozen=True)
class GainSchedule:
    feedforward: np.ndarray  # (T, m)
    feedback: np.ndarray  # (T, m, n)
    gradient_norm: float  # max_t ||Q_u(t)||
    change_linear: float  # sum_t k' Q_u        (negative when improving)
    change_quadratic: float  # sum_t k' Q_uu k

    def predicted_change(self, alpha: float) -> float:
        """Quadratic-model cost change for a step of size alpha (< 0 is a decrease)."""
        return alpha * self.change_linear + 0.5 * alpha**2 * self.change_quadratic


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 500
    tolerance: float = 1e-8  # relative cost change / stationarity threshold
    alphas: Tuple[float, ...] = tuple(LINE_SEARCH_FACTOR**i for i in range(LINE_SEARCH_STEPS))
    reg_init: float = 1e-6
    reg_growth: float = 10.0
    reg_shrink: float = 0.1
    reg_min: float = 1e-8
    reg_max: float = 1e8
    cost_cap: float = 1e30  # rollout divergence threshold

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not (self.alphas and self.alphas[0] == 1.0 and all(a > 0.0 for a in self.alphas)):
            raise ValueError("alphas must be positive and start at 1.0")
        if not all(b < a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("alphas must be strictly decreasing")
        if not 0.0 < self.reg_min <= self.reg_init <= self.reg_max < math.inf:
            raise ValueError("need 0 < reg_min <= reg_init <= reg_max < inf")
        if not (1.0 < self.reg_growth < math.inf and 0.0 < self.reg_shrink < 1.0):
            raise ValueError("need 1 < reg_growth < inf and 0 < reg_shrink < 1")
        if not 0.0 < self.cost_cap <= math.inf:
            raise ValueError(f"cost_cap must be positive, got {self.cost_cap!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    cost: float
    alpha: float  # 0.0 when no step was accepted
    regularization: float
    gradient_norm: float
    accepted: bool


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    gains: GainSchedule
    iterations: Tuple[IterationRecord, ...]
    converged: bool
    status: str

    @property
    def cost(self) -> float:
        return self.trajectory.total_cost

    def iteration_rows(self) -> List[dict]:
        return [
            {
                "iteration": rec.iteration,
                "cost": rec.cost,
                "alpha": rec.alpha,
                "lambda": rec.regularization,
                "gradient_norm": rec.gradient_norm,
                "accepted": int(rec.accepted),
            }
            for rec in self.iterations
        ]


def rollout(
    model: DiscreteModel,
    x0: np.ndarray,
    controls: np.ndarray,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float = 1e30,
) -> Optional[Trajectory]:
    """Roll the nonlinear dynamics under an open-loop control sequence.

    Returns None when the rollout diverges (non-finite state, cost above the
    cap, or the dynamics leave their domain).
    """
    controls = np.asarray(controls, dtype=float)
    simulation = simulate(model, x0, lambda t, x: controls[t], len(controls))
    return _priced(simulation, spec, terminal, cost_cap)


def tracking_law(controls: np.ndarray, feedback: np.ndarray, states: np.ndarray) -> ControlLaw:
    """The affine law ``u_t = controls[t] + feedback[t] (x_t - states[t])``
    that tracks a nominal (`controls` may carry a shifted feedforward)."""
    return lambda t, x: controls[t] + feedback[t].dot(x - states[t])


def _priced(
    simulation: Tuple[np.ndarray, np.ndarray, str],
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float,
) -> Optional[Trajectory]:
    """The finished rollout with its stage costs, or None when a step left
    the dynamics domain or a running sum of the costs tripped the cap."""
    states, controls, message = simulation
    if message:
        return None
    costs = stage_costs(states[:-1], controls, spec)
    # a candidate that trips the cap at any step is rejected whole
    if first_over_cap(costs, cost_cap)[1] is not None:
        return None
    return Trajectory(
        states=states,
        controls=controls,
        stage_costs=costs,
        terminal_cost=terminal.value(states[-1]),
    )


def _first_indefinite_step(Q_uus: np.ndarray) -> int:
    """Latest step whose Q_uu is non-finite or fails the Cholesky test, as a
    per-step test walking back from T - 1 would name it; -1 when every one
    passes. One batched test decides; the walk runs only on failure."""
    if np.isfinite(Q_uus).all():  # Cholesky lets NaN through
        try:
            np.linalg.cholesky(Q_uus)
            return -1
        except np.linalg.LinAlgError:
            pass
    for t in range(len(Q_uus) - 1, -1, -1):
        if not np.isfinite(Q_uus[t]).all():
            return t
        try:
            np.linalg.cholesky(Q_uus[t])
        except np.linalg.LinAlgError:
            return t
    return -1


def backward_pass(
    traj: Trajectory,
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    regularization: float,
) -> GainSchedule:
    """Backward sweep producing the gain schedule at the given damping.

    A Riccati sweep over z = [u; x; 1] (see the module docstring) on one
    batched Jacobian and one cost-expansion call, packed into F_t and L_t.
    Raises RegularizationError if the damped Q_uu is non-finite or fails its
    Cholesky test at any step (the latest such step is named); the solve
    loop escalates lambda and retries.
    """
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    u_, x_, one = slice(0, m), slice(m, m + n), m + n
    lin = jacobians(model, X, U)
    F = np.zeros((T, n + 1, m + n + 1))  # [[B A 0], [0 0 1]]
    F[:, :n, u_] = lin.B
    F[:, :n, x_] = lin.A
    F[:, n, one] = 1.0
    del lin
    der = cost_derivatives(X, U, spec)
    H = np.zeros((T, m + n + 1, m + n + 1))  # L_t, turned into H_t by the sweep
    H[:, u_, u_] = der.l_uu
    H[:, x_, x_] = der.l_xx
    H[:, u_, one] = H[:, one, u_] = der.l_u
    H[:, x_, one] = H[:, one, x_] = der.l_x
    del der
    damped = np.einsum("tii->ti", H[:, u_, u_])  # view of each Q_uu's diagonal
    G = np.empty((T, m, n + 1))  # -[K | k]
    S = np.zeros((m + n + 1, n + 1))  # -S_t of the module docstring
    S[range(m, m + n + 1), range(n + 1)] = -1.0
    V = np.zeros((n + 1, n + 1))
    V[:n, :n] = terminal.hessian()
    V[:n, n] = V[n, :n] = terminal.gradient(traj.states[T])
    solve = _umath_linalg.solve
    # Past an indefinite or singular Q_uu the sweep runs on meaningless values
    # (overflow, NaN gains) until the deferred test below rejects it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(T - 1, -1, -1):
            F_t, H_t = F[t], H[t]
            H_t += F_t.T.dot(V).dot(F_t)
            damped[t] += regularization
            G[t] = solve(H_t[u_, u_], H_t[u_, m:], out=S[u_])
            V = S.T.dot(H_t).dot(S)
            V_xx = V[:n, :n]
            V_xx[...] = 0.5 * (V_xx + V_xx.T)
        Q_uus = H[:, u_, u_]
        bad = _first_indefinite_step(Q_uus)
    if bad >= 0:
        raise RegularizationError(
            f"control Hessian not positive definite at step {bad} "
            f"with damping {regularization:.3e}"
        )
    ks = -G[:, :, n]
    Q_u = H[:, u_, one]
    return GainSchedule(
        feedforward=ks,
        feedback=-G[:, :, :n],
        gradient_norm=math.sqrt(np.einsum("ti,ti->t", Q_u, Q_u).max()),
        change_linear=float(np.einsum("ti,ti->", ks, Q_u)),
        change_quadratic=float(np.einsum("ti,tij,tj->", ks, Q_uus, ks)),
    )


def forward_pass(
    traj: Trajectory,
    gains: GainSchedule,
    alpha: float,
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float = 1e30,
) -> Optional[Trajectory]:
    """Closed-loop rollout of the updated policy from the same initial state.

    Returns the candidate trajectory, or None when it diverges (a rejected
    line-search candidate, not an error).
    """
    # u_t = (u_nom + alpha k)_t + K_t (x_t - x_nom_t); the bracket is
    # elementwise, so it is formed for all steps at once
    shifted = traj.controls + alpha * gains.feedforward
    law = tracking_law(shifted, gains.feedback, traj.states)
    return _priced(simulate(model, traj.states[0], law, traj.horizon), spec, terminal, cost_cap)


def solve_fhocp(
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    x0: np.ndarray,
    steps: int,
    settings: SolverSettings | None = None,
    initial_controls: Optional[np.ndarray] = None,
) -> SolveReport:
    """Solve the fixed-horizon problem

        min sum_t c(x_t, u_t) + x_T' P x_T   s.t.  x_{t+1} = f(x_t, u_t)

    by iterating backward/forward passes until the relative cost change (or
    the predicted improvement) drops below the tolerance.
    """
    settings = settings or SolverSettings()
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"horizon must be at least one step, got {steps!r}")
    if initial_controls is None:
        initial_controls = np.zeros((steps, model.control_dim))
    else:
        initial_controls = np.asarray(initial_controls, dtype=float)
        if initial_controls.shape != (steps, model.control_dim):
            raise ValueError(
                f"initial controls have shape {initial_controls.shape}, "
                f"expected {(steps, model.control_dim)}"
            )

    traj = rollout(model, x0, initial_controls, spec, terminal, settings.cost_cap)
    if traj is None:
        raise DivergenceError("initial control sequence produces a divergent rollout")

    lam = settings.reg_init
    failures = 0  # consecutive rejected line searches
    log: List[IterationRecord] = []
    gains = None
    converged = False
    status = "max_iterations"

    for it in range(1, settings.max_iterations + 1):
        while True:
            try:
                gains = backward_pass(traj, model, spec, terminal, lam)
                break
            except RegularizationError:
                if lam >= settings.reg_max:
                    raise
                lam = min(lam * settings.reg_growth, settings.reg_max)

        scale = max(abs(traj.total_cost), 1.0)
        if abs(gains.predicted_change(1.0)) < settings.tolerance * scale:
            log.append(
                IterationRecord(it, traj.total_cost, 0.0, lam, gains.gradient_norm, False)
            )
            converged = True
            status = "stationary"
            break

        candidate = None
        accepted_alpha = 0.0
        for alpha in settings.alphas:
            cand = forward_pass(traj, gains, alpha, model, spec, terminal, settings.cost_cap)
            if cand is not None and cand.total_cost < traj.total_cost:
                candidate = cand
                accepted_alpha = alpha
                break

        if candidate is None:
            log.append(
                IterationRecord(it, traj.total_cost, 0.0, lam, gains.gradient_norm, False)
            )
            if lam >= settings.reg_max:
                status = "line_search_failed"
                break
            failures += 1
            lam = min(lam * settings.reg_growth**failures, settings.reg_max)
            continue

        failures = 0
        rel_change = abs(traj.total_cost - candidate.total_cost) / scale
        traj = candidate
        lam = max(lam * settings.reg_shrink, settings.reg_min)
        log.append(
            IterationRecord(
                it, traj.total_cost, accepted_alpha, lam, gains.gradient_norm, True
            )
        )
        if rel_change < settings.tolerance:
            converged = True
            status = "cost_change"
            break

    return SolveReport(
        trajectory=traj,
        gains=gains,
        iterations=tuple(log),
        converged=converged,
        status=status,
    )

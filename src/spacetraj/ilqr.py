"""Finite-horizon trajectory optimization by iterative LQR.

Each iteration expands the cost to second order and the dynamics to first
order around the incumbent trajectory, computes feedforward/feedback gains by
a backward sweep of the state-control value function partials

    Q_x  = l_x  + A' V_x          Q_u  = l_u + B' V_x
    Q_xx = l_xx + A' V_xx A       Q_ux = B' V_xx A
    Q_uu = l_uu + B' V_xx B

    k = -Q_uu^-1 Q_u              K = -Q_uu^-1 Q_ux

and rolls the nonlinear dynamics forward under

    u <- u_nom + alpha * k + K (x - x_nom)

with a backtracking line search on alpha. Q_uu is kept positive definite by
Levenberg-style damping (+ lambda I); lambda grows when no step is accepted
and shrinks after accepted steps. On linear-quadratic problems one accepted
iteration reaches the exact finite-horizon LQR optimum.

Solves are deterministic: identical inputs produce bitwise-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cost import QuadraticCostSpec, TerminalValue, cost_derivatives, stage_cost
from .dynamics import DiscreteModel, jacobians
from .errors import DynamicsDomainError, RegularizationError, SingularityError


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
    alphas: Tuple[float, ...] = tuple(0.7**i for i in range(16))
    reg_init: float = 1e-6
    reg_growth: float = 10.0
    reg_shrink: float = 0.1
    reg_min: float = 1e-8
    reg_max: float = 1e8
    cost_cap: float = 1e30  # rollout divergence threshold

    def __post_init__(self):
        assert self.max_iterations >= 1 and self.tolerance > 0.0
        assert all(a > 0.0 for a in self.alphas) and self.alphas[0] == 1.0
        assert all(b < a for a, b in zip(self.alphas, self.alphas[1:]))
        assert 0.0 < self.reg_min <= self.reg_init <= self.reg_max
        assert self.reg_growth > 1.0 and 0.0 < self.reg_shrink < 1.0


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
    T = len(controls)
    states = np.empty((T + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    stage_costs = np.empty(T)
    running = 0.0
    for t in range(T):
        stage_costs[t] = stage_cost(states[t], controls[t], spec)
        running += stage_costs[t]
        if not np.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            states[t + 1] = model.step(states[t], controls[t])
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.all(np.isfinite(states[t + 1])):
            return None
    return Trajectory(
        states=states,
        controls=controls,
        stage_costs=stage_costs,
        terminal_cost=terminal.value(states[T]),
    )


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def backward_pass(
    traj: Trajectory,
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    regularization: float,
) -> GainSchedule:
    """Backward sweep producing the gain schedule at the given damping.

    The Jacobians and cost expansions of every stage come from one batched
    call each; the recursion then runs over the precomputed arrays. Raises
    RegularizationError if the damped Q_uu fails its Cholesky test at any
    step; the solve loop escalates lambda and retries.
    """
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    lin = jacobians(model, X, U)
    der = cost_derivatives(X, U, spec)
    ks = np.empty((T, m))
    Ks = np.empty((T, m, n))
    V_x = terminal.gradient(traj.states[T])
    V_xx = terminal.hessian()
    grad_norm = 0.0
    change_lin = 0.0
    change_quad = 0.0
    reg_eye = regularization * np.eye(m)
    for t in range(T - 1, -1, -1):
        A, B = lin.A[t], lin.B[t]
        Q_x = der.l_x[t] + A.T @ V_x
        Q_u = der.l_u[t] + B.T @ V_x
        Q_xx = der.l_xx[t] + A.T @ V_xx @ A
        Q_ux = B.T @ V_xx @ A
        Q_uu = _sym(der.l_uu[t] + B.T @ V_xx @ B) + reg_eye
        try:
            np.linalg.cholesky(Q_uu)
        except np.linalg.LinAlgError:
            raise RegularizationError(
                f"control Hessian not positive definite at step {t} "
                f"with damping {regularization:.3e}"
            )
        # one solve for both gains: Q_uu [k | K] = -[Q_u | Q_ux]
        gains = -np.linalg.solve(Q_uu, np.column_stack((Q_u, Q_ux)))
        k, K = gains[:, 0], gains[:, 1:]
        ks[t] = k
        Ks[t] = K
        V_x = Q_x + K.T @ Q_uu @ k + K.T @ Q_u + Q_ux.T @ k
        V_xx = _sym(Q_xx + K.T @ Q_uu @ K + K.T @ Q_ux + Q_ux.T @ K)
        grad_norm = max(grad_norm, float(np.linalg.norm(Q_u)))
        change_lin += float(k @ Q_u)
        change_quad += float(k @ Q_uu @ k)
    return GainSchedule(
        feedforward=ks,
        feedback=Ks,
        gradient_norm=grad_norm,
        change_linear=change_lin,
        change_quadratic=change_quad,
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
    T = traj.horizon
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    stage_costs = np.empty(T)
    states[0] = traj.states[0]
    running = 0.0
    for t in range(T):
        controls[t] = (
            traj.controls[t]
            + alpha * gains.feedforward[t]
            + gains.feedback[t] @ (states[t] - traj.states[t])
        )
        stage_costs[t] = stage_cost(states[t], controls[t], spec)
        running += stage_costs[t]
        if not np.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            states[t + 1] = model.step(states[t], controls[t])
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.all(np.isfinite(states[t + 1])):
            return None
    return Trajectory(
        states=states,
        controls=controls,
        stage_costs=stage_costs,
        terminal_cost=terminal.value(states[T]),
    )


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
    assert steps >= 1, "horizon must be at least one step"
    if initial_controls is None:
        initial_controls = np.zeros((steps, model.control_dim))
    else:
        initial_controls = np.asarray(initial_controls, dtype=float)
        assert initial_controls.shape == (steps, model.control_dim)

    traj = rollout(model, x0, initial_controls, spec, terminal, settings.cost_cap)
    if traj is None:
        raise ValueError("initial control sequence produces a divergent rollout")

    lam = settings.reg_init
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
            lam = min(lam * settings.reg_growth, settings.reg_max)
            continue

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

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

Hot-loop contract. The per-step loops (`rollout`, `forward_pass` and the
backward sweep) work on vectors of 1 to 13 entries, where the cost of a numpy
call is its dispatch, not its arithmetic. They therefore use ``ndarray.dot``
rather than ``@`` (half the call overhead, the same BLAS routine) and scalar
`math` functions for scalar tests, while keeping the association order of
every product and sum, so their results are bitwise those of the plain
``@`` formulas (the reference copies in ``tests/test_bitexact.py``). Stuck
solves make this matter: whether a marginal solve converges can flip on a
last-bit change. Two details keep it exact: the feedback gain is read back
from the contiguous gain array before it is transposed (a strided view takes
a different product kernel), and the feedforward gain stays the column of the
solve's result it has always been.

The positive-definiteness test of the damped Q_uu is deferred: the sweep
records every Q_uu and one batched Cholesky factorization tests them all after
it. On failure the steps are re-tested one by one from the last, so the error
names the step a per-step test would have named.
"""

from __future__ import annotations

import math
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
    T = len(controls)
    states = np.empty((T + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    stage_costs = np.empty(T)
    step, cost = model.step, stage_cost
    x = states[0]
    running = 0.0
    for t in range(T):
        u = controls[t]
        c = cost(x, u, spec)
        stage_costs[t] = c
        running += c
        if not math.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            x = step(x, u)
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.isfinite(x).all():
            return None
        states[t + 1] = x
    return Trajectory(
        states=states,
        controls=controls,
        stage_costs=stage_costs,
        terminal_cost=terminal.value(states[T]),
    )


def _first_indefinite_step(Q_uus: np.ndarray, last: int) -> Optional[int]:
    """Latest step in [last, T) whose Q_uu fails the Cholesky test, walking
    back from T - 1 as the sweep did; None when every one passes."""
    for t in range(len(Q_uus) - 1, last - 1, -1):
        try:
            np.linalg.cholesky(Q_uus[t])
        except np.linalg.LinAlgError:
            return t
    return None


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
    step (the latest such step is named); the solve loop escalates lambda and
    retries. The test runs once, batched, after the sweep.
    """
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    lin = jacobians(model, X, U)
    der = cost_derivatives(X, U, spec)
    ks = np.empty((T, m))
    Ks = np.empty((T, m, n))
    Q_uus = np.empty((T, m, m))
    rhs = np.empty((m, n + 1))  # [Q_u | Q_ux]
    V_x = terminal.gradient(traj.states[T])
    V_xx = terminal.hessian()
    grad_norm = 0.0
    change_lin = 0.0
    change_quad = 0.0
    reg_eye = regularization * np.eye(m)
    As, Bs = lin.A, lin.B
    l_x, l_u, l_xx, l_uu = der.l_x, der.l_u, der.l_xx, der.l_uu
    solve = np.linalg.solve
    # Past an indefinite Q_uu the sweep runs on meaningless values until the
    # deferred test below rejects it; overflow there is expected.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for t in range(T - 1, -1, -1):
                A, B = As[t], Bs[t]
                At, Bt = A.T, B.T
                Q_x = l_x[t] + At.dot(V_x)
                Q_u = l_u[t] + Bt.dot(V_x)
                Q_xx = l_xx[t] + At.dot(V_xx).dot(A)
                BtV = Bt.dot(V_xx)  # a repeated product is the same product
                Q_ux = BtV.dot(A)
                M = l_uu[t] + BtV.dot(B)
                Q_uu = 0.5 * (M + M.T) + reg_eye
                Q_uus[t] = Q_uu
                # one solve for both gains: Q_uu [k | K] = -[Q_u | Q_ux]
                rhs[:, 0] = Q_u
                rhs[:, 1:] = Q_ux
                gains = -solve(Q_uu, rhs)
                k = gains[:, 0]
                ks[t] = k
                Ks[t] = gains[:, 1:]
                K = Ks[t]
                Kt, Q_xu = K.T, Q_ux.T
                KtQ_uu = Kt.dot(Q_uu)
                V_x = Q_x + KtQ_uu.dot(k) + Kt.dot(Q_u) + Q_xu.dot(k)
                M = Q_xx + KtQ_uu.dot(K) + Kt.dot(Q_ux) + Q_xu.dot(K)
                V_xx = 0.5 * (M + M.T)
                grad_norm = max(grad_norm, math.sqrt(Q_u.dot(Q_u)))
                change_lin += float(k.dot(Q_u))
                change_quad += float(k.dot(Q_uu).dot(k))
        except np.linalg.LinAlgError:
            bad = _first_indefinite_step(Q_uus, t)
            if bad is None:
                raise
        else:
            try:
                np.linalg.cholesky(Q_uus)
                bad = None
            except np.linalg.LinAlgError:
                bad = _first_indefinite_step(Q_uus, 0)
    if bad is not None:
        raise RegularizationError(
            f"control Hessian not positive definite at step {bad} "
            f"with damping {regularization:.3e}"
        )
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
    # u_t = (u_nom + alpha k)_t + K_t (x_t - x_nom_t); the bracket is
    # elementwise, so it is formed for all steps at once
    shifted = traj.controls + alpha * gains.feedforward
    X_nom, feedback = traj.states, gains.feedback
    step, cost = model.step, stage_cost
    x = states[0]
    running = 0.0
    for t in range(T):
        u = shifted[t] + feedback[t].dot(x - X_nom[t])
        controls[t] = u
        c = cost(x, u, spec)
        stage_costs[t] = c
        running += c
        if not math.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            x = step(x, u)
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.isfinite(x).all():
            return None
        states[t + 1] = x
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
